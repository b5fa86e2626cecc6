package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqview/internal/deepunion"
	"xqview/internal/flexkey"
	"xqview/internal/journal"
	"xqview/internal/update"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// The property behind Thm 4.5.1 and the Ch 7 correctness proofs: for any
// source state and any batch of heterogeneous updates, incrementally
// maintaining the view yields the same extent as recomputing it over the
// updated sources. These tests exercise it with randomized documents and
// randomized update batches over several view shapes.

var titlesPool = []string{
	"TCP/IP Illustrated", "Data on the Web", "Advanced Unix", "XML Handbook",
	"Query Processing", "Streams", "Views", "Algebra", "Lineage", "Order",
}

func randomBib(rng *rand.Rand, nBooks int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < nBooks; i++ {
		year := 1994 + rng.Intn(4)
		title := titlesPool[rng.Intn(len(titlesPool))]
		fmt.Fprintf(&b, `<book year="%d"><title>%s</title><author><last>A%d</last></author></book>`,
			year, title, rng.Intn(5))
	}
	b.WriteString("</bib>")
	return b.String()
}

func randomPrices(rng *rand.Rand, nEntries int) string {
	var b strings.Builder
	b.WriteString("<prices>")
	for i := 0; i < nEntries; i++ {
		title := titlesPool[rng.Intn(len(titlesPool))]
		fmt.Fprintf(&b, `<entry><price>%d.%02d</price><b-title>%s</b-title></entry>`,
			10+rng.Intn(90), rng.Intn(100), title)
	}
	b.WriteString("</prices>")
	return b.String()
}

// randomBatch builds a heterogeneous batch of update primitives against the
// current store state.
func randomBatch(t *testing.T, rng *rand.Rand, s *xmldoc.Store, n int) []*update.Primitive {
	t.Helper()
	var prims []*update.Primitive
	bibRoot, _ := s.RootElem("bib.xml")
	priRoot, _ := s.RootElem("prices.xml")
	deleted := map[string]bool{}
	for len(prims) < n {
		switch rng.Intn(7) {
		case 0: // insert a book at a random position
			books := xmldoc.ChildElems(s, bibRoot, "book")
			frag := xmldoc.Elem("book",
				xmldoc.AttrF("year", fmt.Sprintf("%d", 1994+rng.Intn(4))),
				xmldoc.Elem("title", xmldoc.TextF(titlesPool[rng.Intn(len(titlesPool))])))
			p := &update.Primitive{Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot, Frag: frag}
			if len(books) > 0 {
				i := rng.Intn(len(books))
				p.After = books[i]
				if i+1 < len(books) {
					p.Before = books[i+1]
				}
			}
			prims = append(prims, p)
		case 1: // delete a random book
			books := xmldoc.ChildElems(s, bibRoot, "book")
			if len(books) == 0 {
				continue
			}
			k := books[rng.Intn(len(books))]
			if deleted[string(k)] {
				continue
			}
			deleted[string(k)] = true
			prims = append(prims, &update.Primitive{Kind: update.Delete, Doc: "bib.xml", Key: k})
		case 2: // insert a price entry
			frag := xmldoc.Elem("entry",
				xmldoc.Elem("price", xmldoc.TextF(fmt.Sprintf("%d.50", 20+rng.Intn(60)))),
				xmldoc.Elem("b-title", xmldoc.TextF(titlesPool[rng.Intn(len(titlesPool))])))
			prims = append(prims, &update.Primitive{Kind: update.Insert, Doc: "prices.xml", Parent: priRoot, Frag: frag})
		case 3: // delete a random entry
			entries := xmldoc.ChildElems(s, priRoot, "entry")
			if len(entries) == 0 {
				continue
			}
			k := entries[rng.Intn(len(entries))]
			if deleted[string(k)] {
				continue
			}
			deleted[string(k)] = true
			prims = append(prims, &update.Primitive{Kind: update.Delete, Doc: "prices.xml", Key: k})
		case 4: // replace a price value (exposed-only path: a true modify)
			entries := xmldoc.ChildElems(s, priRoot, "entry")
			if len(entries) == 0 {
				continue
			}
			ek := entries[rng.Intn(len(entries))]
			if deleted[string(ek)] {
				continue
			}
			ps := xmldoc.ChildElems(s, ek, "price")
			if len(ps) == 0 {
				continue
			}
			texts := xmldoc.TextChildren(s, ps[0])
			if len(texts) == 0 {
				continue
			}
			prims = append(prims, &update.Primitive{Kind: update.Replace, Doc: "prices.xml",
				Key: texts[0], NewValue: fmt.Sprintf("%d.99", 10+rng.Intn(80))})
		case 5: // replace a title (value-sensitive: forces a rewrite)
			books := xmldoc.ChildElems(s, bibRoot, "book")
			if len(books) == 0 {
				continue
			}
			bk := books[rng.Intn(len(books))]
			if deleted[string(bk)] {
				continue
			}
			ts := xmldoc.ChildElems(s, bk, "title")
			if len(ts) == 0 {
				continue
			}
			texts := xmldoc.TextChildren(s, ts[0])
			if len(texts) == 0 {
				continue
			}
			prims = append(prims, &update.Primitive{Kind: update.Replace, Doc: "bib.xml",
				Key: texts[0], NewValue: titlesPool[rng.Intn(len(titlesPool))]})
		case 6: // insert an author (irrelevant to most views)
			books := xmldoc.ChildElems(s, bibRoot, "book")
			if len(books) == 0 {
				continue
			}
			bk := books[rng.Intn(len(books))]
			if deleted[string(bk)] {
				continue
			}
			frag := xmldoc.Elem("author", xmldoc.Elem("last", xmldoc.TextF("New")))
			prims = append(prims, &update.Primitive{Kind: update.Insert, Doc: "bib.xml",
				Parent: bk, Frag: frag})
		}
	}
	return prims
}

// conflictFree rejects batches where one primitive's region contains
// another's (the standard non-conflicting batch assumption, Sec 5.3); an
// insert's region is its parent. A value replace under an insert's parent
// is not a conflict: the inserted fragment holds no node the replace reads,
// and a replace that forces a rewrite of a sibling the insert is placed
// beside must leave that sibling in its place.
func conflictFree(prims []*update.Primitive) bool {
	region := func(p *update.Primitive) flexkey.Key {
		if p.Kind == update.Insert {
			return p.Parent
		}
		return p.Key
	}
	for i, a := range prims {
		for j, b := range prims {
			if i == j || a.Doc != b.Doc || a.Kind == update.Insert && b.Kind == update.Replace {
				continue
			}
			if region(a) == region(b) && a.Kind != update.Insert || flexkey.IsAncestorOf(region(a), region(b)) {
				return false
			}
		}
	}
	return true
}

var propertyViews = []struct {
	name  string
	query string
}{
	{"flagship", RunningExample},
	{"titles", `<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`},
	{"exposed-books", `<result>{ for $b in doc("bib.xml")/bib/book return $b }</result>`},
	{"filtered", `<result>{
		for $b in doc("bib.xml")/bib/book
		where $b/@year = "1995"
		return <hit>{$b/title}</hit> }</result>`},
	{"join", `<result>{
		for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
		where $b/title = $e/b-title
		return <pair>{$b/title} {$e/price}</pair> }</result>`},
	{"nested-groups", `<result>{
		for $y in distinct-values(doc("bib.xml")/bib/book/@year)
		order by $y
		return <g y="{$y}">{
			for $b in doc("bib.xml")/bib/book
			where $y = $b/@year
			return <i>{$b/title}</i>
		}</g> }</result>`},
	{"aggregate", `<result>{
		for $b in doc("bib.xml")/bib/book
		order by $b/title
		return <c n="{count($b/author)}">{$b/title}</c> }</result>`},
	{"grouped-aggregate", `<result>{
		for $y in distinct-values(doc("bib.xml")/bib/book/@year)
		order by $y
		return <g y="{$y}" n="{count(
			for $b in doc("bib.xml")/bib/book where $y = $b/@year return $b
		)}"/> }</result>`},
	{"self-join", `<result>{
		for $a in doc("bib.xml")/bib/book, $b in doc("bib.xml")/bib/book
		where $a/@year = $b/@year and $a/title < $b/title
		return <pair>{$a/title} {$b/title}</pair> }</result>`},
	{"root-exposure", `<result>{ for $r in doc("bib.xml")/bib return $r }</result>`},
}

func TestPropertyIncrementalEqualsRecompute(t *testing.T) {
	for _, pv := range propertyViews {
		pv := pv
		t.Run(pv.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE ^ int64(len(pv.name))))
			iters := 30
			if testing.Short() {
				iters = 8
			}
			for iter := 0; iter < iters; iter++ {
				s := xmldoc.NewStore()
				if _, err := s.Load("bib.xml", randomBib(rng, 1+rng.Intn(6))); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Load("prices.xml", randomPrices(rng, 1+rng.Intn(5))); err != nil {
					t.Fatal(err)
				}
				prims := randomBatch(t, rng, s, 1+rng.Intn(4))
				if !conflictFree(prims) {
					continue
				}
				want, err := Recompute(s, pv.query, prims)
				if err != nil {
					t.Fatalf("iter %d recompute: %v", iter, err)
				}
				v, err := NewView(s, pv.query)
				if err != nil {
					t.Fatalf("iter %d view: %v", iter, err)
				}
				if _, err := v.ApplyUpdates(prims); err != nil {
					t.Fatalf("iter %d apply: %v\nprims: %v", iter, err, prims)
				}
				if got := v.XML(); got != want {
					var ps []string
					for _, p := range prims {
						ps = append(ps, p.String())
					}
					t.Fatalf("iter %d mismatch\nprims:\n  %s\nincr: %s\nfull: %s",
						iter, strings.Join(ps, "\n  "), got, want)
				}
				// Structural invariants of the refreshed extent: positive
				// counts, unique sibling ids, order-sorted children.
				if err := deepunion.Validate(v.Extent); err != nil {
					t.Fatalf("iter %d extent invariant: %v", iter, err)
				}
			}
		})
	}
}

// newArm builds one store + views fixture over the bib/prices pair. Twin
// arms load the same documents in the same order, so FlexKey assignment — and
// therefore every key a primitive references — is identical across arms.
func newArm(t *testing.T, bibXML, pricesXML string, queries []string) (*xmldoc.Store, []*View) {
	t.Helper()
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", pricesXML); err != nil {
		t.Fatal(err)
	}
	views := make([]*View, len(queries))
	for i, q := range queries {
		v, err := NewView(s, q)
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		v.Name = fmt.Sprintf("v%d", i)
		views[i] = v
	}
	return s, views
}

// roundFamilies are the view sets the randomized round oracle runs over.
// Each names the mechanisms its rounds must exercise, so a family that stops
// hitting the state cache, seeding shared prefixes or compacting batches
// fails instead of passing vacuously.
var roundFamilies = []struct {
	name    string
	seed    int64
	queries []string
	// dupReplace draws batches that repeat a replace (dupReplaceBatch), so
	// compaction has something to coalesce.
	dupReplace bool
	wantCache  bool // private state caches must serve hits
	wantShared bool // shared prefixes must seed member views
}{
	{name: "running-example", seed: 99, queries: []string{RunningExample}, wantCache: true},
	{name: "joins-and-flats", seed: 0xCAC4E, wantCache: true, wantShared: true, queries: []string{
		RunningExample,
		`<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`,
		`<result>{
			for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
			where $b/title = $e/b-title
			return <pair>{$b/title} {$e/price}</pair> }</result>`,
		`<result>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</result>`,
	}},
	{name: "crash-queries", seed: 0x7241, queries: crashQueries, wantShared: true},
	{name: "dup-replaces", seed: 0xC0A1E5CE, queries: compactArmQueries, dupReplace: true},
	{name: "shared-families", seed: 0x54A12E, queries: sharedFamilies, wantShared: true},
}

// TestRoundsMatchRecomputeRandomized is the refresh theorem on whole rounds:
// randomized primitive streams run through MaintainAll over each family,
// round after round on the same store, and after every round every view's
// extent must equal full recomputation, the stored documents must equal
// the stream applied one primitive at a time (updates no view reads
// included), and the published version must hold the store's root. The DAG
// is held across rounds as Database does, so shared cache partitions fold
// forward like private ones.
func TestRoundsMatchRecomputeRandomized(t *testing.T) {
	defer journal.SetEnabled(journal.SetEnabled(true))
	defer journal.Default.Reset()
	for _, fam := range roundFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(fam.seed))
			store, views := newArm(t, randomBib(rng, 6), randomPrices(rng, 5), fam.queries)
			reg := NewSnapReg()
			reg.PublishLive(store, views)
			set := mustSet(t, store, views)
			opts := Options{Snapshots: reg}
			rounds := 25
			if testing.Short() {
				rounds = 8
			}
			seeded, compacted := 0, 0
			for round := 0; round < rounds; round++ {
				var prims []*update.Primitive
				if fam.dupReplace {
					prims = dupReplaceBatch(t, rng, store)
				} else if prims = randomBatch(t, rng, store, 1+rng.Intn(3)); !conflictFree(prims) {
					continue
				}
				wants, err := RecomputeAll(store, fam.queries, deepClonePrims(prims))
				if err != nil {
					t.Fatalf("round %d recompute: %v", round, err)
				}
				replay := xmldoc.NewDraft(store)
				for _, p := range deepClonePrims(prims) {
					if err := update.ApplyToStore(replay, p); err != nil {
						t.Fatalf("round %d replay: %v", round, err)
					}
				}
				wantDocs := documentsXML(replay.Freeze())
				journal.Default.Reset()
				stats, err := MaintainAll(set, prims, 0, opts)
				if err != nil {
					t.Fatalf("round %d maintain: %v", round, err)
				}
				// Keys differ where validation rewrote an anchor; the
				// documents do not.
				if got := documentsXML(store); got != wantDocs {
					t.Fatalf("round %d: stored documents diverge from the replayed stream\nprims: %v\nstore:  %s\nreplay: %s",
						round, prims, got, wantDocs)
				}
				for i, v := range views {
					seeded += stats[i].SharedPrefixes
					// The apply pass's copy slabs are sized on this bound.
					if u := stats[i].Union; u.Kept > u.DeltaNodes {
						t.Fatalf("round %d view %d: apply kept %d nodes for a %d-node delta\nprims: %v",
							round, i, u.Kept, u.DeltaNodes, prims)
					}
					if got := v.XML(); got != wants[i] {
						t.Fatalf("round %d view %d diverges from recompute\nprims: %v\nincr: %s\nfull: %s",
							round, i, prims, got, wants[i])
					}
					// The serving serializer against the fragment tree it replaced.
					if got, want := xat.ExtentXML(v.Extent), fragXML(v.Extent); got != want {
						t.Fatalf("round %d view %d: ExtentXML differs from Frag().String()\nstream: %s\nfrag:   %s",
							round, i, got, want)
					}
				}
				if reg.Current().Store != store.Snap {
					t.Fatalf("round %d: the published version is not the store's root\nprims: %v", round, prims)
				}
				// The journal stays truthful about compaction: it snapshots
				// the ORIGINAL stream, and no verdict names a primitive that
				// compaction dropped before validation.
				jr := journal.Default.Rounds()[0]
				if len(jr.Prims) != len(prims) {
					t.Fatalf("round %d: journaled %d prims, submitted %d", round, len(jr.Prims), len(prims))
				}
				dropped := map[int]bool{}
				for _, c := range jr.Compactions {
					for _, d := range c.Dropped {
						dropped[d] = true
					}
				}
				if len(dropped) > 0 {
					compacted++
				}
				for _, vd := range jr.Verdicts {
					if vd.Prim < 0 || vd.Prim >= len(prims) || dropped[vd.Prim] {
						t.Fatalf("round %d: verdict %+v names a dropped or unknown primitive (dropped %v)",
							round, vd, dropped)
					}
				}
			}
			hits := 0
			for _, v := range views {
				hits += v.CacheStats().Hits
			}
			if fam.wantCache && hits == 0 {
				t.Error("no view ever hit its state cache; the oracle run is vacuous for the cache")
			}
			if fam.wantShared && seeded == 0 {
				t.Error("no shared prefix was ever seeded; the oracle run is vacuous for sharing")
			}
			if fam.dupReplace && compacted == 0 {
				t.Error("no round compacted anything; the oracle run is vacuous for compaction")
			}
		})
	}
}

// documentsXML serializes every document of r, in name order.
func documentsXML(r interface {
	xmldoc.Reader
	Docs() []string
}) string {
	var b strings.Builder
	for _, doc := range r.Docs() {
		d, _ := r.Root(doc)
		b.WriteString(xmldoc.Serialize(r, d))
	}
	return b.String()
}

// fragXML serializes an extent the way reads did before ExtentXML: one
// xmldoc.Frag tree per root, printed and concatenated. It is the reference
// the streaming serializer must match byte for byte.
func fragXML(roots []*xat.VNode) string {
	var b strings.Builder
	for _, r := range roots {
		if f := r.Frag(); f != nil {
			b.WriteString(f.String())
		}
	}
	return b.String()
}

// TestExtentXMLMatchesFragOnHandBuiltTrees covers what maintained extents
// rarely hold: dead subtrees, attribute nodes in element content, elements
// whose every child is dropped, and values that need escaping.
func TestExtentXMLMatchesFragOnHandBuiltTrees(t *testing.T) {
	type nodes = []*xat.VNode
	el := func(name string, count int, attrs nodes, kids ...*xat.VNode) *xat.VNode {
		return &xat.VNode{Kind: xmldoc.Element, Name: name, Count: count, Attrs: attrs, Children: kids}
	}
	attr := func(name, v string, count int) *xat.VNode {
		return &xat.VNode{Kind: xmldoc.Attr, Name: name, Value: v, Count: count}
	}
	text := func(v string, count int) *xat.VNode {
		return &xat.VNode{Kind: xmldoc.Text, Value: v, Count: count}
	}
	const hostile = "a&b<c \"q\"\tt\nn\rr"
	cases := map[string]nodes{
		"empty extent":          nil,
		"dead root":             {el("a", 0, nil, text("x", 1))},
		"negative subtree":      {el("a", 1, nil, el("gone", -1, nil, text("x", 1)), el("kept", 2, nil, text("y", 1)))},
		"only dead children":    {el("a", 1, nil, el("b", 0, nil), text("t", -1)), el("c", 1, nil)},
		"only hoisted children": {el("a", 1, nil, attr("k", "v", 1), attr("dead", "v", 0))},
		"hoisted after own attrs": {el("a", 1, nodes{attr("own", "1", 1), attr("dead", "2", 0)},
			text("before", 1), attr("late", "3", 1), el("b", 1, nodes{attr("x", "y", 1)}))},
		"empty text survives":      {el("a", 1, nil, text("", 1))},
		"text escapes":             {el("a", 1, nil, text(`1 < 2 && 3 > 2 "q"`, 1))},
		"attr escapes":             {el("a", 1, nodes{attr("k", hostile, 1)}, attr("h", "say \"hi\"\n", 1), text("x", 1))},
		"bare attr and text roots": {attr("k", "a\"b", 1), text("a&b", 1), attr("dead", "v", 0)},
		"several roots":            {el("r", 1, nil, el("s", 1, nil, text("1", 1))), text(" ", 1), el("r", 3, nil)},
	}
	for name, roots := range cases {
		if got, want := xat.ExtentXML(roots), fragXML(roots); got != want {
			t.Errorf("%s:\nstream: %s\nfrag:   %s", name, got, want)
		}
		if len(roots) > 0 {
			want := ""
			if f := roots[0].Frag(); f != nil {
				want = f.String()
			}
			if got := roots[0].XML(); got != want {
				t.Errorf("%s: VNode.XML = %s, want %s", name, got, want)
			}
		}
	}
	// The attribute case must also be well-formed, not just self-consistent.
	back, err := xmldoc.Parse(xat.ExtentXML(cases["attr escapes"]))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Attrs[0].Value; got != hostile {
		t.Errorf("attribute came back %q", got)
	}
}
