package xqview

// Verifies the Reader read-only contract documented on xmldoc.Reader: the
// materialize and propagate phases treat the base store as strictly
// read-only, even though the store hands out its internal slices and node
// pointers. The test snapshots every observable byte of the store (nodes,
// child indexes, attribute indexes) before running each phase and fails on
// any difference afterwards — a write-through anywhere in the engine shows
// up as a mutated snapshot.

import (
	"reflect"
	"testing"

	"xqview/internal/core"
	"xqview/internal/flexkey"
	"xqview/internal/obs"
	"xqview/internal/update"
	"xqview/internal/validate"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// snapEntry is the deep-copied observable state of one stored node.
type snapEntry struct {
	node     xmldoc.Node
	children []flexkey.Key
	attrs    []flexkey.Key
}

// snapshotStore deep-copies everything a Reader exposes, walking each
// document from its root.
func snapshotStore(s *xmldoc.Store) map[flexkey.Key]snapEntry {
	snap := map[flexkey.Key]snapEntry{}
	var walk func(k flexkey.Key)
	walk = func(k flexkey.Key) {
		n, ok := s.Node(k)
		if !ok {
			return
		}
		e := snapEntry{
			node:     *n,
			children: append([]flexkey.Key(nil), s.Children(k)...),
			attrs:    append([]flexkey.Key(nil), s.Attrs(k)...),
		}
		snap[k] = e
		for _, c := range e.children {
			walk(c)
		}
		for _, a := range e.attrs {
			walk(a)
		}
	}
	for _, doc := range s.Docs() {
		if k, ok := s.Root(doc); ok {
			walk(k)
		}
	}
	return snap
}

// requireUnchanged re-snapshots and diffs against the reference, reporting
// the first divergent key for debuggability.
func requireUnchanged(t *testing.T, s *xmldoc.Store, want map[flexkey.Key]snapEntry, phase string) {
	t.Helper()
	got := snapshotStore(s)
	if len(got) != len(want) {
		t.Fatalf("%s changed the store's node population: %d nodes, want %d", phase, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s removed node %s from the store", phase, k)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s mutated the store at %s:\nbefore: %+v\nafter:  %+v", phase, k, w, g)
		}
	}
}

func TestReaderContractMaterializeAndPropagate(t *testing.T) {
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", `<bib>
		<book year="1994"><title>TCP/IP Illustrated</title><price>65.95</price></book>
		<book year="2000"><title>Data on the Web</title><price>39.95</price></book>
	</bib>`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", `<prices>
		<entry><b-title>Data on the Web</b-title><price>34.95</price></entry>
	</prices>`); err != nil {
		t.Fatal(err)
	}
	snap := snapshotStore(s)

	query := `<result>{
		for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
		where $b/title = $e/b-title
		return <pair>{$b/title} {$e/price}</pair> }</result>`
	v, err := core.NewView(s, query)
	if err != nil {
		t.Fatal(err)
	}
	requireUnchanged(t, s, snap, "materialize")

	// One primitive of each kind, across both documents.
	bibRoot, _ := s.RootElem("bib.xml")
	priRoot, _ := s.RootElem("prices.xml")
	books := xmldoc.ChildElems(s, bibRoot, "book")
	entries := xmldoc.ChildElems(s, priRoot, "entry")
	prices := xmldoc.ChildElems(s, entries[0], "price")
	texts := xmldoc.TextChildren(s, prices[0])
	prims := []*update.Primitive{
		{Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot,
			Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1999"),
				xmldoc.Elem("title", xmldoc.TextF("Web Views")),
				xmldoc.Elem("price", xmldoc.TextF("20.00")))},
		{Kind: update.Delete, Doc: "bib.xml", Key: books[0]},
		{Kind: update.Replace, Doc: "prices.xml", Key: texts[0], NewValue: "29.95"},
	}
	batch, err := validate.ValidateRec(s, v.SAPT, prims, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireUnchanged(t, s, snap, "validate")

	// Assemble the propagate input exactly as the maintenance pipeline does:
	// the base store plus the batch refreshed into a draft of it.
	din := deltaInputFor(t, s, batch)
	requireUnchanged(t, s, snap, "source refresh")
	cache := xat.NewStateCache()
	if _, err := xat.PropagateDelta(v.Plan, din, obs.Span{}, nil, cache, nil, nil); err != nil {
		t.Fatal(err)
	}
	requireUnchanged(t, s, snap, "propagate")

	// The cache's commit, and propagation served from what it holds, share
	// the same contract.
	prep, err := cache.Prepare(din.Regions)
	if err != nil {
		t.Fatal(err)
	}
	cache.Install(prep)
	if _, err := xat.PropagateDelta(v.Plan, din, obs.Span{}, nil, cache, nil, nil); err != nil {
		t.Fatal(err)
	}
	requireUnchanged(t, s, snap, "cached propagate")
}

// deltaInputFor mirrors the pipeline's source refresh and propagate-input
// assembly (core.refreshSources, core.deltaInput) for a validated batch.
func deltaInputFor(t *testing.T, s *xmldoc.Store, batch *validate.Batch) *xat.DeltaInput {
	t.Helper()
	draft := xmldoc.NewDraft(s)
	for _, p := range batch.Refresh {
		if err := update.ApplyToStore(draft, p); err != nil {
			t.Fatal(err)
		}
	}
	regions := map[string][]*xat.Region{}
	for doc, prims := range batch.ByDoc {
		for _, p := range prims {
			var r *xat.Region
			switch p.Kind {
			case update.Insert:
				r = &xat.Region{Mode: xat.RegionInsert, Anchor: p.Key, Parent: p.Parent}
			case update.Delete:
				r = &xat.Region{Mode: xat.RegionDelete, Anchor: p.Key}
			case update.Replace:
				r = &xat.Region{Mode: xat.RegionModify, Anchor: p.Key, NewValue: p.NewValue}
			}
			regions[doc] = append(regions[doc], r)
		}
	}
	return &xat.DeltaInput{Base: s, New: draft, Regions: regions}
}
