package core

import (
	"fmt"
	"math/rand"
	"testing"

	"xqview/internal/journal"
	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// The propagation state cache turns repeated base derivations into folds of
// the round's own deltas; these tests pin when it folds, evicts and survives.
// Its invisibility in results is the randomized oracle's job
// (TestRoundsMatchRecomputeRandomized).

// TestCacheInvalidationPerPrimitive drives one join view through each update
// primitive kind in turn — insert fragment, delete
// subtree, replace text — validating the extent against recomputation after
// every round. Inserts and deletes must fold into the cached tables; the
// replace round (rewritten or patched) must stay correct through eviction.
func TestCacheInvalidationPerPrimitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", randomBib(rng, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", randomPrices(rng, 3)); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Parallelism: 1}
	set := mustSet(t, s, []*View{v})
	bibRoot, _ := s.RootElem("bib.xml")
	priRoot, _ := s.RootElem("prices.xml")

	step := func(name string, prims []*update.Primitive) {
		t.Helper()
		want, err := Recompute(s, RunningExample, deepClonePrims(prims))
		if err != nil {
			t.Fatalf("%s: recompute: %v", name, err)
		}
		if _, err := MaintainAll(set, prims, 0, opts); err != nil {
			t.Fatalf("%s: maintain: %v", name, err)
		}
		if got := v.XML(); got != want {
			t.Fatalf("%s: extent mismatch:\nincr: %s\nfull: %s", name, got, want)
		}
	}

	// Warm the cache with an insert round, then exercise each primitive.
	step("warm-insert", []*update.Primitive{{
		Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot,
		Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1995"),
			xmldoc.Elem("title", xmldoc.TextF("Views"))),
	}})
	warm := v.CacheStats()
	if warm.Entries == 0 {
		t.Fatal("warm round cached no base tables")
	}

	step("insert", []*update.Primitive{{
		Kind: update.Insert, Doc: "prices.xml", Parent: priRoot,
		Frag: xmldoc.Elem("entry",
			xmldoc.Elem("price", xmldoc.TextF("12.34")),
			xmldoc.Elem("b-title", xmldoc.TextF("Views"))),
	}})
	after := v.CacheStats()
	if after.Hits <= warm.Hits {
		t.Errorf("insert round should hit the cache: hits %d -> %d", warm.Hits, after.Hits)
	}
	if after.Folds <= warm.Folds {
		t.Errorf("insert round should fold deltas into cached tables: folds %d -> %d", warm.Folds, after.Folds)
	}

	books := xmldoc.ChildElems(s, bibRoot, "book")
	step("delete", []*update.Primitive{{Kind: update.Delete, Doc: "bib.xml", Key: books[0]}})

	entries := xmldoc.ChildElems(s, priRoot, "entry")
	prices := xmldoc.ChildElems(s, entries[0], "price")
	texts := xmldoc.TextChildren(s, prices[0])
	step("replace", []*update.Primitive{{Kind: update.Replace, Doc: "prices.xml",
		Key: texts[0], NewValue: "99.99"}})

	// And one more insert to prove the cache still works after the
	// replace-driven invalidation.
	step("post-replace-insert", []*update.Primitive{{
		Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot,
		Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1996"),
			xmldoc.Elem("title", xmldoc.TextF("Streams"))),
	}})
}

// TestCacheMultiDocPartialTouch maintains a two-document join view with a
// round touching only bib.xml: the prices-side cached table must survive
// untouched (no eviction) while the bib-side state folds forward, and the
// extent must match recomputation.
func TestCacheMultiDocPartialTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", randomBib(rng, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", randomPrices(rng, 4)); err != nil {
		t.Fatal(err)
	}
	query := `<result>{
		for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
		where $b/title = $e/b-title
		return <pair>{$b/title} {$e/price}</pair> }</result>`
	v, err := NewView(s, query)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Parallelism: 1}
	set := mustSet(t, s, []*View{v})
	bibRoot, _ := s.RootElem("bib.xml")
	mkInsert := func(i int) []*update.Primitive {
		return []*update.Primitive{{
			Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot,
			Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1994"),
				xmldoc.Elem("title", xmldoc.TextF(fmt.Sprintf("Partial-%d", i)))),
		}}
	}
	// Round 1 warms the cache (both join sides derive fresh).
	if _, err := MaintainAll(set, mkInsert(1), 0, opts); err != nil {
		t.Fatal(err)
	}
	warm := v.CacheStats()
	if warm.Entries == 0 {
		t.Fatal("no cached entries after the warm round")
	}
	// Round 2 touches only bib.xml: nothing may be evicted.
	want, err := Recompute(s, query, deepClonePrims(mkInsert(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MaintainAll(set, mkInsert(2), 0, opts); err != nil {
		t.Fatal(err)
	}
	if got := v.XML(); got != want {
		t.Fatalf("extent mismatch:\nincr: %s\nfull: %s", got, want)
	}
	after := v.CacheStats()
	if after.Evictions != warm.Evictions {
		t.Errorf("bib-only round evicted cached tables: evictions %d -> %d", warm.Evictions, after.Evictions)
	}
	if after.Hits <= warm.Hits {
		t.Errorf("bib-only round should serve the prices side from cache: hits %d -> %d", warm.Hits, after.Hits)
	}
	if after.Entries < warm.Entries {
		t.Errorf("entries shrank on a foldable round: %d -> %d", warm.Entries, after.Entries)
	}
}

// TestDisjointViewSkipped registers two views over different documents and
// applies a batch touching only one of them: the untouched view must be
// skipped (MaintStats.Skipped, unchanged extent) and
// the journal must say so, while the touched view maintains normally.
func TestDisjointViewSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", randomBib(rng, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", randomPrices(rng, 3)); err != nil {
		t.Fatal(err)
	}
	bibView, err := NewView(s, `<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	bibView.Name = "bib-view"
	priView, err := NewView(s, `<result>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	priView.Name = "prices-view"

	prev := journal.SetEnabled(true)
	defer journal.SetEnabled(prev)
	journal.Default.Reset()

	bibBefore := bibView.XML()
	priRoot, _ := s.RootElem("prices.xml")
	prims := []*update.Primitive{{
		Kind: update.Insert, Doc: "prices.xml", Parent: priRoot,
		Frag: xmldoc.Elem("entry",
			xmldoc.Elem("price", xmldoc.TextF("1.00")),
			xmldoc.Elem("b-title", xmldoc.TextF("Skip"))),
	}}
	stats, err := MaintainAll(mustSet(t, s, []*View{bibView, priView}), prims, 0,
		Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Skipped != 1 {
		t.Errorf("bib view not skipped: Skipped=%d", stats[0].Skipped)
	}
	if stats[1].Skipped != 0 {
		t.Errorf("prices view wrongly skipped")
	}
	if got := bibView.XML(); got != bibBefore {
		t.Errorf("skipped view's extent changed:\nbefore: %s\nafter:  %s", bibBefore, got)
	}
	// The prices view must actually have refreshed.
	want, err := NewView(s, priView.Query)
	if err != nil {
		t.Fatal(err)
	}
	if priView.XML() != want.XML() {
		t.Errorf("maintained view stale:\ngot:  %s\nwant: %s", priView.XML(), want.XML())
	}

	rounds := journal.Default.Rounds()
	if len(rounds) != 1 {
		t.Fatalf("journaled rounds: %d", len(rounds))
	}
	vl := rounds[0].PerView[0]
	if vl.Skipped == "" {
		t.Error("journal lineage of the skipped view carries no skip reason")
	}
	if len(vl.Ops) != 0 || len(vl.Fusions) != 0 {
		t.Errorf("skipped view recorded lineage: %d ops, %d fusions", len(vl.Ops), len(vl.Fusions))
	}
	// Explain renders a clean skip chain instead of a not-found error.
	text, err := journal.Default.Explain("bib-view", "anykey")
	if err != nil {
		t.Fatalf("explain on skipped view errored: %v", err)
	}
	if text == "" {
		t.Error("explain on skipped view returned empty text")
	}
}

// TestCacheSurvivesSkips interleaves disjoint (skipped) and relevant rounds
// on a cached join view: skipping must not stale the cache.
func TestCacheSurvivesSkips(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", randomBib(rng, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", randomPrices(rng, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("other.xml", "<other><item><name>x</name></item></other>"); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Parallelism: 1}
	set := mustSet(t, s, []*View{v})
	bibRoot, _ := s.RootElem("bib.xml")
	otherRoot, _ := s.RootElem("other.xml")
	for i := 0; i < 6; i++ {
		var prims []*update.Primitive
		if i%2 == 0 {
			prims = []*update.Primitive{{
				Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot,
				Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1997"),
					xmldoc.Elem("title", xmldoc.TextF(fmt.Sprintf("Alt-%d", i)))),
			}}
		} else {
			// Disjoint: touches other.xml only, view must skip.
			prims = []*update.Primitive{{
				Kind: update.Insert, Doc: "other.xml", Parent: otherRoot,
				Frag: xmldoc.Elem("item", xmldoc.Elem("name", xmldoc.TextF("y"))),
			}}
		}
		want, err := Recompute(s, RunningExample, deepClonePrims(prims))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		stats, err := MaintainAll(set, prims, 0, opts)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if i%2 == 1 && stats[0].Skipped != 1 {
			t.Errorf("round %d: disjoint round not skipped", i)
		}
		if got := v.XML(); got != want {
			t.Fatalf("round %d extent mismatch:\nincr: %s\nfull: %s", i, got, want)
		}
	}
	if st := v.CacheStats(); st.Hits == 0 {
		t.Error("cache never hit across alternating rounds")
	}
}
