package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// TestMaintainAllConsistency maintains several views of different shapes
// over one store under randomized batches; every view must stay equal to
// its recomputation after every batch.
func TestMaintainAllConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", randomBib(rng, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", randomPrices(rng, 4)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		RunningExample,
		`<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`,
		`<result>{
			for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
			where $b/title = $e/b-title
			return <pair>{$b/title} {$e/price}</pair> }</result>`,
	}
	var views []*View
	for _, q := range queries {
		v, err := NewView(s, q)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	rounds := 15
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		prims := randomBatch(t, rng, s, 1+rng.Intn(3))
		if !conflictFree(prims) {
			continue
		}
		// Recompute baselines before mutating anything.
		wants := make([]string, len(views))
		for i, q := range queries {
			w, err := Recompute(s, q, prims)
			if err != nil {
				t.Fatalf("round %d recompute view %d: %v", round, i, err)
			}
			wants[i] = w
		}
		stats, err := MaintainAll(s, views, prims, 0)
		if err != nil {
			t.Fatalf("round %d maintain: %v", round, err)
		}
		if len(stats) != len(views) {
			t.Fatalf("stats: %d", len(stats))
		}
		for i, v := range views {
			if got := v.XML(); got != wants[i] {
				t.Fatalf("round %d view %d mismatch:\nincr: %s\nfull: %s", round, i, got, wants[i])
			}
		}
	}
}

// deepClonePrims copies a batch so two maintenance arms can each consume
// their own primitives (validation assigns insert keys in place).
func deepClonePrims(prims []*update.Primitive) []*update.Primitive {
	out := make([]*update.Primitive, len(prims))
	for i, p := range prims {
		cp := *p
		if p.Frag != nil {
			cp.Frag = p.Frag.Clone()
		}
		out[i] = &cp
	}
	return out
}

// TestMaintainAllParallelDeterminism runs the same randomized batches
// through a sequential (Parallelism: 1) and a parallel (Parallelism: 8)
// MaintainAll over ≥8 views of different shapes on twin stores. The
// canonical extents must stay byte-identical and the per-view delta-root
// counts equal: pool size must never leak into maintenance results.
func TestMaintainAllParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD17E))
	bibXML := randomBib(rng, 8)
	pricesXML := randomPrices(rng, 6)
	mkArm := func() (*xmldoc.Store, []*View) {
		s := xmldoc.NewStore()
		if _, err := s.Load("bib.xml", bibXML); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load("prices.xml", pricesXML); err != nil {
			t.Fatal(err)
		}
		views := make([]*View, 0, len(propertyViews))
		for _, pv := range propertyViews {
			v, err := NewView(s, pv.query)
			if err != nil {
				t.Fatalf("view %s: %v", pv.name, err)
			}
			views = append(views, v)
		}
		return s, views
	}
	seqStore, seqViews := mkArm()
	parStore, parViews := mkArm()
	if len(seqViews) < 8 {
		t.Fatalf("need at least 8 views, have %d", len(seqViews))
	}
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for round := 0; round < rounds; round++ {
		prims := randomBatch(t, rng, seqStore, 1+rng.Intn(3))
		if !conflictFree(prims) {
			continue
		}
		seqStats, err := MaintainAll(seqStore, seqViews, deepClonePrims(prims), 0, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("round %d sequential: %v", round, err)
		}
		parStats, err := MaintainAll(parStore, parViews, deepClonePrims(prims), 0, Options{Parallelism: 8})
		if err != nil {
			t.Fatalf("round %d parallel: %v", round, err)
		}
		for i := range seqViews {
			seqXML := CanonicalXML(seqViews[i].Extent)
			parXML := CanonicalXML(parViews[i].Extent)
			if seqXML != parXML {
				t.Fatalf("round %d view %s: extents diverge\nseq: %s\npar: %s",
					round, propertyViews[i].name, seqXML, parXML)
			}
			if seqStats[i].DeltaRoots != parStats[i].DeltaRoots {
				t.Fatalf("round %d view %s: delta roots %d (seq) vs %d (par)",
					round, propertyViews[i].name, seqStats[i].DeltaRoots, parStats[i].DeltaRoots)
			}
		}
	}
}

// TestMaintainAllParallelConsistency re-runs the multi-view consistency
// check with an oversized pool: parallel maintenance must still equal full
// recomputation for every view.
func TestMaintainAllParallelConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", randomBib(rng, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", randomPrices(rng, 5)); err != nil {
		t.Fatal(err)
	}
	queries := make([]string, len(propertyViews))
	views := make([]*View, len(propertyViews))
	for i, pv := range propertyViews {
		queries[i] = pv.query
		v, err := NewView(s, pv.query)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		prims := randomBatch(t, rng, s, 1+rng.Intn(3))
		if !conflictFree(prims) {
			continue
		}
		wants, err := RecomputeAll(s, queries, prims)
		if err != nil {
			t.Fatalf("round %d recompute: %v", round, err)
		}
		if _, err := MaintainAll(s, views, prims, 0, Options{Parallelism: 8}); err != nil {
			t.Fatalf("round %d maintain: %v", round, err)
		}
		for i, v := range views {
			if got := v.XML(); got != wants[i] {
				t.Fatalf("round %d view %s mismatch:\nincr: %s\nfull: %s",
					round, propertyViews[i].name, got, wants[i])
			}
		}
	}
}

// TestRecomputeAllMatchesRecompute checks the multi-view baseline against the
// single-view one, and that the source store is left untouched.
func TestRecomputeAllMatchesRecompute(t *testing.T) {
	s := bibStore(t)
	size := s.Size()
	bib, _ := s.RootElem("bib.xml")
	prims := []*update.Primitive{{Kind: update.Insert, Doc: "bib.xml", Parent: bib,
		Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1999"),
			xmldoc.Elem("title", xmldoc.TextF("Parallel Views")))}}
	queries := []string{
		RunningExample,
		`<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`,
	}
	var wants []string
	for _, q := range queries {
		w, err := Recompute(s, q, deepClonePrims(prims))
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, w)
	}
	got, err := RecomputeAll(s, queries, prims)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if got[i] != wants[i] {
			t.Fatalf("query %d: RecomputeAll diverges from Recompute:\nall: %s\none: %s",
				i, got[i], wants[i])
		}
	}
	if s.Size() != size {
		t.Fatalf("RecomputeAll mutated the source store: %d -> %d nodes", size, s.Size())
	}
}

// TestForEachIndexErrorCancels verifies pool semantics: the first error is
// returned and not every remaining item starts.
func TestForEachIndexErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	err := forEachIndex(1000, Options{Parallelism: 4}, func(i int) error {
		started.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("error did not cancel the pool: all %d items ran", n)
	}
}

// TestForEachIndexBounded verifies the worker bound is respected.
func TestForEachIndexBounded(t *testing.T) {
	var cur, peak atomic.Int64
	err := forEachIndex(64, Options{Parallelism: 3}, func(i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("concurrency peaked at %d with Parallelism 3", p)
	}
}

// TestMaintainAllParallelError: a propagation failure in one view must
// surface as an error without panicking the other workers.
func TestMaintainAllParallelError(t *testing.T) {
	s := bibStore(t)
	var views []*View
	for i := 0; i < 4; i++ {
		v, err := NewView(s, RunningExample)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	// Sabotage one plan: point its source at an unloaded document.
	views[2].Plan.Root.Doc = "nope.xml"
	for _, op := range views[2].Plan.Ops() {
		if op.Doc != "" {
			op.Doc = "nope.xml"
		}
	}
	bib, _ := s.RootElem("bib.xml")
	prims := []*update.Primitive{{Kind: update.Insert, Doc: "bib.xml", Parent: bib,
		Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1994"),
			xmldoc.Elem("title", xmldoc.TextF(fmt.Sprintf("x-%d", 1))))}}
	if _, err := MaintainAll(s, views, prims, 0, Options{Parallelism: 4}); err == nil {
		t.Fatal("expected an error from the sabotaged view")
	}
}

// TestMaintainAllRejectsForeignView guards against mixing stores.
func TestMaintainAllRejectsForeignView(t *testing.T) {
	s1 := bibStore(t)
	s2 := bibStore(t)
	v, err := NewView(s2, RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MaintainAll(s1, []*View{v}, nil, 0); err == nil {
		t.Fatal("foreign view accepted")
	}
}

// TestMaintainAllEmptyBatch is a no-op that must not disturb extents.
func TestMaintainAllEmptyBatch(t *testing.T) {
	s := bibStore(t)
	v, err := NewView(s, RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	before := v.XML()
	if _, err := MaintainAll(s, []*View{v}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if v.XML() != before {
		t.Fatal("empty batch changed the extent")
	}
}
