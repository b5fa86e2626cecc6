package xat

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"xqview/internal/arena"
	"xqview/internal/flexkey"
	"xqview/internal/obs"
	"xqview/internal/xmldoc"
)

// The whole point of the round arena is that the delta engine's per-tuple
// constructors stop touching the heap once the pools are warm: every Get is
// a bump-pointer advance into a retained chunk and Release rewinds it. These
// tests pin that contract with testing.AllocsPerRun; the benchmarks report
// allocs/op.

// tupleSink keeps the measured rounds from being optimized away.
var tupleSink *Tuple

// tupleRound is one steady-state constructor round on the caller's arena:
// build a chain of tuples through the hot constructors (tuple, extend,
// extendCells, cell1, vnode, makeInt32, spanMap), release.
func tupleRound(a *Alloc) {
	tp := a.tuple()
	tp.Cells, tp.Count = a.makeCells(1, 1), 1
	for i := 0; i < 64; i++ {
		tp = extend(a, tp, a.cell1(ValueItem("v", 1)))
	}
	tp = extendCells(a, tp, a.makeCells(2, 2))
	for i := 0; i < 16; i++ {
		_ = a.vnode(VNode{Name: "x"})
		_ = a.makeInt32(8, 8)
	}
	m := a.spanMap(8)
	m["k"] = 1
	tupleSink = tp
	a.Release()
}

// TestArenaSteadyStateZeroAllocs asserts the zero-alloc contract for the
// per-tuple constructors: after a warm-up that grows the chunks, a full
// allocate-then-release round on the same arena performs no heap allocation
// at all, even with collections forced between rounds — the arena's owner,
// not the collector, decides how long its chunks live.
func TestArenaSteadyStateZeroAllocs(t *testing.T) {
	if arena.Poisoning() {
		t.Skip("poison mode drops chunks at Release, so rounds re-allocate by design")
	}
	a := &Alloc{}
	for i := 0; i < 4; i++ {
		tupleRound(a) // grow chunks and spanMaps
	}
	if avg := testing.AllocsPerRun(200, func() { tupleRound(a) }); avg != 0 {
		t.Fatalf("steady-state constructor round allocates: %.2f allocs/run, want 0", avg)
	}
	// Each round is measured on its own, after two collections: the first
	// would move a sync.Pool's contents to its victim cache, the second drop
	// them. The pause lets the runtime's own post-collection cleanups, which
	// allocate, finish outside the measured window.
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		runtime.GC()
		runtime.GC()
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&before)
		tupleRound(a)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("constructor round after two collections allocates: %d allocs, want 0", n)
		}
	}
}

// TestDeltaNavArenaAllocs asserts the deltaNav propagation path is
// allocation-gated per tuple: with the arena on, growing the round's delta
// (more inserted books → more tuples through NavUnnest/NavCollection/Tagger)
// must cost a fraction of the per-tuple allocations of the nil-Alloc heap
// path one-shot execution uses. Measured over a 2-insert and a 32-insert
// batch with the identical plan and base.
func TestDeltaNavArenaAllocs(t *testing.T) {
	if arena.Poisoning() {
		t.Skip("poison mode drops chunks at Release, so rounds re-allocate by design")
	}
	plan := newDeltaFixture(t, "").plan
	const small, big = 2, 32
	run := func(inserts int, withArena bool) func() {
		in := deltaNavInput(t, inserts)
		c := NewStateCache()
		var a *Alloc
		if withArena {
			a = &Alloc{}
		}
		return func() {
			if _, err := PropagateDelta(plan, in, obs.Span{}, nil, c, a, nil); err != nil {
				t.Fatal(err)
			}
			a.Release()
		}
	}
	onSmallF, onBigF := run(small, true), run(big, true)
	offSmallF, offBigF := run(small, false), run(big, false)
	for i := 0; i < 4; i++ {
		onSmallF()
		onBigF()
	}
	onSmall := testing.AllocsPerRun(50, onSmallF)
	onBig := testing.AllocsPerRun(50, onBigF)
	offSmall := testing.AllocsPerRun(50, offSmallF)
	offBig := testing.AllocsPerRun(50, offBigF)
	onPerTuple := (onBig - onSmall) / float64(big-small)
	offPerTuple := (offBig - offSmall) / float64(big-small)
	t.Logf("deltaNav allocs/round: arena %0.f→%.0f (%.2f/insert), heap %.0f→%.0f (%.2f/insert)",
		onSmall, onBig, onPerTuple, offSmall, offBig, offPerTuple)
	if offPerTuple <= 0 {
		t.Fatalf("heap arm shows no per-insert cost (%.2f): measurement is vacuous", offPerTuple)
	}
	// The residual arena-arm cost is fragment skeletons and value strings,
	// which legitimately live on the heap; the tuple/cell/vnode machinery
	// itself is zero-alloc (pinned exactly by TestArenaSteadyStateZeroAllocs).
	if onPerTuple >= offPerTuple/2 {
		t.Fatalf("arena per-insert cost %.2f not well below heap %.2f", onPerTuple, offPerTuple)
	}
	if onBig >= offBig {
		t.Fatalf("arena round (%.0f allocs) not cheaper than heap round (%.0f)", onBig, offBig)
	}
}

// deltaNavInput builds a reusable DeltaInput that inserts the given number
// of new books under the root of a fixed 8-book bib, one region per insert
// (PropagateDelta treats its input as read-only, so runs may share one).
func deltaNavInput(t testing.TB, inserts int) *DeltaInput {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, `<book year="1994"><title>T%d</title></book>`, i)
	}
	sb.WriteString("</bib>")
	s := xmldoc.NewStore()
	root, err := s.Load("bib.xml", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	elems := xmldoc.ChildElems(s, root, "book")
	d := xmldoc.NewDraft(s)
	regions := make([]*Region, 0, inserts)
	anchor := elems[len(elems)-1]
	for i := 0; i < inserts; i++ {
		k := flexkey.SiblingBetween(root, anchor, "")
		anchor = k
		if err := d.InsertFragmentWithKey(k, xmldoc.Elem("book",
			xmldoc.Elem("title", xmldoc.TextF(fmt.Sprintf("NEW%d", i))))); err != nil {
			t.Fatal(err)
		}
		regions = append(regions, &Region{Mode: RegionInsert, Anchor: k, Parent: root})
	}
	return &DeltaInput{
		Base: s, New: d,
		Regions: map[string][]*Region{"bib.xml": regions},
	}
}

// BenchmarkTupleConstructors measures the raw constructor round (64 extends
// plus vnode/int32/spanMap traffic) with allocs/op reported.
func BenchmarkTupleConstructors(b *testing.B) {
	a := &Alloc{}
	tupleRound(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tupleRound(a)
	}
}

// BenchmarkDeltaNav measures one insert-region propagation through the
// fixture plan, arena-backed versus heap.
func BenchmarkDeltaNav(b *testing.B) {
	plan := newDeltaFixture(b, "").plan
	in := deltaNavInput(b, 16)
	for _, arm := range []struct {
		name  string
		arena bool
	}{{"alloc=arena", true}, {"alloc=heap", false}} {
		b.Run(arm.name, func(b *testing.B) {
			c := NewStateCache()
			var a *Alloc
			if arm.arena {
				a = &Alloc{}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PropagateDelta(plan, in, obs.Span{}, nil, c, a, nil); err != nil {
					b.Fatal(err)
				}
				a.Release()
			}
		})
	}
}
