package core

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"xqview/internal/arena"
	"xqview/internal/faultinject"
	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// TestCrashConsistencyArenaSweep is a seeded fault sweep aimed at the round
// arena: the arena is released wholesale right after a rollback restores the
// pre-images, so any slice the rollback failed to promote to the heap shows
// up as poisoned data (poison mode is on under -race) in the byte-identical
// pre-round comparison, and every retried round must land identical to a
// fault-free twin.
func TestCrashConsistencyArenaSweep(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(0xA2E7A5EED))
	bib, prices := randomBib(rng, 6), randomPrices(rng, 5)
	a := newCrashArm(t, bib, prices) // faulted
	b := newCrashArm(t, bib, prices) // fault-free twin
	rounds := 25
	if testing.Short() {
		rounds = 8
	}
	for seed := 0; seed < rounds; seed++ {
		prims := randomBatch(t, rng, a.store, 1+rng.Intn(3))
		if !conflictFree(prims) {
			continue
		}
		primsA, primsB := deepClonePrims(prims), deepClonePrims(prims)
		pre := a.snapshot()
		site, mode, hit, err := faultinject.ArmFromSeed(int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		_, merr := MaintainAll(a.set, primsA, 0, crashOpts)
		fired := faultinject.Fired(site)
		faultinject.Reset()
		if fired {
			if merr == nil {
				t.Fatalf("seed %d: %s fired but round succeeded", seed, site)
			}
			if d := pre.diff(a.snapshot()); d != "" {
				t.Fatalf("seed %d (%s %s hit=%d): arena rollback not byte-identical: %s", seed, site, mode, hit, d)
			}
			if _, err := MaintainAll(a.set, primsA, 0, crashOpts); err != nil {
				t.Fatalf("seed %d retry: %v", seed, err)
			}
		} else if merr != nil {
			t.Fatalf("seed %d: site %s never fired but round failed: %v", seed, site, merr)
		}
		if _, err := MaintainAll(b.set, primsB, 0, crashOpts); err != nil {
			t.Fatalf("seed %d twin: %v", seed, err)
		}
		if d := a.snapshot().diff(b.snapshot()); d != "" {
			t.Fatalf("seed %d: faulted arm diverged from twin: %s", seed, d)
		}
	}
}

// heapAllocBytes reads the runtime's cumulative heap-allocation byte counter.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestRoundBytesIndependentOfCollector pins who owns round memory: each
// view keeps its round arena and copy-on-write tracker for its lifetime, so
// a warm round allocates the same bytes whether or not the collector ran
// just before it. Memory recycled through a sync.Pool fails this: two
// collections empty the pool, and the next round re-creates every arena
// chunk it touches.
func TestRoundBytesIndependentOfCollector(t *testing.T) {
	if arena.Poisoning() {
		t.Skip("poison mode drops arena chunks at every reset, so rounds re-allocate by design")
	}
	s := bibStore(t)
	var views []*View
	for _, q := range crashQueries[1:] {
		v, err := NewView(s, q)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	set := mustSet(t, s, views)
	priRoot, _ := s.RootElem("prices.xml")
	price := xmldoc.TextChildren(s, xmldoc.ChildElems(s, xmldoc.ChildElems(s, priRoot, "entry")[0], "price")[0])[0]
	n := 0
	// round replaces the first price with one of two values in turn, so
	// every round does the same work; it returns the bytes the round
	// allocated.
	round := func(collect bool) uint64 {
		n++
		prims := []*update.Primitive{{Kind: update.Replace, Doc: "prices.xml", Key: price,
			NewValue: []string{"39.95", "41.50"}[n%2]}}
		if collect {
			runtime.GC()
			runtime.GC()
			// Let the runtime's own post-collection cleanups, which
			// allocate, finish before the measured window.
			time.Sleep(time.Millisecond)
		}
		before := heapAllocBytes()
		if _, err := MaintainAll(set, prims, 0, Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		return heapAllocBytes() - before
	}
	for i := 0; i < 4; i++ {
		round(false)
	}
	var plain, collected uint64
	for i := 0; i < 4; i++ {
		plain += round(false)
		collected += round(true)
	}
	t.Logf("bytes over 4 rounds: %d without collections, %d after two collections each", plain, collected)
	if float64(collected) > 1.1*float64(plain) {
		t.Fatalf("rounds after two collections allocate %d bytes, %.2fx the %d of the same rounds without them",
			collected, float64(collected)/float64(plain), plain)
	}
}
