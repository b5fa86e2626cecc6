package core

import (
	"math/rand"
	"testing"

	"xqview/internal/faultinject"
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
		_, merr := MaintainAll(a.store, a.views, primsA, 0, crashOpts)
		fired := faultinject.Fired(site)
		faultinject.Reset()
		if fired {
			if merr == nil {
				t.Fatalf("seed %d: %s fired but round succeeded", seed, site)
			}
			if d := pre.diff(a.snapshot()); d != "" {
				t.Fatalf("seed %d (%s %s hit=%d): arena rollback not byte-identical: %s", seed, site, mode, hit, d)
			}
			if _, err := MaintainAll(a.store, a.views, primsA, 0, crashOpts); err != nil {
				t.Fatalf("seed %d retry: %v", seed, err)
			}
		} else if merr != nil {
			t.Fatalf("seed %d: site %s never fired but round failed: %v", seed, site, merr)
		}
		if _, err := MaintainAll(b.store, b.views, primsB, 0, crashOpts); err != nil {
			t.Fatalf("seed %d twin: %v", seed, err)
		}
		if d := a.snapshot().diff(b.snapshot()); d != "" {
			t.Fatalf("seed %d: faulted arm diverged from twin: %s", seed, d)
		}
	}
}
