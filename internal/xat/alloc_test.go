package xat

import (
	"fmt"
	"math/rand"
	"testing"

	"xqview/internal/arena"
	"xqview/internal/obs"
	"xqview/internal/xmldoc"
)

// poolUse reports a pool's retained elements and its round use so far.
func poolUse[T any](p *arena.Pool[T]) [2]int {
	elems, _ := p.Footprint()
	return [2]int{p.Retained(), elems}
}

// allocUse lists poolUse for every pool of the bundle.
func allocUse(a *Alloc) [][2]int {
	return [][2]int{poolUse(&a.tuples), poolUse(&a.cells), poolUse(&a.items),
		poolUse(&a.refs), poolUse(&a.vnodes), poolUse(&a.vrefs), poolUse(&a.ints),
		poolUse(&a.skels), poolUse(&a.sattrs), poolUse(&a.strs)}
}

// TestArenaRetentionTracksUse runs many small views, each on its own arena,
// through random rounds and requires every pool to retain at most twice the
// largest round's Footprint: a view that handles small deltas keeps small
// chunks, however many views there are.
func TestArenaRetentionTracksUse(t *testing.T) {
	if arena.Poisoning() {
		t.Skip("poison mode drops chunks at Release, so nothing is retained")
	}
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", oracleBib); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", oraclePrices); err != nil {
		t.Fatal(err)
	}
	type view struct {
		name    string
		plan    *Plan
		cache   *StateCache
		alloc   *Alloc
		largest [10]int
	}
	var views []*view
	for name, build := range oraclePlans {
		for i := 0; i < 4; i++ {
			views = append(views, &view{name: fmt.Sprintf("%s#%d", name, i),
				plan: buildPlan(t, build()), cache: NewStateCache(), alloc: &Alloc{}})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 40; round++ {
		d := xmldoc.NewDraft(s)
		doc, r := oracleRegion(t, rng, s, d)
		regions := map[string][]*Region{doc: {r}}
		in := &DeltaInput{Base: s, New: d, Regions: regions}
		pcs := make([]*PreparedCommit, len(views))
		for i, v := range views {
			if _, err := PropagateDelta(v.plan, in, obs.Span{}, nil, v.cache, v.alloc, nil); err != nil {
				t.Fatal(err)
			}
			pc, err := v.cache.Prepare(regions)
			if err != nil {
				t.Fatal(err)
			}
			pcs[i] = pc
		}
		s.Snap = d.Freeze()
		for i, v := range views {
			v.cache.Install(pcs[i])
			for p, u := range allocUse(v.alloc) {
				v.largest[p] = max(v.largest[p], u[1])
			}
			v.alloc.Release()
			for p, u := range allocUse(v.alloc) {
				if u[0] > 2*v.largest[p] {
					t.Fatalf("round %d, view %s, pool %d: retains %d elements, largest round used %d",
						round, v.name, p, u[0], v.largest[p])
				}
			}
		}
	}
}
