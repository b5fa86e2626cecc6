package core

import (
	"xqview/internal/faultinject"
	"xqview/internal/xat"
)

// fpRefresh guards the source-refresh phase: it fires per primitive, so a
// hit count > 1 fails the round with its draft partly written.
var fpRefresh = faultinject.Register("core.refresh")

// The round transaction: every fallible step of a round stages its outcome
// in the round's slots — store changes in the round's draft, per-view
// extents as copy-on-write candidates under the view's deepunion.Txn, cache
// commits as PreparedCommit — and install makes everything live together
// only after the whole round succeeded, while restore drops the staging,
// leaving every structure byte-identical to the pre-round state. The round
// memory itself is the views': each view owns its state cache, round arena
// and tracker, so install and restore walk the views and the shared groups
// directly, and resetting a view that did not run is a no-op. A state cache
// needs no restore: it changes only at Install, and its staging dies at the
// next round's begin.

// viewStage is one view's staged outcome within a round transaction. The
// worker maintaining view i is the only writer of slot i (the same
// index-addressed ownership as the out slots), and the slots are only read
// after the pool joins. A slot is filled only after every fallible per-view
// step succeeded.
type viewStage struct {
	staged bool
	extent []*xat.VNode
	prep   *xat.PreparedCommit
}

// install makes the round live: the draft's delta is installed into the
// store, staged extents become the views' extents, and prepared cache
// commits are swapped in (shared partitions first; they are disjoint from
// the views', so order is irrelevant). Nothing here can fail — every
// fallible step already ran.
func (r *round) install() {
	r.set.Store.Install(r.draft.Delta())
	for gi, g := range r.set.dag.Groups {
		if p := r.sharedPreps[gi]; p != nil {
			g.Cache.Install(p)
		}
	}
	for i, v := range r.set.Views {
		if st := &r.stages[i]; st.staged {
			v.Extent = st.extent
			v.cache.Install(st.prep)
		}
		v.tx.Release()
		// Release the round arena only after the staged state is installed:
		// in poison builds the release scrubs the memory, so any surviving
		// alias would be caught by the differential tests.
		v.alloc.Release()
	}
}

// restore undoes everything the round staged: the draft is dropped (the
// store was never written) and candidate extent copies are abandoned with
// each view's deepunion.Txn (the live extent was never written either).
// Staged extents and prepared commits are simply dropped; held cache entries
// stay, since they describe the pre-round store, which is still current.
// Returns draft records discarded plus copies abandoned.
func (r *round) restore() int {
	restored := 0
	if r.draft != nil {
		restored = r.draft.Delta().Len()
		r.draft = nil
	}
	for _, v := range r.set.Views {
		restored += v.tx.Rollback()
		v.alloc.Release()
	}
	return restored
}

// FaultSites returns every registered fault point of the maintenance
// pipeline (sorted), for tests that sweep all of them.
func FaultSites() []string { return faultinject.Sites() }
