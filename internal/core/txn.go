package core

import (
	"xqview/internal/deepunion"
	"xqview/internal/faultinject"
	"xqview/internal/obs"
	"xqview/internal/xat"
)

// fpRefresh guards the source-refresh phase: it fires per primitive, so a
// hit count > 1 injects the hardest case — a store already partially
// refreshed when the round dies.
var fpRefresh = faultinject.Register("core.refresh")

// Rollback metric series: how often rounds abort and how much state the
// transaction had to restore.
var (
	cRollbacks        = obs.Default.CounterOf("xqview_round_rollbacks_total", "maintenance rounds rolled back")
	cRollbackRestored = obs.Default.CounterOf("xqview_rollback_restored_total", "store pre-images restored plus candidate extent copies abandoned by round rollbacks")
)

// The round transaction: every fallible step of a round stages its outcome
// in the round's slots — per-view extents under a deepunion.Txn, cache
// commits as PreparedCommit, store mutations under the store's undo log —
// and install makes everything live together only after the whole round
// succeeded, while restore puts every structure back byte-identical to the
// pre-round state.

// viewStage is one view's staged outcome within a round transaction. The
// worker maintaining view i is the only writer of slot i (the same
// index-addressed ownership as the out slots), and the slots are only read
// after the pool joins.
//
// tx and cache are registered before the apply phase runs. Apply is
// copy-on-write, so a worker that dies mid-apply leaves the live extent
// untouched and rollback just abandons the candidate copies; extent/prep
// land only after every fallible per-view step succeeded.
type viewStage struct {
	staged bool
	extent []*xat.VNode
	tx     *deepunion.Txn
	prep   *xat.PreparedCommit
	cache  *xat.StateCache
	// alloc is the view's round arena, registered before propagation starts
	// so commit and rollback both release it wholesale. Everything that
	// outlives the round (extents, promoted cache tables, journal records)
	// was copied out of it by then.
	alloc *xat.Alloc
}

// sharedStage is one shared group's staged outcome within a round
// transaction: its cache partition (registered before the group propagates,
// so a mid-phase death still clears the staging) and the prepared commit to
// install. The worker handling group gi is the only writer of slot gi.
type sharedStage struct {
	cache *xat.StateCache
	prep  *xat.PreparedCommit
}

// install makes the round live: store mutations are kept, staged extents
// become the views' extents, and prepared cache commits are swapped in
// (shared partitions first; they are disjoint from the views', so order is
// irrelevant). Nothing here can fail — every fallible step already ran.
func (r *round) install() {
	r.store.CommitUndo()
	for i := range r.shared {
		st := &r.shared[i]
		st.cache.Install(st.prep)
		r.shared[i] = sharedStage{}
	}
	for i, v := range r.views {
		st := &r.stages[i]
		if st.staged {
			v.Extent = st.extent
			st.cache.Install(st.prep)
		}
		st.tx.Release()
		st.tx = nil
		// Release the round arena only after the staged state is installed:
		// in poison builds the release scrubs the memory, so any surviving
		// alias would be caught by the differential tests.
		st.alloc.Release()
		st.alloc = nil
	}
}

// restore undoes everything the round touched: source-refresh mutations via
// the store undo log, candidate extent copies by abandoning each view's
// deepunion.Txn (the live extent was never written), and cache staging via
// Rollback (held cache entries stay — they describe the pre-round store,
// which this restores). Staged extents and prepared commits are simply
// dropped. Returns store pre-images restored plus copies abandoned.
func (r *round) restore() int {
	restored := r.store.RollbackUndo()
	for i := range r.shared {
		r.shared[i].cache.Rollback()
		r.shared[i] = sharedStage{}
	}
	for i := range r.stages {
		st := &r.stages[i]
		if st.tx != nil {
			restored += st.tx.Rollback()
			st.tx.Release()
		}
		st.cache.Rollback()
		st.alloc.Release()
		r.stages[i] = viewStage{}
	}
	if obs.Enabled() {
		cRollbacks.Inc()
		cRollbackRestored.Add(int64(restored))
	}
	return restored
}

// FaultSites returns every registered fault point of the maintenance
// pipeline (sorted), for tests that sweep all of them.
func FaultSites() []string { return faultinject.Sites() }
