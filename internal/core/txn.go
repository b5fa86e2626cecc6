package core

import (
	"xqview/internal/deepunion"
	"xqview/internal/faultinject"
	"xqview/internal/obs"
	"xqview/internal/xat"
)

// fpRefresh guards the source-refresh phase: it fires per primitive, so a
// hit count > 1 fails the round with its draft partly written.
var fpRefresh = faultinject.Register("core.refresh")

// Rollback metric series: how often rounds abort and how much staged state
// the transaction discarded.
var (
	cRollbacks        = obs.Default.CounterOf("xqview_round_rollbacks_total", "maintenance rounds rolled back")
	cRollbackRestored = obs.Default.CounterOf("xqview_rollback_restored_total", "draft node and root records discarded plus candidate extent copies abandoned by round rollbacks")
)

// The round transaction: every fallible step of a round stages its outcome
// in the round's slots — store changes in the round's draft, per-view
// extents under a deepunion.Txn, cache commits as PreparedCommit — and
// install makes everything live together only after the whole round
// succeeded, while restore drops the staging, leaving every structure
// byte-identical to the pre-round state.

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

// install makes the round live: the draft's delta is installed into the
// store, staged extents become the views' extents, and prepared cache
// commits are swapped in (shared partitions first; they are disjoint from
// the views', so order is irrelevant). Nothing here can fail — every
// fallible step already ran.
func (r *round) install() {
	r.store.Install(r.draft.Delta())
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

// restore undoes everything the round staged: the draft is dropped (the
// store was never written), candidate extent copies are abandoned with each
// view's deepunion.Txn (the live extent was never written either), and
// cache staging is rolled back (held cache entries stay — they describe the
// pre-round store, which is still current). Staged extents and prepared
// commits are simply dropped. Returns draft records discarded plus copies
// abandoned.
func (r *round) restore() int {
	restored := 0
	if r.draft != nil {
		restored = r.draft.Delta().Len()
		r.draft = nil
	}
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
