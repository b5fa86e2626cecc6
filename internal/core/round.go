package core

import (
	"fmt"
	"time"

	"xqview/internal/deepunion"
	"xqview/internal/journal"
	"xqview/internal/obs"
	"xqview/internal/sapt"
	"xqview/internal/update"
	"xqview/internal/validate"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// The maintenance round as its phases, in pipeline order:
//
//	compact → validate → source refresh → shared prefixes
//	→ per-view propagate+apply (pool) → snapshot build → commit
//
// and, on any failure, rollback. Each phase is one method of round. A phase
// starts at the clock reading that ended the previous one and ends with one
// reading of its own (lap); that duration is the phase's span, its
// RoundSample field and, where it has one, its MaintStats field, so the
// phase times partition the round exactly.

// round is one MaintainAll round: its inputs, what each phase hands the
// next, the round transaction's slots, and one wall-time slot per phase.
type round struct {
	store *xmldoc.Store
	views []*View
	opt   Options
	jrec  *journal.RoundRec
	eval  time.Duration // script parse+evaluate ahead of the round
	// telemetry is obs.Enabled() at round start; the sample diffs the heap
	// counter against its value then, and the cache counters against theirs
	// once the round's shared DAG is known.
	telemetry   bool
	cacheBefore xat.CacheStats
	heapBefore  uint64

	// root is the MaintainAll span; the single-threaded phases' spans are
	// its children, opened and closed on the round's clock.
	root obs.Span
	// start is the round's first clock reading; clock is the latest phase
	// boundary, the end of the phase that just finished.
	start, clock time.Time
	// One wall-time slot per phase. A phase that did not run (a failure
	// came first, or there was nothing to do) keeps zero.
	compactTime, validateTime, sharedTime, poolTime    time.Duration
	sourceTime, snapshotTime, commitTime, rollbackTime time.Duration

	orig  []*update.Primitive // the batch as submitted (journaled as such)
	prims []*update.Primitive // the batch after compaction
	batch *validate.Batch
	skip  []bool // per view: the batch provably cannot touch it
	// draft is the store's next version: source refresh writes it,
	// propagation reads it, the snapshot layers its delta and commit
	// installs it. Rollback drops it.
	draft *xmldoc.Draft
	din   *xat.DeltaInput
	dag   *xat.SharedDAG // the shared sub-plan DAG the round propagates
	seeds [][]xat.Seed   // per view: shared-prefix results to serve; nil without groups
	out   []*MaintStats
	cand  *Version // the next MVCC version; nil without a registry
	// Shared prefixes propagated once, and the member subscriptions their
	// results served; fanout - groups is the per-view work sharing saved.
	sharedGroups, sharedFanout int

	// The round transaction (txn.go): one slot per view, and one per shared
	// group of the round's DAG (nil without groups).
	stages []viewStage
	shared []sharedStage

	// Arena occupancy, priced just before commit releases the arenas.
	arenaBytes  int64
	arenaChunks int
	// restored is what rollback discarded (restore's count).
	restored int
}

// maintainAll runs one round: its phases in pipeline order.
func maintainAll(store *xmldoc.Store, views []*View, prims []*update.Primitive, eval time.Duration, opt Options, jrec *journal.RoundRec) (out []*MaintStats, err error) {
	r, err := newRound(store, views, prims, eval, opt, jrec)
	if err != nil {
		return nil, err
	}
	// The single place the round aborts: any error return, and any panic in
	// the single-threaded phases (the pool already recovered task panics),
	// drops the draft and rolls the extents and the cache staging back.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: maintenance panicked: %v", p)
		}
		if err != nil {
			r.rollback()
			out = nil
		}
		r.root.EndAt(r.clock)
	}()
	r.compact()
	if err = r.validate(); err != nil {
		return nil, err
	}
	if err = r.refreshSources(); err != nil {
		return nil, err
	}
	if err = r.propagateShared(); err != nil {
		return nil, err
	}
	if err = r.maintainViews(); err != nil {
		return nil, err
	}
	if err = r.buildSnapshot(); err != nil {
		return nil, err
	}
	r.commit()
	return r.report(), nil
}

// newRound checks that every view reads this store, then opens the round:
// telemetry baseline, round transaction, and the first clock reading, which
// starts both the MaintainAll span and the compact phase.
func newRound(store *xmldoc.Store, views []*View, prims []*update.Primitive, eval time.Duration, opt Options, jrec *journal.RoundRec) (*round, error) {
	for i, v := range views {
		if v.Store != store {
			return nil, fmt.Errorf("core: view %q is defined over a different store", v.displayName(i))
		}
	}
	r := &round{store: store, views: views, opt: opt, jrec: jrec, eval: eval,
		stages: make([]viewStage, len(views)), orig: prims, prims: prims, telemetry: obs.Enabled()}
	if r.telemetry {
		r.heapBefore = heapAllocObjects()
	}
	r.start = time.Now()
	r.clock = r.start
	r.root = opt.Tracer.StartSpanAt("MaintainAll", r.start).Arg("views", len(views)).Arg("prims", len(prims))
	if eval > 0 {
		r.root.Before("ParseEvaluate", eval)
	}
	return r, nil
}

// span opens the span of the phase starting at the current boundary.
func (r *round) span(name string) obs.Span { return r.root.ChildAt(name, r.clock) }

// lap ends the running phase with one clock reading: the phase's slot gets
// the time since the previous boundary, its span (if any) closes there, and
// the reading becomes the next phase's start.
func (r *round) lap(slot *time.Duration, sp obs.Span) {
	now := time.Now()
	*slot = now.Sub(r.clock)
	r.clock = now
	sp.EndAt(now)
}

// compact normalizes the batch before validation (update.CompactBatch).
// CompactBatch never mutates its input, so the journal snapshots the
// original stream and verdict indexes are remapped back to it: explain
// numbers primitives identically either way.
func (r *round) compact() {
	sp := r.span("Compact")
	defer r.lap(&r.compactTime, sp)
	compacted, keptIdx, decisions := update.CompactBatch(r.orig)
	if len(decisions) > 0 {
		r.prims = compacted
		r.jrec.SetVerdictMap(keptIdx)
		for _, d := range decisions {
			r.jrec.Compaction(d.Rule, d.Kept, d.Dropped, d.Detail)
		}
	}
	sp.Arg("in", len(r.orig)).Arg("out", len(r.prims))
}

// validate classifies the batch once against the union of the views' SAPTs,
// so rewrite decisions are the same for every view, and assigns insert
// keys. It then settles relevance per view, once for the round: a view
// every primitive is irrelevant to (its own SAPT proves the update regions
// cannot reach its extent: query-update independence) skips
// Propagate+Apply, and shared prefixes only run for subscribers that do not.
func (r *round) validate() error {
	sp := r.span("Validate")
	defer r.lap(&r.validateTime, sp)
	trees := make([]*sapt.Tree, len(r.views))
	for i, v := range r.views {
		trees[i] = v.SAPT
	}
	batch, err := validate.ValidateRec(r.store, sapt.Merge(trees...), r.prims, r.jrec)
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	r.batch = batch
	if r.jrec.Active() {
		// Snapshot the stream after validation so pass-class inserts carry
		// their assigned FlexKeys (explain links delta tuples back to these
		// keys). Compaction survivors are the same pointers, so the original
		// stream reflects their keys too.
		r.jrec.SetPrims(journal.EncodePrims(r.orig))
	}
	r.skip = make([]bool, len(r.views))
	prims := batch.Prims()
	for i, v := range r.views {
		r.skip[i] = true
		for _, p := range prims {
			if v.SAPT.Classify(r.store, p) != sapt.Irrelevant {
				r.skip[i] = false
				break
			}
		}
	}
	sp.Arg("total", batch.Stats.Total).Arg("irrelevant", batch.Stats.Irrelevant).
		Arg("rewritten", batch.Stats.Rewritten)
	return nil
}

// propagateShared assembles the propagation input and propagates each shared
// sub-plan prefix once, ahead of the per-view pool. The caller's DAG is
// reused when it was built over exactly these plans (warm shared
// partitions); otherwise the round groups the plans itself. Without groups
// (no two views overlap) the phase has no span.
func (r *round) propagateShared() error {
	var sp obs.Span
	defer func() { r.lap(&r.sharedTime, sp) }()
	r.din = deltaInput(r.store, r.draft, r.batch)
	plans := plansOf(r.views)
	dag := r.opt.SharedDAG
	if !dag.Matches(plans) {
		dag = xat.BuildSharedDAG(plans)
	}
	// Nothing has touched a cache yet: the baseline covers every cache the
	// round can touch, the views' and the DAG's partitions.
	r.dag = dag
	if r.telemetry {
		r.cacheBefore = sumCacheStats(r.views, dag)
	}
	if len(dag.Groups) == 0 {
		return nil
	}
	sp = r.span("SharedPrefixes")
	results := make([]*xat.SharedResult, len(dag.Groups))
	r.shared = make([]sharedStage, len(dag.Groups))
	err := forEachIndex(len(dag.Groups), r.opt, func(gi int) (err error) {
		results[gi], err = r.propagateGroup(dag.Groups[gi], gi, sp)
		return err
	})
	if err != nil {
		return err
	}
	// seeds[i] carries the shared results into view i's propagation. A view
	// skipped for relevance gets none, even when its prefix ran for others.
	r.seeds = make([][]xat.Seed, len(r.views))
	for gi, g := range dag.Groups {
		if results[gi] == nil {
			continue
		}
		r.sharedGroups++
		for _, m := range g.Members {
			if !r.skip[m.View] {
				r.seeds[m.View] = append(r.seeds[m.View], xat.Seed{Ops: m.Ops, Result: results[gi]})
				r.sharedFanout++
			}
		}
	}
	sp.Arg("groups", r.sharedGroups).Arg("fanout", r.sharedFanout)
	return nil
}

// propagateGroup is one task of the shared phase: group gi's prefix runs
// only when at least one subscriber is live, so a view skipped for
// relevance never forces shared work on its behalf alone. A nil result
// means the prefix did not run.
func (r *round) propagateGroup(g *xat.SharedGroup, gi int, sp obs.Span) (res *xat.SharedResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("shared prefix %d: panic: %v", gi, p)
		}
	}()
	// Register the cache partition before anything fallible runs so
	// rollback clears its staging even if this task dies mid-way.
	st := &r.shared[gi]
	st.cache = g.Cache
	live := false
	for _, m := range g.Members {
		live = live || !r.skip[m.View]
	}
	if !live {
		// The prefix must not run, but its cached tables still go stale if
		// the round touches its documents: stage an eviction-only commit.
		if xat.RegionsTouch(r.din.Regions, g.Docs) {
			if st.prep, err = g.Cache.PrepareEvictTouched(r.din.Regions); err != nil {
				return nil, fmt.Errorf("shared prefix %d: %w", gi, err)
			}
		}
		return nil, nil
	}
	if res, err = g.Propagate(r.din, sp, r.jrec.Active()); err != nil {
		return nil, fmt.Errorf("shared prefix %d: %w", gi, err)
	}
	if st.prep, err = g.Cache.Prepare(r.din.Regions); err != nil {
		return nil, fmt.Errorf("shared prefix %d: %w", gi, err)
	}
	return res, nil
}

// maintainViews runs Propagate+Apply for every view over the bounded worker
// pool. Every view reads the same immutable pre- and post-update states (the
// store and the draft are read-only for the whole phase), while each
// worker writes only its own view's stage and stats slot, so results are
// independent of the pool size. The phase has no span of its own: its
// wall time is the stretch the view tracks cover.
func (r *round) maintainViews() error {
	defer r.lap(&r.poolTime, obs.Span{})
	r.out = make([]*MaintStats, len(r.views))
	return forEachIndex(len(r.views), r.opt, r.maintainView)
}

// maintainView is one task of the pool: view i's propagation and apply on
// its own trace track, staged in its slot of the round transaction.
func (r *round) maintainView(i int) (err error) {
	v := r.views[i]
	// A panic while maintaining this view must not poison the others:
	// recover it into an error naming the view (the pool's own recovery
	// would only know the task index), which aborts the round.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("maintain view %q: panic: %v", v.displayName(i), p)
		}
	}()
	vtrack := r.opt.Tracer.StartSpan(v.displayName(i))
	defer vtrack.End()
	ms := &MaintStats{}
	r.out[i] = ms
	// Each worker records into its own, pre-allocated lineage slot.
	vrec := r.jrec.View(i)
	if r.skip[i] {
		ms.Skipped = 1
		vtrack.Arg("skipped", "no region overlap")
		vrec.Skip("no region overlap")
		return nil
	}
	cache := v.stateCache()
	// The round arena is registered in the stage slot before the first
	// tuple is allocated, so commit and rollback both release it even if
	// this task dies mid-propagate.
	st := &r.stages[i]
	st.alloc = xat.NewAlloc()
	// Seeds stand in for the subtrees a shared prefix already propagated;
	// their lineage replays under this view's operator ids.
	var seeds []xat.Seed
	if r.seeds != nil {
		seeds = r.seeds[i]
	}
	ms.SharedPrefixes = len(seeds)

	t0 := time.Now()
	pspan := vtrack.ChildAt("Propagate", t0)
	roots, err := xat.PropagateDeltaShared(v.Plan, r.din, pspan, vrec, cache, st.alloc, seeds)
	t1 := time.Now()
	if err != nil {
		pspan.EndAt(t1)
		return fmt.Errorf("propagate view %q: %w", v.displayName(i), err)
	}
	ms.Propagate = t1.Sub(t0)
	ms.DeltaRoots = len(roots)
	pspan.Arg("delta_roots", len(roots)).EndAt(t1)

	// Apply is copy-on-write: the live extent is never written, and tx and
	// cache are registered before the first node is touched, so a mid-apply
	// death leaves the extent intact and rollback abandons the copies.
	aspan := vtrack.ChildAt("Apply", t1)
	st.tx, st.cache = deepunion.NewTxn(), cache
	staged, err := deepunion.ApplyTx(append([]*xat.VNode(nil), v.Extent...), roots, &ms.Union, vrec, st.tx)
	t2 := time.Now()
	if err != nil {
		aspan.EndAt(t2)
		return fmt.Errorf("apply view %q: %w", v.displayName(i), err)
	}
	ms.Apply = t2.Sub(t1)
	aspan.Arg("merged", ms.Union.Merged).Arg("inserted", ms.Union.Inserted).
		Arg("removed", ms.Union.Removed).EndAt(t2)
	// Prepare (don't install) the cache fold: it becomes visible only when
	// the whole round commits.
	prep, err := cache.Prepare(r.din.Regions)
	if err != nil {
		return fmt.Errorf("cache commit view %q: %w", v.displayName(i), err)
	}
	st.extent, st.prep, st.staged = staged, prep, true
	return nil
}

// refreshSources applies every accepted primitive of the batch, relevant or
// not, to the round's draft, single-threaded: the store's next version,
// built once. The store itself is not written until commit.
func (r *round) refreshSources() error {
	sp := r.span("SourceRefresh")
	defer r.lap(&r.sourceTime, sp)
	r.draft = xmldoc.NewDraft(r.store)
	for _, p := range r.batch.Refresh {
		if err := fpRefresh.Fire(); err != nil {
			return fmt.Errorf("source refresh: %w", err)
		}
		if err := update.ApplyToStore(r.draft, p); err != nil {
			return fmt.Errorf("source refresh: %w", err)
		}
	}
	return nil
}

// buildSnapshot assembles the next MVCC version: the previous version's
// store snapshot extended with the draft's delta. Both fault points fire
// before commit, so an abort here leaves the old version published. Without
// an epoch registry there is no such phase.
func (r *round) buildSnapshot() (err error) {
	if r.opt.Snapshots == nil {
		return nil
	}
	sp := r.span("SnapshotBuild")
	defer r.lap(&r.snapshotTime, sp)
	if r.cand, err = buildCandidate(r.opt.Snapshots, r.store, r.draft.Delta(), r.views, r.stages); err != nil {
		return err
	}
	if err = fpSnapSwap.Fire(); err != nil {
		return fmt.Errorf("snapshot swap: %w", err)
	}
	sp.Arg("seq", int(r.cand.Seq))
	return nil
}

// commit installs every staged outcome together and publishes the candidate
// version: the pointer swap after which readers see the post-round state.
// Nothing here can fail; every fallible step ran above.
func (r *round) commit() {
	defer r.lap(&r.commitTime, obs.Span{})
	if r.telemetry {
		// Priced before commit releases (and in poison builds scrubs) the
		// round arenas.
		for i := range r.stages {
			b, c := r.stages[i].alloc.Footprint()
			r.arenaBytes += b
			r.arenaChunks += c
		}
	}
	r.install()
	if r.cand != nil {
		r.opt.Snapshots.Publish(r.cand)
	}
}

// rollback restores the pre-round state after a failure and records the
// aborted round: the phases that ran, the failing one up to the failure,
// and the rollback itself.
func (r *round) rollback() {
	sp := r.span("Rollback")
	r.restored = r.restore()
	sp.Arg("restored", r.restored)
	r.lap(&r.rollbackTime, sp)
	r.record(true)
}

// report completes a committed round's per-view stats from the phase slots
// and records the round's sample.
func (r *round) report() []*MaintStats {
	total := r.clock.Sub(r.start)
	for _, ms := range r.out {
		ms.Validate, ms.Source, ms.Total = r.validateTime, r.sourceTime, total
		ms.Validation = r.batch.Stats
	}
	r.record(false)
	return r.out
}

// deltaInput assembles the propagate-phase input: the pre-update store, the
// refreshed draft as the post-update reader, and one region per primitive
// propagation reads. Both readers are read-only from here on, so every view
// propagating the input concurrently sees the same immutable states.
func deltaInput(store *xmldoc.Store, draft *xmldoc.Draft, batch *validate.Batch) *xat.DeltaInput {
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
	return &xat.DeltaInput{Base: store, New: draft, Regions: regions}
}
