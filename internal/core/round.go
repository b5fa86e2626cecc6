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
	set  *ViewSet
	opt  Options
	jrec *journal.RoundRec
	eval time.Duration // script parse+evaluate ahead of the round
	// telemetry is obs.Enabled() at round start; the sample diffs the heap
	// and cache counters against their values then.
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
	seeds [][]xat.Seed // per view: shared-prefix results to serve; nil without groups
	out   []*MaintStats
	cand  *Version // the next MVCC version; nil without a registry
	// Shared prefixes propagated once, and the member subscriptions their
	// results served; fanout - groups is the per-view work sharing saved.
	sharedGroups, sharedFanout int

	// The round transaction (txn.go): one slot per view, and one prepared
	// cache commit per shared group of the set's DAG (nil without groups;
	// nil for a group whose prefix did not run).
	stages      []viewStage
	sharedPreps []*xat.PreparedCommit

	// Arena occupancy, priced just before commit releases the views' arenas.
	arenaBytes  int64
	arenaChunks int
	// restored is what rollback discarded (restore's count).
	restored int
}

// maintainAll runs one round: its phases in pipeline order.
func maintainAll(set *ViewSet, prims []*update.Primitive, eval time.Duration, opt Options, jrec *journal.RoundRec) (out []*MaintStats, err error) {
	r := newRound(set, prims, eval, opt, jrec)
	// The single place the round aborts: any error return, and any panic in
	// the single-threaded phases (the pool already recovered task panics),
	// drops the draft and the extents' staged copies.
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

// newRound opens the round: telemetry baselines, round transaction, and
// the first clock reading, which starts both the MaintainAll span and the
// compact phase.
func newRound(set *ViewSet, prims []*update.Primitive, eval time.Duration, opt Options, jrec *journal.RoundRec) *round {
	r := &round{set: set, opt: opt, jrec: jrec, eval: eval,
		stages: make([]viewStage, len(set.Views)), orig: prims, prims: prims, telemetry: obs.Enabled()}
	if r.telemetry {
		r.heapBefore = heapAllocObjects()
		r.cacheBefore = set.cacheStats()
	}
	r.start = time.Now()
	r.clock = r.start
	r.root = opt.Tracer.StartSpanAt("MaintainAll", r.start).Arg("views", len(set.Views)).Arg("prims", len(prims))
	if eval > 0 {
		r.root.Before("ParseEvaluate", eval)
	}
	return r
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

// validate classifies the batch once against the set's merged SAPT, so
// rewrite decisions are the same for every view, and assigns insert keys.
// It then settles relevance per view, once for the round: a view every
// primitive is irrelevant to (its own SAPT proves the update regions cannot
// reach its extent: query-update independence) skips Propagate+Apply, and
// shared prefixes only run for subscribers that do not.
func (r *round) validate() error {
	sp := r.span("Validate")
	defer r.lap(&r.validateTime, sp)
	batch, err := validate.ValidateRec(r.set.Store, r.set.merged, r.prims, r.jrec)
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
	r.skip = make([]bool, len(r.set.Views))
	prims := batch.Prims()
	for i, v := range r.set.Views {
		r.skip[i] = true
		for _, p := range prims {
			if v.SAPT.Classify(r.set.Store, p) != sapt.Irrelevant {
				r.skip[i] = false
				break
			}
		}
	}
	sp.Arg("total", batch.Stats.Total).Arg("irrelevant", batch.Stats.Irrelevant).
		Arg("rewritten", batch.Stats.Rewritten)
	return nil
}

// propagateShared assembles the propagation input and propagates each of
// the set's shared sub-plan prefixes once, ahead of the per-view pool.
// Without groups (no two views overlap) the phase has no span.
func (r *round) propagateShared() error {
	var sp obs.Span
	defer func() { r.lap(&r.sharedTime, sp) }()
	r.din = deltaInput(r.set.Store, r.draft, r.batch)
	dag := r.set.dag
	if len(dag.Groups) == 0 {
		return nil
	}
	sp = r.span("SharedPrefixes")
	results := make([]*xat.SharedResult, len(dag.Groups))
	r.sharedPreps = make([]*xat.PreparedCommit, len(dag.Groups))
	err := forEachIndex(len(dag.Groups), r.opt, func(gi int) (err error) {
		results[gi], err = r.propagateGroup(dag.Groups[gi], gi, sp)
		return err
	})
	if err != nil {
		return err
	}
	// seeds[i] carries the shared results into view i's propagation. A view
	// skipped for relevance gets none, even when its prefix ran for others.
	r.seeds = make([][]xat.Seed, len(r.set.Views))
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
// means the prefix did not run; the group's partition then stays as it is,
// since the batch is independent of every plan the prefix belongs to.
func (r *round) propagateGroup(g *xat.SharedGroup, gi int, sp obs.Span) (res *xat.SharedResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("shared prefix %d: panic: %v", gi, p)
		}
	}()
	live := false
	for _, m := range g.Members {
		live = live || !r.skip[m.View]
	}
	if !live {
		return nil, nil
	}
	if res, err = g.Propagate(r.din, sp, r.jrec.Active()); err != nil {
		return nil, fmt.Errorf("shared prefix %d: %w", gi, err)
	}
	if r.sharedPreps[gi], err = g.Cache.Prepare(r.din.Regions); err != nil {
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
	r.out = make([]*MaintStats, len(r.set.Views))
	return forEachIndex(len(r.set.Views), r.opt, r.maintainView)
}

// maintainView is one task of the pool: view i's propagation and apply on
// its own trace track, staged in its slot of the round transaction.
func (r *round) maintainView(i int) (err error) {
	v := r.set.Views[i]
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
	// Seeds stand in for the subtrees a shared prefix already propagated;
	// their lineage replays under this view's operator ids.
	var seeds []xat.Seed
	if r.seeds != nil {
		seeds = r.seeds[i]
	}
	ms.SharedPrefixes = len(seeds)

	t0 := time.Now()
	pspan := vtrack.ChildAt("Propagate", t0)
	roots, err := xat.PropagateDelta(v.Plan, r.din, pspan, vrec, v.cache, v.alloc, seeds)
	t1 := time.Now()
	if err != nil {
		pspan.EndAt(t1)
		return fmt.Errorf("propagate view %q: %w", v.displayName(i), err)
	}
	ms.Propagate = t1.Sub(t0)
	ms.DeltaRoots = len(roots)
	pspan.Arg("delta_roots", len(roots)).EndAt(t1)

	// Apply is copy-on-write: the live extent is never written, so a
	// mid-apply death leaves the extent intact and rollback abandons the
	// view tracker's copies.
	aspan := vtrack.ChildAt("Apply", t1)
	staged, err := deepunion.ApplyTx(append([]*xat.VNode(nil), v.Extent...), roots, &ms.Union, vrec, v.tx)
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
	prep, err := v.cache.Prepare(r.din.Regions)
	if err != nil {
		return fmt.Errorf("cache commit view %q: %w", v.displayName(i), err)
	}
	r.stages[i] = viewStage{staged: true, extent: staged, prep: prep}
	return nil
}

// refreshSources applies every accepted primitive of the batch, relevant or
// not, to the round's draft, single-threaded: the store's next version,
// built once. The store itself is not written until commit.
func (r *round) refreshSources() error {
	sp := r.span("SourceRefresh")
	defer r.lap(&r.sourceTime, sp)
	r.draft = xmldoc.NewDraft(r.set.Store)
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
	if r.cand, err = buildCandidate(r.opt.Snapshots, r.set.Store, r.draft.Delta(), r.set.Views, r.stages); err != nil {
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
		// views' arenas.
		for _, v := range r.set.Views {
			b, c := v.alloc.Footprint()
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
