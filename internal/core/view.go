// Package core implements the VPA view-maintenance framework (Sec 1.4.1):
// materialized XQuery views over a source store, maintained through the
// Validate, Propagate and Apply phases, with a full-recomputation baseline
// for comparison and testing.
package core

import (
	"fmt"
	"strings"
	"time"

	"xqview/internal/compile"
	"xqview/internal/deepunion"
	"xqview/internal/journal"
	"xqview/internal/obs"
	"xqview/internal/sapt"
	"xqview/internal/update"
	"xqview/internal/validate"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// View is a materialized XQuery view registered over a source store.
type View struct {
	Query  string
	Plan   *xat.Plan
	Store  *xmldoc.Store
	SAPT   *sapt.Tree
	Extent []*xat.VNode

	// Name identifies the view in traces, logs and maintenance errors.
	// Optional; when empty, a positional "view-<i>" label is used.
	Name string

	// ExecStats accumulates engine statistics across materialization and
	// maintenance runs.
	ExecStats xat.Stats

	// cache is the cross-round propagation state cache. Lazily created;
	// only the worker maintaining this view touches it during a round.
	cache *xat.StateCache
}

// stateCache returns the view's propagation state cache, creating it on
// first use.
func (v *View) stateCache() *xat.StateCache {
	if v.cache == nil {
		v.cache = xat.NewStateCache()
	}
	return v.cache
}

// InvalidateCache drops every base table the view's propagation state cache
// holds. Call it after any out-of-band mutation of the source store (the
// cache only tracks mutations flowing through MaintainAll).
func (v *View) InvalidateCache() {
	if v.cache != nil {
		v.cache.Invalidate()
	}
}

// CacheStats reports the propagation state cache's counters (zero when the
// cache was never used).
func (v *View) CacheStats() xat.CacheStats {
	return v.cache.Stats()
}

// plansOf lists the views' plans in view order, the shape BuildSharedDAG and
// SharedDAG.Matches take.
func plansOf(views []*View) []*xat.Plan {
	plans := make([]*xat.Plan, len(views))
	for i, v := range views {
		plans[i] = v.Plan
	}
	return plans
}

// displayName labels the view for traces and errors: its Name if set, else
// its position in the batch.
func (v *View) displayName(i int) string {
	if v.Name != "" {
		return v.Name
	}
	return fmt.Sprintf("view-%d", i)
}

// MaintStats reports one maintenance run (the Ch 9 breakdown).
type MaintStats struct {
	Validate  time.Duration
	Propagate time.Duration
	Apply     time.Duration
	Source    time.Duration // refreshing the base documents
	Total     time.Duration

	Validation validate.Stats
	Union      deepunion.Stats
	DeltaRoots int

	// Skipped is 1 when the view's Propagate+Apply phases were skipped
	// because the batch's regions cannot touch it; summing over rounds
	// counts skips. A view counts as skipped even when a shared prefix it
	// subscribes to ran for other views this round — the skip describes
	// this view's own work.
	Skipped int

	// SharedPrefixes counts the shared sub-plan results seeded into this
	// view's propagation: subtrees the view did not have to re-propagate
	// itself.
	SharedPrefixes int
}

// Add accumulates o into s: durations and counters sum field by field, and
// the nested Validation/Union stats fold recursively through the same
// generic helper every Stats type in the engine uses, so new counters are
// never silently dropped from aggregation.
func (s *MaintStats) Add(o MaintStats) { obs.AddFields(s, o) }

// NewView compiles the query, derives its SAPT, and materializes the
// initial extent.
func NewView(store *xmldoc.Store, query string) (*View, error) {
	t0 := time.Now()
	plan, err := compile.Compile(query)
	if err != nil {
		return nil, err
	}
	v := &View{Query: query, Plan: plan, Store: store, SAPT: sapt.Build(plan)}
	v.ExecStats.OrderSchema += time.Since(t0) // schema/plan annotation cost
	if err := v.Materialize(); err != nil {
		return nil, err
	}
	return v, nil
}

// Materialize (re)computes the extent from scratch. Any cached propagation
// state is dropped: a from-scratch run implies the prior incremental state
// is no longer trusted.
func (v *View) Materialize() error {
	v.InvalidateCache()
	env := xat.NewEnv(v.Store)
	tbl, err := xat.Execute(v.Plan, env)
	if err != nil {
		return err
	}
	col := v.Plan.Root.InCol
	if col == "" && len(tbl.Cols) > 0 {
		col = tbl.Cols[len(tbl.Cols)-1]
	}
	v.Extent = xat.MaterializeResult(env, tbl, col)
	v.ExecStats.Add(*env.Stats)
	return nil
}

// XML serializes the current extent.
func (v *View) XML() string { return xat.ExtentXML(v.Extent) }

// ApplyScript parses XQuery update statements, evaluates them against the
// store and maintains the view incrementally.
func (v *View) ApplyScript(src string, opts ...Options) (*MaintStats, error) {
	t0 := time.Now()
	prims, err := update.ParseAndEvaluate(v.Store, src)
	if err != nil {
		return nil, err
	}
	return v.maintain(prims, time.Since(t0), opts)
}

// ApplyUpdates runs the full VPA pipeline for a batch of primitives:
// validate (relevancy, sufficiency, rewriting, batching), propagate
// (incremental maintenance plan execution producing delta update trees),
// apply (deep union into the extent), and finally refreshing the source
// documents themselves.
func (v *View) ApplyUpdates(prims []*update.Primitive, opts ...Options) (*MaintStats, error) {
	return v.maintain(prims, 0, opts)
}

func (v *View) maintain(prims []*update.Primitive, eval time.Duration, opts []Options) (*MaintStats, error) {
	all, err := MaintainAll(v.Store, []*View{v}, prims, eval, opts...)
	if err != nil {
		return nil, err
	}
	return all[0], nil
}

// MaintainAll maintains several views over the same store under one batch:
// the batch is validated once against the union of the views' SAPTs (so
// rewrite decisions are consistent for everyone), each view's incremental
// maintenance plan propagates it and refreshes its extent, and the source
// documents are updated once at the end.
//
// The per-view Propagate+Apply loop fans out over a bounded worker pool
// (Options.Parallelism, default GOMAXPROCS): every view reads the same
// immutable pre-update state — the store is read-only for the whole phase
// and the delta input is frozen after validation — while each worker writes
// only its own view's extent and stats slot, so result ordering and content
// are independent of the pool size. Source documents are refreshed
// single-threaded afterwards.
//
// The round is transactional: every view's new extent, cache commit and the
// source refresh are staged in a round transaction and installed together
// only after the whole round succeeded. On any error — or a panic in a view
// task, which the pool recovers into a named error without disturbing
// sibling workers — the round is rolled back: view extents, source
// documents and cached propagation state are restored byte-identical to the
// pre-round state, the journal records an aborted round, and the error is
// returned. A failed batch can simply be retried.
//
// eval is the time the caller spent producing prims from an update script
// (update.ParseAndEvaluate); zero when the primitives did not come from one.
// It is work done for the round but ahead of it: the round reports it as a
// ParseEvaluate span preceding its own and as RoundSample.EvalNS, and keeps
// it out of MaintStats.Total.
func MaintainAll(store *xmldoc.Store, views []*View, prims []*update.Primitive, eval time.Duration, opts ...Options) ([]*MaintStats, error) {
	opt := getOpts(opts)
	// Provenance journaling: MaintainAll owns the round lifecycle — it
	// stamps the round ID at Begin and commits the round (success or
	// rolled-back failure) into the Default journal's retention ring. All
	// downstream recording threads through the nil-safe RoundRec/ViewRec
	// handles, so with the gate off the pipeline carries a nil pointer and
	// nothing else.
	var jrec *journal.RoundRec
	if journal.Enabled() {
		names := make([]string, len(views))
		for i, v := range views {
			names[i] = v.displayName(i)
		}
		jrec = journal.Default.Begin(names, len(prims))
	}
	out, err := maintainAll(store, views, prims, eval, opt, jrec)
	if err != nil {
		// The round transaction restored all pre-round state (including the
		// caches, whose entries still describe the restored store), so the
		// journal records the failure as aborted-and-rolled-back.
		jrec.Abort(err)
		return nil, err
	}
	jrec.Commit(nil)
	return out, err
}

// cViewsSkipped counts views whose Propagate+Apply was pruned by the
// relevance filter.
var cViewsSkipped = obs.Default.CounterOf("xqview_views_skipped_total", "views skipped by the region-relevance filter")

// viewDisjoint reports whether every primitive of the validated batch is
// irrelevant to the view: its SAPT proves the update regions cannot affect
// the view's extent (query-update independence), so Propagate+Apply can be
// skipped outright. Classify only reads the store and the view's own SAPT,
// both frozen during the propagate phase, so workers call this concurrently.
func viewDisjoint(store *xmldoc.Store, v *View, batch *validate.Batch) bool {
	for _, p := range batch.Prims() {
		if v.SAPT.Classify(store, p) != sapt.Irrelevant {
			return false
		}
	}
	return true
}

func maintainAll(store *xmldoc.Store, views []*View, prims []*update.Primitive, eval time.Duration, opt Options, jrec *journal.RoundRec) (out []*MaintStats, err error) {
	start := time.Now()
	trees := make([]*sapt.Tree, len(views))
	for i, v := range views {
		if v.Store != store {
			return nil, fmt.Errorf("core: view %q is defined over a different store", v.displayName(i))
		}
		trees[i] = v.SAPT
	}
	merged := sapt.Merge(trees...)
	root := opt.Tracer.StartSpan("MaintainAll").
		Arg("views", len(views)).Arg("prims", len(prims))
	defer root.End()
	if eval > 0 {
		root.Before("ParseEvaluate", eval)
	}
	probe := beginRoundProbe(views)
	nprims := len(prims)

	// Round transaction: every phase below stages into it, and this defer is
	// the single place the round aborts — any error return (and any panic in
	// the single-threaded phases; view-task panics were already recovered by
	// the pool) rolls back the store, the extents and the cache staging to
	// the pre-round state.
	txn := newRoundTxn(store, views)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: maintenance panicked: %v", r)
		}
		if err != nil {
			rspan := root.Child("Rollback")
			restored := txn.rollback()
			rspan.Arg("restored", restored).End()
			out = nil
			if probe.active {
				obs.Rounds.Append(obs.RoundSample{
					Aborted: true,
					EvalNS:  eval.Nanoseconds(),
					TotalNS: time.Since(start).Nanoseconds(),
					Views:   int32(len(views)),
					PrimsIn: int32(nprims),
				})
			}
		}
	}()

	// --- Compact phase (shared, single-threaded, pure) ---
	// Normalize the batch before validation: cancel insert+delete pairs,
	// last-write-wins repeated replaces, splice follow-up inserts into the
	// fragment they extend. CompactBatch never mutates its input, so the
	// journal snapshots the ORIGINAL stream and verdict indexes are remapped
	// back to it — explain numbers primitives identically either way.
	orig := prims
	cspan := root.Child("Compact")
	compacted, keptIdx, decisions := update.CompactBatch(prims)
	if len(decisions) > 0 {
		prims = compacted
		jrec.SetVerdictMap(keptIdx)
		for _, d := range decisions {
			jrec.Compaction(d.Rule, d.Kept, d.Dropped, d.Detail)
		}
	}
	cspan.Arg("in", len(orig)).Arg("out", len(prims)).End()

	// --- Validate phase (shared, single-threaded) ---
	vspan := root.Child("Validate")
	t0 := time.Now()
	batch, err := validate.ValidateRec(store, merged, prims, jrec)
	if err != nil {
		vspan.End()
		return nil, fmt.Errorf("validate: %w", err)
	}
	validateTime := time.Since(t0)
	if jrec.Active() {
		// Snapshot the primitive stream after validation so pass-class
		// inserts carry their assigned FlexKeys (explain links delta tuples
		// back to these keys). Compaction-surviving primitives are the same
		// pointers, so the original stream reflects their assigned keys too.
		jrec.SetPrims(journal.EncodePrims(orig))
	}
	vspan.Arg("total", batch.Stats.Total).Arg("irrelevant", batch.Stats.Irrelevant).
		Arg("rewritten", batch.Stats.Rewritten).End()

	// --- Shared-frontier phase: propagate each shared sub-plan prefix once,
	// before the per-view pool. The caller's DAG is reused when it was built
	// over exactly these plans (warm shared partitions); otherwise the round
	// groups the plans itself. ---
	din := deltaInput(store, batch)
	plans := plansOf(views)
	dag := opt.SharedDAG
	if !dag.Matches(plans) {
		dag = xat.BuildSharedDAG(plans)
	}
	// skipFlags precomputes the relevance filter for every view when the
	// shared phase runs: a group only propagates when at least one LIVE
	// member subscribes — a view skipped for relevance must not force
	// shared-prefix work on its behalf alone. seeds[i] carries the shared
	// results into view i's propagation. Both stay nil when the DAG is empty
	// (no two views overlap) and each worker runs the filter for its own view.
	var skipFlags []bool
	var seeds [][]xat.Seed
	var shr sharedRound
	if len(dag.Groups) > 0 {
		sspan := root.Child("SharedPrefixes")
		skipFlags = make([]bool, len(views))
		// viewDisjoint itself cannot fail, but the pool's dispatch site can
		// (fault injection) — the round must abort like any other.
		err = forEachIndex(len(views), opt, func(i int) error {
			skipFlags[i] = viewDisjoint(store, views[i], batch)
			return nil
		})
		if err != nil {
			sspan.End()
			return nil, err
		}
		results := make([]*xat.SharedResult, len(dag.Groups))
		txn.shared = make([]sharedStage, len(dag.Groups))
		err = forEachIndex(len(dag.Groups), opt, func(gi int) (gerr error) {
			g := dag.Groups[gi]
			defer func() {
				if r := recover(); r != nil {
					gerr = fmt.Errorf("shared prefix %d: panic: %v", gi, r)
				}
			}()
			// Register the cache partition before anything fallible runs so
			// rollback clears its staging even if this task dies mid-way.
			txn.shared[gi].cache = g.Cache
			live := 0
			for _, m := range g.Members {
				if !skipFlags[m.View] {
					live++
				}
			}
			if live == 0 {
				// Every subscriber is skipped: the prefix must not run. Its
				// cached tables still go stale if the round touches its
				// documents — stage an eviction-only commit for those.
				if xat.RegionsTouch(din.Regions, g.Docs) {
					prep, err := g.Cache.PrepareEvictTouched(din.Regions)
					if err != nil {
						return fmt.Errorf("shared prefix %d: %w", gi, err)
					}
					txn.shared[gi].prep = prep
				}
				return nil
			}
			res, err := g.Propagate(din, sspan, jrec.Active())
			if err != nil {
				return fmt.Errorf("shared prefix %d: %w", gi, err)
			}
			prep, err := g.Cache.Prepare(din.Regions)
			if err != nil {
				return fmt.Errorf("shared prefix %d: %w", gi, err)
			}
			txn.shared[gi].prep = prep
			results[gi] = res
			return nil
		})
		if err != nil {
			sspan.End()
			return nil, err
		}
		seeds = make([][]xat.Seed, len(views))
		for gi, g := range dag.Groups {
			res := results[gi]
			if res == nil {
				continue
			}
			shr.groups++
			for _, m := range g.Members {
				if skipFlags[m.View] {
					continue
				}
				seeds[m.View] = append(seeds[m.View], xat.Seed{Ops: m.Ops, Result: res})
				shr.fanout++
			}
		}
		shr.hits = shr.fanout - shr.groups
		xat.RecordSharedRound(shr.groups, shr.fanout, shr.hits)
		sspan.Arg("groups", shr.groups).Arg("fanout", shr.fanout).End()
	}

	// --- Propagate + Apply per view, all against the pre-update store ---
	out = make([]*MaintStats, len(views))
	// Engine stats are staged per view and folded into View.ExecStats only
	// at commit, keeping all cross-view writes out of the concurrent section
	// and out of rolled-back rounds.
	propStats := make([]xat.Stats, len(views))
	err = forEachIndex(len(views), opt, func(i int) (werr error) {
		v := views[i]
		// A panic while maintaining this view must not poison the others:
		// recover it here into an error naming the view (the pool's own
		// recovery would only know the task index), which cancels the round
		// and rolls it back like any other per-view failure.
		defer func() {
			if r := recover(); r != nil {
				werr = fmt.Errorf("maintain view %q: panic: %v", v.displayName(i), r)
			}
		}()
		// One trace track per view: concurrent views render side by side,
		// with the Propagate/Apply phases and the per-operator spans of the
		// maintenance plan nested inside.
		vtrack := opt.Tracer.StartSpan(v.displayName(i))
		defer vtrack.End()
		ms := &MaintStats{Validate: validateTime, Validation: batch.Stats}
		// Each worker records into its own view's lineage slot; slots are
		// pre-allocated at Begin, so no cross-worker synchronization.
		vrec := jrec.View(i)
		// Relevance filter: when every primitive of the batch is irrelevant
		// to this view, its extent provably cannot change — skip the
		// Propagate+Apply phases, leaving a truthful skip verdict behind.
		// When the shared phase ran, the verdicts were precomputed (the live-
		// subscriber counts needed them); a view stays skipped even when a
		// shared prefix it subscribes to ran for other views.
		var skipped bool
		if skipFlags != nil {
			skipped = skipFlags[i]
		} else {
			skipped = viewDisjoint(store, v, batch)
		}
		if skipped {
			ms.Skipped = 1
			vtrack.Arg("skipped", "no region overlap")
			vrec.Skip("no region overlap")
			if obs.Enabled() {
				cViewsSkipped.Inc()
			}
			out[i] = ms
			return nil
		}
		cache := v.stateCache()
		// Round arena: registered in the view's stage slot before the first
		// tuple is allocated, so commit and rollback both release it even if
		// this task dies mid-propagate.
		alloc := xat.NewAlloc()
		txn.stages[i].alloc = alloc
		// Seeds from the shared phase intercept this view's propagation at
		// each subscribed frontier: the shared delta tables (heap-allocated,
		// immutable, fanned out to every subscriber) stand in for the
		// subtree's own propagation, and the captured lineage replays under
		// this view's operator ids so Explain stays truthful.
		var vseeds []xat.Seed
		if seeds != nil {
			vseeds = seeds[i]
		}
		ms.SharedPrefixes = len(vseeds)
		pspan := vtrack.Child("Propagate")
		t0 := time.Now()
		res, err := xat.PropagateDeltaShared(v.Plan, din, pspan, vrec, cache, alloc, vseeds)
		if err != nil {
			pspan.End()
			return fmt.Errorf("propagate view %q: %w", v.displayName(i), err)
		}
		ms.Propagate = time.Since(t0)
		ms.DeltaRoots = len(res.Roots)
		pspan.Arg("delta_roots", len(res.Roots)).End()
		propStats[i] = *res.Stats

		// Apply under the round transaction: tx and cache are registered in
		// the view's stage slot (each worker owns slot i, like out[i]) before
		// the first extent node is touched. Apply is copy-on-write — the live
		// extent is never written, the staged roots are a candidate version
		// sharing untouched subtrees with it — so even a mid-apply death
		// leaves the extent intact and rollback just abandons the copies.
		aspan := vtrack.Child("Apply")
		t0 = time.Now()
		tx := deepunion.NewTxn()
		txn.stages[i].tx = tx
		txn.stages[i].cache = cache
		staged, err := deepunion.ApplyTx(append([]*xat.VNode(nil), v.Extent...), res.Roots, &ms.Union, vrec, tx)
		if err != nil {
			aspan.End()
			return fmt.Errorf("apply view %q: %w", v.displayName(i), err)
		}
		ms.Apply = time.Since(t0)
		aspan.Arg("merged", ms.Union.Merged).Arg("inserted", ms.Union.Inserted).
			Arg("removed", ms.Union.Removed).End()
		// Prepare (don't install) the cache fold: the staged state only
		// becomes visible when the whole round commits.
		prep, err := cache.Prepare(din.Regions)
		if err != nil {
			return fmt.Errorf("cache commit view %q: %w", v.displayName(i), err)
		}
		txn.stages[i].extent = staged
		txn.stages[i].prep = prep
		txn.stages[i].staged = true
		out[i] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}

	// --- Refresh the source documents once (single-threaded), under the
	// store's undo log so a failure here rolls the documents back too ---
	sspan := root.Child("SourceRefresh")
	store.BeginUndo()
	t0 = time.Now()
	for _, p := range batch.Prims() {
		if err := fpRefresh.Fire(); err != nil {
			sspan.End()
			return nil, fmt.Errorf("source refresh: %w", err)
		}
		if err := update.ApplyToStore(store, p); err != nil {
			sspan.End()
			return nil, fmt.Errorf("source refresh: %w", err)
		}
	}
	srcTime := time.Since(t0)
	sspan.End()

	// --- Candidate version: with an epoch registry attached, assemble the
	// next MVCC version while the undo log is still live (its touched-key
	// set is the store delta). Both fault points fire before txn.commit(),
	// so an abort here leaves the old version published and rolls the
	// writer-side structures back byte-identically. ---
	var cand *Version
	if opt.Snapshots != nil {
		bspan := root.Child("SnapshotBuild")
		cand, err = buildCandidate(opt.Snapshots, store, views, txn)
		if err != nil {
			bspan.End()
			return nil, err
		}
		if err = fpSnapSwap.Fire(); err != nil {
			bspan.End()
			err = fmt.Errorf("snapshot swap: %w", err)
			return nil, err
		}
		bspan.Arg("seq", int(cand.Seq)).End()
	}

	// --- Commit: install every staged outcome together. Nothing below can
	// fail — all fallible steps ran above. ---
	// Arena occupancy must be priced before commit: commit releases (and in
	// poison builds scrubs) every view's round arena.
	var arenaBytes int64
	var arenaChunks int
	if probe.active {
		for i := range txn.stages {
			b, c := txn.stages[i].alloc.Footprint()
			arenaBytes += b
			arenaChunks += c
		}
	}
	txn.commit()
	if cand != nil {
		// The pointer swap: readers acquiring from here on see the
		// post-round state; readers holding older versions drain at their
		// own pace.
		opt.Snapshots.Publish(cand)
	}
	for i, v := range views {
		v.ExecStats.Add(propStats[i])
	}
	total := time.Since(start)
	for _, ms := range out {
		ms.Source = srcTime
		ms.Total = total
	}
	if probe.active {
		recordMaintain(out)
		s := probe.sample(out, views, len(orig), len(prims), arenaBytes, arenaChunks, shr)
		s.EvalNS = eval.Nanoseconds()
		if cand != nil {
			s.SnapEpoch = int64(cand.Seq)
			s.SnapRetired = int32(opt.Snapshots.RetiredCount())
			s.SnapReaders = int32(gSnapReaders.Value())
			s.SnapDepth = int32(cand.Store.Depth())
		}
		obs.Rounds.Append(s)
	}
	return out, nil
}

// Phase latency metric series (the Ch 9 VPA breakdown as histograms) plus
// the per-run counters the serving endpoint exposes.
var (
	hValidate     = obs.Default.HistogramOf("xqview_phase_seconds", "VPA phase latency per maintenance run", "phase", "validate")
	hPropagate    = obs.Default.HistogramOf("xqview_phase_seconds", "VPA phase latency per maintenance run", "phase", "propagate")
	hApply        = obs.Default.HistogramOf("xqview_phase_seconds", "VPA phase latency per maintenance run", "phase", "apply")
	hSource       = obs.Default.HistogramOf("xqview_phase_seconds", "VPA phase latency per maintenance run", "phase", "source")
	hTotal        = obs.Default.HistogramOf("xqview_maintain_seconds", "end-to-end maintenance batch latency")
	cMaintainRuns = obs.Default.CounterOf("xqview_maintain_runs_total", "maintenance batches completed")
)

// recordMaintain folds one finished batch into the phase histograms. The
// propagate/apply observations are per view; validate, source and total are
// per batch (they are shared across the views of the batch).
func recordMaintain(out []*MaintStats) {
	cMaintainRuns.Inc()
	if len(out) == 0 {
		return
	}
	hValidate.Observe(out[0].Validate)
	hSource.Observe(out[0].Source)
	hTotal.Observe(out[0].Total)
	for _, ms := range out {
		hPropagate.Observe(ms.Propagate)
		hApply.Observe(ms.Apply)
	}
}

// deltaInput assembles the propagate-phase input from a validated batch.
// The returned input is frozen: every view propagating it concurrently sees
// the same immutable post-update reader.
func deltaInput(store *xmldoc.Store, batch *validate.Batch) *xat.DeltaInput {
	ur := xmldoc.NewUpdatedReader(store, batch.Overlay)
	regions := map[string][]*xat.Region{}
	for doc, prims := range batch.ByDoc {
		for _, p := range prims {
			var r *xat.Region
			switch p.Kind {
			case update.Insert:
				r = &xat.Region{Mode: xat.RegionInsert, Anchor: p.Key, Parent: p.Parent}
				ur.InsertedUnder[p.Parent] = append(ur.InsertedUnder[p.Parent], p.Key)
			case update.Delete:
				r = &xat.Region{Mode: xat.RegionDelete, Anchor: p.Key}
				ur.Deleted[p.Key] = true
			case update.Replace:
				r = &xat.Region{Mode: xat.RegionModify, Anchor: p.Key, NewValue: p.NewValue}
				ur.Replaced[p.Key] = p.NewValue
			}
			regions[doc] = append(regions[doc], r)
		}
	}
	ur.Freeze()
	return &xat.DeltaInput{Base: store, New: ur, Regions: regions}
}

// Recompute is the full-recomputation baseline of Ch 9: it clones the
// store, applies the updates, and evaluates the view from scratch,
// returning the resulting XML.
func Recompute(store *xmldoc.Store, query string, prims []*update.Primitive) (string, error) {
	out, err := RecomputeAll(store, []string{query}, prims)
	if err != nil {
		return "", err
	}
	return out[0], nil
}

// RecomputeAll recomputes several views from scratch under one batch, the
// multi-view counterpart of Recompute: each view clones the store, applies
// the updates to its clone, and evaluates its query over the result. The
// per-view clone+evaluate work fans out over the same bounded worker pool
// as MaintainAll, so the Ch 9 incremental-vs-recompute comparisons stay
// apples-to-apples when both sides run in parallel. The source store is
// never mutated. Results are returned in query order.
func RecomputeAll(store *xmldoc.Store, queries []string, prims []*update.Primitive, opts ...Options) ([]string, error) {
	opt := getOpts(opts)
	out := make([]string, len(queries))
	err := forEachIndex(len(queries), opt, func(i int) error {
		clone := store.Clone()
		// Primitives reference keys of the original store; keys are shared
		// by Clone so they resolve identically. Each worker applies its own
		// shallow copies: ApplyToStore assigns insert keys on the primitive,
		// and the shared Frag trees are only ever read.
		for _, p := range prims {
			cp := *p
			if err := update.ApplyToStore(clone, &cp); err != nil {
				return fmt.Errorf("recompute view-%d: %w", i, err)
			}
		}
		v, err := NewView(clone, queries[i])
		if err != nil {
			return fmt.Errorf("recompute view-%d: %w", i, err)
		}
		out[i] = v.XML()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CanonicalXML renders an extent deterministically for comparisons: sibling
// runs without defined order are sorted by their serialized form.
func CanonicalXML(roots []*xat.VNode) string {
	cs := make([]*xat.VNode, len(roots))
	for i, r := range roots {
		cs[i] = r.Clone()
	}
	for _, r := range cs {
		canonicalize(r)
	}
	sortCanonical(cs)
	return xat.ExtentXML(cs)
}

func canonicalize(n *xat.VNode) {
	for _, c := range n.Children {
		canonicalize(c)
	}
	sortCanonical(n.Children)
	sortCanonical(n.Attrs)
}

func sortCanonical(ns []*xat.VNode) {
	// Stable sort by order key first, serialized form second, so unordered
	// runs become deterministic without disturbing ordered ones.
	keyed := make([]string, len(ns))
	for i, c := range ns {
		keyed[i] = c.XML()
	}
	idx := make([]int, len(ns))
	for i := range idx {
		idx[i] = i
	}
	sortStableBy(idx, func(a, b int) int {
		if cmp := xat.CompareOrd(ns[a].ID.Order(), ns[b].ID.Order()); cmp != 0 {
			return cmp
		}
		return strings.Compare(keyed[a], keyed[b])
	})
	out := make([]*xat.VNode, len(ns))
	for i, j := range idx {
		out[i] = ns[j]
	}
	copy(ns, out)
}

func sortStableBy(idx []int, cmp func(a, b int) int) {
	// Insertion sort keeps it stable and dependency-free; sibling runs are
	// small.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && cmp(idx[j-1], idx[j]) > 0; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
}
