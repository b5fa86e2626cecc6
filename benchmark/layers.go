package main

import (
	"fmt"
	"strings"
	"time"

	"xqview/internal/obs"
)

// roundSums accumulates the engine's own per-round telemetry (obs.Rounds).
type roundSums struct {
	n                               int
	totalNS, heapAllocs, arenaBytes int64
	primsIn, primsOut, deltaRoots   int64
	hits, misses, folds, evicts     int64
	sharedHits, arenaChunks         int64
	depthMax, retiredMax            int32
	lastSeq                         uint64
}

// drain folds in every sample appended since the last call. The ring keeps
// 256 samples, so callers drain at least that often.
func (s *roundSums) drain() {
	for _, r := range obs.Rounds.Snapshot() {
		if r.Seq <= s.lastSeq || r.Aborted {
			continue
		}
		s.n++
		s.totalNS += r.TotalNS
		s.heapAllocs += r.HeapAllocs
		s.arenaBytes += r.ArenaBytes
		s.arenaChunks += int64(r.ArenaChunks)
		s.primsIn += int64(r.PrimsIn)
		s.primsOut += int64(r.PrimsOut)
		s.deltaRoots += int64(r.DeltaRoots)
		s.hits += int64(r.CacheHits)
		s.misses += int64(r.CacheMisses)
		s.folds += int64(r.CacheFolds)
		s.evicts += int64(r.CacheEvicts)
		s.sharedHits += int64(r.SharedHits)
		s.depthMax = max(s.depthMax, r.SnapDepth)
		s.retiredMax = max(s.retiredMax, r.SnapRetired)
	}
	s.lastSeq = obs.Rounds.Total()
}

const (
	// traceChunks splits the traced pass's window into alternating untraced
	// and traced quarters, so both arms see the same drift and the overhead
	// figure compares like with like.
	traceChunks = 4
	// rotateRounds and rotateEvents bound one tracer's buffer: events past a
	// tracer's limit are dropped, so the pass folds and replaces the tracer
	// before that.
	rotateRounds = 200
	rotateEvents = 30000
)

// runTraced is the per-layer pass: the same inputs as the end-to-end pass,
// with the engine's telemetry and tracer on for every other quarter of the
// window, followed by probes of single exported functions.
func runTraced(w *workload, seed int64, lim limit, outDir string) (*outcome, error) {
	docs := w.documents(seed)
	first := obs.NewTracer() // the tracer whose events are written out
	e, err := setUp(w, docs, seed, first, 0)
	if err != nil {
		return nil, err
	}
	var (
		base, traced window
		fd           = newFold()
		sums         roundSums
		tr           = first
	)
	rotate := func(next *obs.Tracer) {
		sums.drain()
		fd.add(tr.Events())
		tr = next
		e.setTracer(next)
	}
	chunk := limit{rounds: lim.rounds / traceChunks, reads: lim.reads / traceChunks, cap: lim.cap}
	for c := 0; c < traceChunks; c++ {
		if c%2 == 0 {
			e.setTracer(nil)
			measure(e, chunk, &base)
			continue
		}
		was := obs.SetEnabled(true)
		sums.lastSeq = obs.Rounds.Total()
		e.setTracer(tr)
		since := 0
		traced.onRound = func() {
			if since++; since >= rotateRounds || tr.Len() > rotateEvents {
				rotate(obs.NewTracer())
				since = 0
			}
		}
		measure(e, chunk, &traced)
		rotate(obs.NewTracer())
		obs.SetEnabled(was)
	}
	e.setTracer(nil)

	vals := layerValues(e, &base, &traced, fd, &sums)
	for _, msg := range (&prober{e: e, docs: docs, seed: seed}).run(vals) {
		traced.attempted++
		traced.fail("probe: %s", msg)
	}
	oracle(e, &traced)
	traced.attempted += base.attempted
	traced.failed += base.failed
	traced.errs = append(traced.errs, base.errs...)

	path, err := writeTrace(outDir, w.name, first)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	spans := 0
	for _, n := range fd.count {
		spans += n
	}
	fmt.Printf("%s seed=%d traced: %d+%d rounds (untraced+traced), %d+%d reads, %d spans folded, trace in %s; attempted=%d failed=%d\n",
		w.name, seed, len(base.rounds), len(traced.rounds), len(base.reads), len(traced.reads), spans,
		path, traced.attempted, traced.failed)
	for _, msg := range traced.errs {
		fmt.Println("  FAIL:", msg)
	}
	return result(perLayerMetrics, vals, &traced), nil
}

// layerValues derives the per-layer metrics that come from the measured
// windows: reports (R), obs.Rounds samples (S) and tracer spans (T).
func layerValues(e *env, base, traced *window, fd *fold, s *roundSums) map[string]float64 {
	rep := traced.rep
	n := float64(rep.rounds)
	perRound := func(d time.Duration) float64 { return ratio(float64(d)/float64(us), n) }
	v := map[string]float64{}

	// update: everything ApplyUpdates does outside the maintenance round is
	// script parsing and target evaluation (plus the lock and the reports).
	v["update.outside_round_us"] = perRound(rep.wall - rep.total)
	v["update.compact_drop_ratio"] = 1 - ratio(float64(s.primsOut), float64(s.primsIn))

	v["validate.us_per_round"] = perRound(rep.validate)
	v["validate.irrelevant_ratio"] = ratio(float64(rep.irrelevant), float64(rep.updates))
	v["sapt.view_skip_ratio"] = ratio(float64(rep.skipped), float64(rep.views))

	v["xat.propagate_us_per_round"] = perRound(rep.propagate)
	v["xat.propagate_self_us_per_round"] = fd.perRound(fd.self, "Propagate")
	v["xat.cache_hit_ratio"] = ratio(float64(s.hits), float64(s.hits+s.misses))
	v["xat.cache_evicts_per_round"] = ratio(float64(s.evicts), float64(s.n))
	v["xat.cache_folds_per_round"] = ratio(float64(s.folds), float64(s.n))
	v["xat.delta_roots_per_round"] = ratio(float64(s.deltaRoots), float64(s.n))
	v["xat.shared_hits_per_round"] = ratio(float64(s.sharedHits), float64(s.n))
	v["xat.op.navigate_us_per_round"] = fd.perRound(fd.self, "op:Source", "op:NavUnnest", "op:NavCollection")
	v["xat.op.select_us_per_round"] = fd.perRound(fd.self, "op:Select")
	v["xat.op.join_us_per_round"] = fd.perRound(fd.self, "op:Join", "op:LOJ")
	v["xat.op.groupby_us_per_round"] = fd.perRound(fd.self, "op:GroupBy", "op:Distinct", "op:OrderBy", "op:Combine")
	v["xat.op.tagger_us_per_round"] = fd.perRound(fd.self, "op:Tagger")
	var ops, bases float64
	for name, t := range fd.self {
		switch {
		case strings.HasPrefix(name, "op:"):
			ops += t
		case strings.HasPrefix(name, "base:"):
			bases += t
		}
	}
	named := v["xat.op.navigate_us_per_round"] + v["xat.op.select_us_per_round"] + v["xat.op.join_us_per_round"] +
		v["xat.op.groupby_us_per_round"] + v["xat.op.tagger_us_per_round"]
	v["xat.op.other_us_per_round"] = ratio(ops, float64(fd.rounds)) - named
	v["xat.base_derive_us_per_round"] = ratio(bases, float64(fd.rounds))

	v["deepunion.apply_us_per_round"] = perRound(rep.apply)
	v["deepunion.merged_per_round"] = ratio(float64(rep.merged), n)
	v["deepunion.inserted_per_round"] = ratio(float64(rep.inserted), n)
	v["deepunion.removed_per_round"] = ratio(float64(rep.removed), n)
	v["deepunion.modified_per_round"] = ratio(float64(rep.modified), n)

	v["xmldoc.source_refresh_us_per_round"] = perRound(rep.source)
	v["xmldoc.snap_depth_max"] = float64(s.depthMax)
	var loadNS time.Duration
	for _, d := range e.loads {
		loadNS += d
	}
	v["xmldoc.load_ms_per_mb"] = ratio(float64(loadNS)/float64(ms), float64(e.docBytes)/(1<<20))

	// core: the round as the engine's spans cut it. The phases are wall
	// time, so with the unattributed remainder they sum to the round total.
	v["core.round_total_us"] = perRound(rep.total)
	v["core.compact_us"] = fd.perRound(fd.total, "Compact")
	v["core.shared_prefix_us"] = fd.perRound(fd.total, "SharedPrefixes")
	v["core.pool_phase_us"] = ratio(fd.poolWall, float64(fd.rounds))
	v["core.view_self_us_per_round"] = fd.perRound(fd.self, "view")
	v["core.snapshot_build_us"] = fd.perRound(fd.total, "SnapshotBuild")
	v["core.unattributed_us_per_round"] = v["core.round_total_us"] - v["core.compact_us"] -
		fd.perRound(fd.total, "Validate") - v["core.shared_prefix_us"] - v["core.pool_phase_us"] -
		fd.perRound(fd.total, "SourceRefresh") - v["core.snapshot_build_us"]
	v["core.snap_retired_max"] = float64(s.retiredMax)
	v["core.create_view_first_ms"] = float64(e.creates[0]) / float64(ms)
	v["core.create_view_last_ms"] = float64(e.creates[len(e.creates)-1]) / float64(ms)

	for name, k := range map[string]opKind{"insert": opInsert, "replace": opReplace, "delete": opDelete} {
		v["mix."+name+"_p50_ms"] = quantile(latencies(traced.rounds, ms, ofKind(k)), 0.5)
	}

	v["arena.bytes_per_round"] = ratio(float64(s.arenaBytes), float64(s.n))
	v["arena.chunks_per_round"] = ratio(float64(s.arenaChunks), float64(s.n))

	v["runtime.gc_cycles"] = float64(traced.res.gcCycles)
	v["runtime.gc_pause_ms"] = float64(traced.res.gcPause) / float64(ms)
	v["runtime.gc_cpu_share"] = ratio(traced.res.gcCPU, traced.res.cpu.Seconds())

	// load: how the open-loop generators kept their schedule, and how busy
	// reads kept the process relative to rounds.
	v["load.late_p50_us"] = quantile(traced.late, 0.5)
	v["load.late_p99_us"] = quantile(traced.late, 0.99)
	v["load.read_busy_share"] = ratio(fd.total["api.read"], fd.total["api.read"]+fd.total["api.ApplyUpdates"])

	// tail: percentiles too unsteady on a shared machine to carry a bound.
	v["tail.round_p90_ms"] = quietLatency(base.rounds, 0.9, ms, nil)
	v["tail.round_p99_ms"] = quantile(latencies(base.rounds, ms, nil), 0.99)
	v["tail.view_read_p99_us"] = quantile(latencies(base.reads, us, ofKind(opViewRead)), 0.99)

	// obs: the guards. Overhead compares the traced and untraced quarters;
	// agreement compares the engine's own samples with what the API returned
	// and with the runtime's allocation count for the same rounds.
	v["obs.trace_overhead_pct"] = 100 * (ratio(quietLatency(traced.rounds, 0.5, ms, nil), quietLatency(base.rounds, 0.5, ms, nil)) - 1)
	v["obs.round_total_agreement_pct"] = 100 * ratio(float64(s.totalNS)-float64(rep.total), float64(rep.total))
	v["obs.heap_allocs_agreement_pct"] = 100 * ratio(float64(s.heapAllocs)-float64(traced.res.mallocs), float64(traced.res.mallocs))
	return v
}
