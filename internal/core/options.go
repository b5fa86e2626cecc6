package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xqview/internal/faultinject"
	"xqview/internal/obs"
	"xqview/internal/xat"
)

// fpPoolTask guards task dispatch in the worker pool; its ModePanic arming
// is how the crash tests prove a panicking view task cannot take sibling
// workers (or the process) down.
var fpPoolTask = faultinject.Register("core.pool.task")

// Options configures a maintenance or recomputation run. It carries a
// resource bound and plumbing only: maintenance always runs state-cached,
// shared across views, arena-backed, batch-compacted and relevance-filtered,
// and full recomputation (RecomputeAll / View.Materialize) is the oracle that
// one path is tested against.
type Options struct {
	// Parallelism bounds the number of views maintained concurrently during
	// the Propagate+Apply phases (and the number of concurrent evaluations
	// during full recomputation). Zero or negative means
	// runtime.GOMAXPROCS(0). Validate, source refresh and commit are always
	// single-threaded: refresh writes the round's draft, commit the store.
	Parallelism int

	// Tracer, when non-nil, records a span per VPA phase and per XAT
	// operator during propagation, renderable as Chrome trace-event JSON
	// (xqview -trace). A nil Tracer costs nothing.
	Tracer *obs.Tracer

	// SharedDAG, when non-nil and built over exactly the round's view plans,
	// is reused instead of rebuilding the shared sub-plan DAG per round —
	// this is what keeps the shared cache partitions warm across rounds
	// (Database maintains one per view set). A nil or stale DAG (plans
	// changed) is detected via Matches and built fresh for the round.
	SharedDAG *xat.SharedDAG

	// Snapshots, when non-nil, is the MVCC epoch registry the round publishes
	// into: after propagation succeeds (and before the infallible commit),
	// the round builds a candidate Version — the draft's store delta, staged
	// extents, prepared cache views — and publishes it with
	// a single pointer swap once the commit installed. Readers holding older
	// versions are undisturbed. Nil (the default for direct MaintainAll
	// callers) skips the candidate build entirely and costs nothing.
	Snapshots *SnapReg
}

// getOpts resolves the variadic options accepted by the maintenance entry
// points (so pre-existing call sites need no changes).
func getOpts(opts []Options) Options {
	if len(opts) == 0 {
		return Options{}
	}
	return opts[0]
}

// workers resolves the effective pool size for n work items.
func (o Options) workers(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Worker-pool metric series: queue depth and utilization of the bounded
// pool MaintainAll/RecomputeAll fan work over. Busy time over (tasks ×
// wall) gives per-run worker utilization; the gauges expose the live state
// for the serving-mode endpoint.
var (
	gPoolWorkers = obs.Default.GaugeOf("xqview_pool_workers", "workers of the most recent maintenance pool")
	gPoolActive  = obs.Default.GaugeOf("xqview_pool_active_workers", "workers currently running a task")
	gPoolQueue   = obs.Default.GaugeOf("xqview_pool_queue_depth", "tasks not yet claimed by a worker")
	cPoolTasks   = obs.Default.CounterOf("xqview_pool_tasks_total", "tasks executed by the pool")
	cPoolBusyNS  = obs.Default.CounterOf("xqview_pool_busy_nanoseconds_total", "cumulative task execution time")
	hPoolTask    = obs.Default.HistogramOf("xqview_pool_task_seconds", "per-task (per-view Propagate+Apply) latency")
)

// runTask wraps one pool task with the utilization metrics. Callers gate on
// obs.Enabled() so the disabled path stays a plain call. Metric finalization
// is deferred so a panicking task cannot leave the active gauge stuck high.
func runTask(fn func(i int) error, i int) error {
	gPoolActive.Add(1)
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		gPoolActive.Add(-1)
		cPoolTasks.Inc()
		cPoolBusyNS.Add(d.Nanoseconds())
		hPoolTask.Observe(d)
	}()
	return fn(i)
}

// poolTask dispatches one task with panic containment: a panic inside fn
// becomes a named error for that task instead of crashing sibling workers.
// Fault-injection panics (the crash-test probes) surface as their *Fault;
// real panics keep their value and gain the task index.
func poolTask(fn func(i int) error, i int, metrics bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(*faultinject.Fault); ok {
				err = fmt.Errorf("core: pool task %d panicked: %w", i, f)
				return
			}
			err = fmt.Errorf("core: pool task %d panicked: %v", i, r)
		}
	}()
	if err := fpPoolTask.Fire(); err != nil {
		return err
	}
	if metrics {
		return runTask(fn, i)
	}
	return fn(i)
}

// forEachIndex runs fn(0..n-1) over a bounded worker pool. Output slots are
// index-addressed by the callers, so completion order never affects result
// order. The first error cancels the pool: items not yet started are skipped,
// items in flight run to completion, and that first error is returned.
// With one worker it degenerates to a plain sequential loop.
func forEachIndex(n int, opt Options, fn func(i int) error) error {
	p := opt.workers(n)
	metrics := obs.Enabled()
	if metrics {
		gPoolWorkers.Set(int64(p))
		gPoolQueue.Set(int64(n))
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			if metrics {
				gPoolQueue.Set(int64(n - i - 1))
			}
			if err := poolTask(fn, i, metrics); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		once  sync.Once
		first error
	)
	stop := make(chan struct{})
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if metrics {
					if left := int64(n) - next.Load(); left >= 0 {
						gPoolQueue.Set(left)
					} else {
						gPoolQueue.Set(0)
					}
				}
				if err := poolTask(fn, i, metrics); err != nil {
					once.Do(func() {
						first = err
						close(stop)
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	if metrics {
		gPoolQueue.Set(0)
	}
	return first
}
