package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"xqview/internal/obs"
	"xqview/internal/xat"
)

// Options configures a maintenance run. It carries a resource bound and
// plumbing only: maintenance always runs state-cached, shared across views,
// arena-backed, batch-compacted and relevance-filtered, and full
// recomputation (RecomputeAll / View.Materialize) is the oracle that one path
// is tested against.
type Options struct {
	// Parallelism bounds the number of views maintained (and shared
	// prefixes propagated) concurrently. Zero or negative means
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

// forEachIndex runs fn(0..n-1) over a bounded worker pool. Output slots are
// index-addressed by the callers, so completion order never affects result
// order. The first error cancels the pool: items not yet started are skipped,
// items in flight run to completion, and that first error is returned.
// With one worker it degenerates to a plain sequential loop. Each task
// recovers its own panics into an error naming its unit (maintainView,
// propagateGroup); the pool adds no layer of its own.
func forEachIndex(n int, opt Options, fn func(i int) error) error {
	p := opt.workers(n)
	if p <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
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
				if err := fn(i); err != nil {
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
	return first
}
