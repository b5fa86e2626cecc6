package bench

import (
	"fmt"
	"runtime"
	"time"

	"xqview/internal/core"
	"xqview/internal/xmark"
)

// Parallelism is the pool size used for the parallel arms of FigParallel
// (0 = GOMAXPROCS). cmd/xbench wires its -parallel flag here.
var Parallelism = 0

// parallelViewQueries returns n view definitions of alternating shapes over
// the bib/prices pair: odd slots get the cheap flat Query 1, even slots the
// join+grouping Query 2, so the pool schedules heterogeneous work.
func parallelViewQueries(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		if i%2 == 0 {
			qs[i] = BibQ2
		} else {
			qs[i] = BibQ1
		}
	}
	return qs
}

// FigParallel measures the parallel multi-view maintenance path added on
// top of the dissertation's Ch 9 figures: one validated batch propagated
// through N views sequentially (Parallelism 1) versus over the worker pool,
// and the full-recomputation baseline parallelized the same way so the
// incremental-vs-recompute comparison stays apples-to-apples.
func FigParallel(scale float64) (*Figure, error) {
	pool := Parallelism
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	f := &Figure{
		ID:    "Fig P.1",
		Title: "parallel multi-view maintenance (beyond the dissertation)",
		Note: fmt.Sprintf("one batch, N views; pool = %d workers (GOMAXPROCS=%d); recompute = parallel clone+evaluate baseline",
			pool, runtime.GOMAXPROCS(0)),
		Columns: []string{"views", "seq_ms", "par_ms", "speedup",
			"recompute_seq_ms", "recompute_par_ms", "recompute_speedup"},
	}
	n := scaled(400, scale)
	for _, nv := range []int{2, 4, 8} {
		queries := parallelViewQueries(nv)
		maintArm := func(parallelism int) (time.Duration, error) {
			store, err := xmark.LoadBib(xmark.DefaultBib(n))
			if err != nil {
				return 0, err
			}
			views := make([]*core.View, len(queries))
			for i, q := range queries {
				if views[i], err = core.NewView(store, q); err != nil {
					return 0, err
				}
			}
			prims := heteroBatch(store, fmt.Sprintf("p%d", parallelism))
			t0 := time.Now()
			_, err = core.MaintainAll(store, views, prims, 0,
				core.Options{Parallelism: parallelism})
			return time.Since(t0), err
		}
		seq, err := maintArm(1)
		if err != nil {
			return nil, err
		}
		par, err := maintArm(pool)
		if err != nil {
			return nil, err
		}
		recompArm := func(parallelism int) (time.Duration, error) {
			store, err := xmark.LoadBib(xmark.DefaultBib(n))
			if err != nil {
				return 0, err
			}
			prims := heteroBatch(store, "r")
			t0 := time.Now()
			_, err = core.RecomputeAll(store, queries, clonePrims(prims),
				core.Options{Parallelism: parallelism})
			return time.Since(t0), err
		}
		recSeq, err := recompArm(1)
		if err != nil {
			return nil, err
		}
		recPar, err := recompArm(pool)
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", nv),
			ms(seq), ms(par), speedup(seq, par),
			ms(recSeq), ms(recPar), speedup(recSeq, recPar),
		})
	}
	return f, nil
}
