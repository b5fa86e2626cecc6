package bench

import (
	"fmt"
	"time"

	"xqview/internal/core"
	"xqview/internal/obs"
	"xqview/internal/xmark"
)

// FigObs measures what the observability layer costs: the same multi-view
// maintenance batches run with everything off (the default), with the
// metrics registry recording (obs.SetEnabled), and with full span tracing on
// top (Options.Tracer). The claim backed by this figure is that the disabled
// fast path is free and the enabled paths stay within a few percent.
func FigObs(scale float64) (*Figure, error) {
	f := &Figure{
		ID:    "Fig O.1",
		Title: "observability overhead on multi-view maintenance (beyond the dissertation)",
		Note:  "same batches; off = nil tracer + disabled metrics, metrics = counters/histograms on, traced = metrics + a span per phase and per operator",
		Columns: []string{"views", "off_ms", "metrics_ms", "metrics_ovh",
			"traced_ms", "traced_ovh", "trace_events"},
	}
	n := scaled(400, scale)
	rounds := scaled(30, scale)
	if rounds < 3 {
		rounds = 3
	}
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	for _, nv := range []int{2, 8} {
		queries := parallelViewQueries(nv)
		// arm runs `rounds` consecutive maintenance batches over one store
		// and returns the summed maintenance wall time, so per-batch jitter
		// averages out and every arm does identical logical work.
		arm := func(metrics bool, tracer *obs.Tracer) (time.Duration, error) {
			obs.SetEnabled(metrics)
			defer obs.SetEnabled(false)
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
			var total time.Duration
			for r := 0; r < rounds; r++ {
				prims := heteroBatch(store, fmt.Sprintf("o%d", r))
				t0 := time.Now()
				_, err := core.MaintainAll(store, views, prims, 0,
					core.Options{Parallelism: 1, Tracer: tracer})
				if err != nil {
					return 0, err
				}
				total += time.Since(t0)
			}
			return total, nil
		}
		// Discarded warm-up pass: the first arm would otherwise pay the
		// cold-cache cost alone and bias the overhead negative.
		if _, err := arm(false, nil); err != nil {
			return nil, err
		}
		off, err := arm(false, nil)
		if err != nil {
			return nil, err
		}
		withMetrics, err := arm(true, nil)
		if err != nil {
			return nil, err
		}
		tracer := obs.NewTracer()
		traced, err := arm(true, tracer)
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", nv),
			ms(off),
			ms(withMetrics), overhead(off, withMetrics),
			ms(traced), overhead(off, traced),
			fmt.Sprintf("%d", tracer.Len()),
		})
	}
	return f, nil
}

// overhead renders how much slower `arm` is than `base`, signed.
func overhead(base, arm time.Duration) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.2f%%", 100*(float64(arm)-float64(base))/float64(base))
}
