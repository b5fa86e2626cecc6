package main

import (
	"math"
	"sort"
	"time"
)

// segments is how many equal-count slices a measured window is cut into.
// Every timing metric is computed per segment and reported as the quiet
// quartile of the segment values (see quiet).
const segments = 10

// sample is one timed operation: how long it took from when it was due to
// its completion.
type sample struct {
	lat  time.Duration
	kind opKind
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the nearest-rank p-quantile of xs (0 for no samples).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quiet reduces per-segment values to one number: the quartile on the good
// side (lower for costs, upper for rates). The machine this runs on shares
// its cores; neighbours slow it by up to half for seconds at a time, and a
// median over segments moves with them. The quiet quartile holds still as
// long as a quarter of the window was undisturbed, and unlike a minimum it
// does not reward one lucky segment.
func quiet(vals []float64, higherBetter bool) float64 {
	if higherBetter {
		return quantile(vals, 0.75)
	}
	return quantile(vals, 0.25)
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// latencies extracts the latencies of the samples accepted by keep, in the
// given unit.
func latencies(ss []sample, unit time.Duration, keep func(sample) bool) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if keep == nil || keep(s) {
			out = append(out, float64(s.lat)/float64(unit))
		}
	}
	return out
}

func ofKind(k opKind) func(sample) bool { return func(s sample) bool { return s.kind == k } }

// bound returns the index where segment k of n samples starts.
func bound(k, n int) int { return k * n / segments }

// quietLatency is the quiet quartile of the per-segment p-quantile latency
// of the samples keep accepts.
func quietLatency(ss []sample, p float64, unit time.Duration, keep func(sample) bool) float64 {
	var vals []float64
	for k := 0; k < segments; k++ {
		if l := latencies(ss[bound(k, len(ss)):bound(k+1, len(ss))], unit, keep); len(l) > 0 {
			vals = append(vals, quantile(l, p))
		}
	}
	return quiet(vals, false)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
