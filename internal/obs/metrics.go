package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The metrics model: a Registry holds metric families (one name, one type),
// each family holds series (one per label set). Registration takes a lock
// once per call site; the returned Counter/Gauge/Histogram pointers are
// lock-free atomics, so the hot path never contends.

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of finite latency buckets: exponential bounds
// of 1µs·2^i for i in [0, histBuckets), i.e. 1µs up to ~8.4s, plus +Inf.
const histBuckets = 24

// Histogram is a fixed-bucket exponential latency histogram. Observations
// are lock-free atomic increments; rendering sums the buckets cumulatively
// in the Prometheus fashion.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64
	sum    atomic.Int64 // nanoseconds
	n      atomic.Int64
}

// histBound returns the upper bound of finite bucket i, in seconds.
func histBound(i int) float64 { return float64(uint64(1)<<uint(i)) / 1e6 }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	us := uint64(ns) / 1000
	idx := 0
	if us > 0 {
		idx = bits.Len64(us - 1) // smallest i with us <= 2^i
	}
	if idx > histBuckets {
		idx = histBuckets
	}
	h.counts[idx].Add(1)
	h.sum.Add(ns)
	h.n.Add(1)
}

// Count reports how many observations were recorded.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Quantile estimates the p-quantile (p in [0,1]) of the recorded
// observations by linear interpolation between the bounds of the bucket the
// rank falls into. The estimate is therefore off by at most one bucket
// width — the bucket bounds grow exponentially (1µs·2^i), so the relative
// error is bounded by 2× at any scale. Observations in the overflow (+Inf)
// bucket are reported as the largest finite bound: a saturated histogram
// under-reports, it never invents latency. An empty histogram reports 0.
func (h *Histogram) Quantile(p float64) time.Duration {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	cum := int64(0)
	for i := 0; i <= histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			// Bounds in integer nanoseconds (1µs·2^i), so boundary
			// observations round-trip exactly instead of through floats.
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << uint(i-1) * 1000
			}
			if i == histBuckets {
				// Overflow bucket: no finite upper bound to interpolate
				// toward; clamp at its lower bound.
				return time.Duration(lo)
			}
			hi := int64(1) << uint(i) * 1000
			frac := (rank - float64(cum)) / float64(c)
			return time.Duration(float64(lo) + float64(hi-lo)*frac)
		}
		cum += c
	}
	// Unreachable when counts and n agree; be safe under racing observers.
	return time.Duration(int64(1) << uint(histBuckets-1) * 1000)
}

// quantilePoints are the pre-rendered quantiles every histogram exposes
// next to its buckets (the serving dashboard's p50/p95/p99 tiles).
var quantilePoints = []struct {
	p      float64
	suffix string
}{{0.50, "_p50"}, {0.95, "_p95"}, {0.99, "_p99"}}

// family is one metric name: its type, help text, and series per label set.
type family struct {
	name   string
	typ    string // "counter" | "gauge" | "histogram"
	help   string
	series map[string]any // label string (`k="v",...`) -> *Counter etc.
	order  []string
}

// Registry holds metric families. The zero value is not usable; use
// NewRegistry or the package Default.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string

	// collect hooks refresh pull-time series (e.g. Go runtime gauges)
	// before every render; runtimeOnce guards their one-time registration.
	collect     []func()
	runtimeOnce sync.Once
}

// Default is the process-wide registry every engine instrumentation site
// registers into.
var Default = NewRegistry()

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// labelKey renders "k1,v1,k2,v2,..." pairs as a stable label string.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	parts := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		parts = append(parts, labels[i]+`="`+labels[i+1]+`"`)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// lookup get-or-creates a series of the given type.
func (r *Registry) lookup(name, typ, help string, labels []string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, typ: typ, help: help, series: map[string]any{}}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	lk := labelKey(labels)
	s, ok := f.series[lk]
	if !ok {
		s = mk()
		f.series[lk] = s
		f.order = append(f.order, lk)
	}
	return s
}

// CounterOf registers (or returns the existing) counter series. labels are
// key/value pairs ("op", "Join").
func (r *Registry) CounterOf(name, help string, labels ...string) *Counter {
	return r.lookup(name, "counter", help, labels, func() any { return &Counter{} }).(*Counter)
}

// GaugeOf registers (or returns the existing) gauge series.
func (r *Registry) GaugeOf(name, help string, labels ...string) *Gauge {
	return r.lookup(name, "gauge", help, labels, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramOf registers (or returns the existing) histogram series.
func (r *Registry) HistogramOf(name, help string, labels ...string) *Histogram {
	return r.lookup(name, "histogram", help, labels, func() any { return &Histogram{} }).(*Histogram)
}

// Reset zeroes every series, keeping registrations (and the pointers call
// sites hold) intact. For tests and benchmark arms.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		for _, s := range f.series {
			switch m := s.(type) {
			case *Counter:
				m.v.Store(0)
			case *Gauge:
				m.v.Store(0)
			case *Histogram:
				for i := range m.counts {
					m.counts[i].Store(0)
				}
				m.sum.Store(0)
				m.n.Store(0)
			}
		}
	}
}

// OnCollect registers a hook run before every WritePrometheus/Snapshot
// render. Hooks must only touch series through the atomic Counter/Gauge/
// Histogram pointers they captured at registration (never re-register).
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.collect = append(r.collect, fn)
	r.mu.Unlock()
}

// runCollect fires the collect hooks outside the registry lock (hook writes
// are atomics, so renders never observe torn values).
func (r *Registry) runCollect() {
	r.mu.Lock()
	hooks := append([]func(){}, r.collect...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

func seriesName(name, lk, suffix string) string {
	if lk == "" {
		if suffix == "" {
			return name
		}
		return name + suffix
	}
	return name + suffix + "{" + lk + "}"
}

func histSeriesName(name, lk, suffix, le string) string {
	l := `le="` + le + `"`
	if lk != "" {
		l = lk + "," + l
	}
	return name + suffix + "{" + l + "}"
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runCollect()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.fams[name]
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ)
		for _, lk := range f.order {
			switch m := f.series[lk].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s %d\n", seriesName(name, lk, ""), m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s %d\n", seriesName(name, lk, ""), m.Value())
			case *Histogram:
				cum := int64(0)
				for i := 0; i < histBuckets; i++ {
					cum += m.counts[i].Load()
					fmt.Fprintf(w, "%s %d\n", histSeriesName(name, lk, "_bucket", formatBound(histBound(i))), cum)
				}
				cum += m.counts[histBuckets].Load()
				fmt.Fprintf(w, "%s %d\n", histSeriesName(name, lk, "_bucket", "+Inf"), cum)
				fmt.Fprintf(w, "%s %s\n", seriesName(name, lk, "_sum"),
					strconv.FormatFloat(float64(m.sum.Load())/1e9, 'g', -1, 64))
				fmt.Fprintf(w, "%s %d\n", seriesName(name, lk, "_count"), m.n.Load())
				for _, q := range quantilePoints {
					fmt.Fprintf(w, "%s %s\n", seriesName(name, lk, q.suffix),
						strconv.FormatFloat(m.Quantile(q.p).Seconds(), 'g', -1, 64))
				}
			}
		}
	}
	return nil
}

// Snapshot returns the registry as a JSON-marshalable map, the expvar view
// of the metrics: counters and gauges map to numbers, histograms to
// {count, sum_seconds, buckets}.
func (r *Registry) Snapshot() map[string]any {
	r.runCollect()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]any{}
	for _, name := range r.order {
		f := r.fams[name]
		for _, lk := range f.order {
			key := seriesName(name, lk, "")
			switch m := f.series[lk].(type) {
			case *Counter:
				out[key] = m.Value()
			case *Gauge:
				out[key] = m.Value()
			case *Histogram:
				buckets := map[string]int64{}
				for i := 0; i < histBuckets; i++ {
					if n := m.counts[i].Load(); n > 0 {
						buckets["le_"+formatBound(histBound(i))] = n
					}
				}
				if n := m.counts[histBuckets].Load(); n > 0 {
					buckets["le_inf"] = n
				}
				out[key] = map[string]any{
					"count":       m.n.Load(),
					"sum_seconds": float64(m.sum.Load()) / 1e9,
					"buckets":     buckets,
					"p50":         m.Quantile(0.50).Seconds(),
					"p95":         m.Quantile(0.95).Seconds(),
					"p99":         m.Quantile(0.99).Seconds(),
				}
			}
		}
	}
	return out
}
