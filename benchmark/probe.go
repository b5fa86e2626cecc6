package main

import (
	"runtime"
	"time"

	"xqview/internal/compile"
	"xqview/internal/core"
	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// prober times single exported functions of the engine's modules, on a side
// store loaded with the same documents or on a held snapshot of the measured
// database. These are the layer numbers neither the reports nor the spans
// reach: compile, script evaluation, compaction, materialization, reads.
type prober struct {
	e    *env
	docs []doc
	seed int64
	errs []string
}

// timeMedian runs f n times and returns the median duration.
func timeMedian(n int, f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func usOf(d time.Duration) float64 { return float64(d) / float64(us) }
func msOf(d time.Duration) float64 { return float64(d) / float64(ms) }

// must records a probe error; a failing probe leaves its metric at zero and
// fails the run.
func (p *prober) must(what string, err error) bool {
	if err != nil {
		p.errs = append(p.errs, what+": "+err.Error())
	}
	return err == nil
}

// run fills v with the probe metrics and returns what failed.
func (p *prober) run(v map[string]float64) []string {
	w, db := p.e.w, p.e.db

	// compile
	var plans []float64
	for _, q := range w.views {
		plans = append(plans, usOf(timeMedian(3, func() {
			_, err := compile.Compile(q)
			p.must("compile view", err)
		})))
	}
	v["compile.view_plan_us"] = mean(plans)
	v["compile.adhoc_query_us"] = usOf(timeMedian(20, func() {
		_, err := compile.Compile(queryAdhoc)
		p.must("compile ad-hoc query", err)
	}))

	// update: the first scripts of the run's own generator, against a side
	// store holding the same documents.
	side := xmldoc.NewStore()
	for _, d := range p.docs {
		_, err := side.Load(d.name, d.xml)
		p.must("side load "+d.name, err)
	}
	gen := w.generator(p.seed)
	var evals, compacts []float64
	for i := 0; i < 24; i++ {
		script := gen(i).script
		var prims []*update.Primitive
		evals = append(evals, usOf(timeMedian(1, func() {
			var err error
			prims, err = update.ParseAndEvaluate(side, script)
			p.must("parse+evaluate", err)
		})))
		compacts = append(compacts, usOf(timeMedian(3, func() { update.CompactBatch(prims) })))
	}
	v["update.parse_eval_us"] = median(evals)
	v["update.compact_us"] = median(compacts)

	// core: materialization from scratch, and the paper's baseline —
	// recomputing the view's query on the published version.
	v["core.materialize_ms"] = msOf(timeMedian(3, func() {
		_, err := core.NewView(side, w.views[0])
		p.must("materialize", err)
	}))
	v["core.recompute_ms"] = msOf(timeMedian(3, func() {
		_, err := db.Query(w.views[0])
		p.must("recompute", err)
	}))

	// core / xmldoc reads on one held snapshot.
	const acquires = 20000
	t0 := time.Now()
	for i := 0; i < acquires; i++ {
		db.Snapshot().Release()
	}
	v["core.snap_acquire_ns"] = float64(time.Since(t0)) / acquires
	snap := db.Snapshot()
	view := p.e.names[w.readView]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const frames = 40
	v["core.frame_xml_us"] = usOf(timeMedian(frames, func() {
		_, err := snap.ViewXML(view)
		p.must("ViewXML", err)
	}))
	runtime.ReadMemStats(&m1)
	v["core.frame_xml_alloc_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / frames
	v["core.query_exec_us"] = usOf(timeMedian(20, func() {
		_, err := snap.Query(queryAdhoc)
		p.must("Query", err)
	}))
	v["xmldoc.document_xml_us"] = usOf(timeMedian(5, func() {
		_, err := snap.DocumentXML("bib.xml")
		p.must("DocumentXML", err)
	}))
	snap.Release()

	p.depths(v)
	p.poolSpeedup(v)
	return p.errs
}

// depths times the ad-hoc query on snapshots whose store overlay chain is
// short (≤2) and long (≥12): two flattening cycles of further rounds.
func (p *prober) depths(v map[string]float64) {
	var lo, hi []float64
	for i := 0; i < 36; i++ {
		_, err := p.e.db.ApplyUpdates(p.e.gen(p.e.next).script)
		p.e.next++
		if !p.must("depth probe round", err) {
			return
		}
		snap := p.e.db.Snapshot()
		d := snap.StoreDepth()
		if d <= 2 || d >= 12 {
			t := usOf(timeMedian(3, func() {
				_, err := snap.Query(queryAdhoc)
				p.must("depth probe query", err)
			}))
			if d <= 2 {
				lo = append(lo, t)
			} else {
				hi = append(hi, t)
			}
		}
		snap.Release()
	}
	v["xmldoc.query_us_depth_lo"] = median(lo)
	v["xmldoc.query_us_depth_hi"] = median(hi)
}

// poolSpeedup compares closed-loop round throughput at the default pool size
// with SetParallelism(1), each on a fresh database.
func (p *prober) poolSpeedup(v map[string]float64) {
	rounds := min(int(p.e.w.rate), 600)
	rate := func(parallelism int) float64 {
		e, err := setUp(p.e.w, p.docs, p.seed, nil, parallelism)
		if !p.must("pool probe set-up", err) {
			return 0
		}
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			_, err := e.db.ApplyUpdates(e.gen(e.next).script)
			e.next++
			if !p.must("pool probe round", err) {
				return 0
			}
		}
		return float64(rounds) / time.Since(t0).Seconds()
	}
	v["core.pool_speedup"] = ratio(rate(0), rate(1))
}
