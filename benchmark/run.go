package main

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xqview"
	"xqview/internal/obs"
)

// env is one set-up database plus the state of its script generator.
type env struct {
	w     *workload
	db    *xqview.Database
	views []*xqview.View
	names []string // view names, registration order
	gen   func(int) op
	next  int // next generator index; carries on from warm-up

	// tr is nil outside the traced pass (a nil tracer records nothing). The
	// traced pass swaps it while the reader goroutine runs.
	tr atomic.Pointer[obs.Tracer]

	loads, creates []time.Duration // per LoadDocument / CreateView call
	docBytes       int             // XML bytes loaded
}

// fastPath switches on the production configuration. The switches are
// reached through optional interfaces so that a later change which deletes a
// toggle (making its fast arm the only one) needs no edit here.
func fastPath(db *xqview.Database) {
	d := any(db)
	if s, ok := d.(interface{ SetCacheBaseTables(bool) }); ok {
		s.SetCacheBaseTables(true)
	}
	if s, ok := d.(interface{ SetSkipDisjointViews(bool) }); ok {
		s.SetSkipDisjointViews(true)
	}
	if s, ok := d.(interface{ SetShareSubplans(bool) }); ok {
		s.SetShareSubplans(true)
	}
	if s, ok := d.(interface{ SetArena(bool) }); ok {
		s.SetArena(true)
	}
	if s, ok := d.(interface{ SetCompaction(bool) }); ok {
		s.SetCompaction(true)
	}
}

// setUp builds the workload's database: documents loaded, views created,
// warm-up rounds applied. Its wall time is the setup_s metric. parallelism 0
// is the engine default.
func setUp(w *workload, docs []doc, seed int64, tr *obs.Tracer, parallelism int) (*env, error) {
	db := xqview.NewDatabase()
	fastPath(db)
	db.SetParallelism(parallelism)
	e := &env{w: w, db: db, gen: w.generator(seed)}
	e.setTracer(tr)
	for _, d := range docs {
		sp := tr.StartSpan("api.LoadDocument")
		t0 := time.Now()
		err := db.LoadDocument(d.name, d.xml)
		e.loads = append(e.loads, time.Since(t0))
		e.docBytes += len(d.xml)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", d.name, err)
		}
	}
	for i, q := range w.views {
		sp := tr.StartSpan("api.CreateView")
		t0 := time.Now()
		v, err := db.CreateView(q)
		e.creates = append(e.creates, time.Since(t0))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("create view %d: %w", i, err)
		}
		e.views = append(e.views, v)
		e.names = append(e.names, v.Name())
	}
	for i := 0; i < w.warm; i++ {
		if _, err := db.ApplyUpdates(e.gen(e.next).script); err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", i, err)
		}
		e.next++
	}
	return e, nil
}

// setTracer points the engine's spans and the benchmark's own at tr.
func (e *env) setTracer(tr *obs.Tracer) {
	e.db.SetTracer(tr)
	e.tr.Store(tr)
}

// counters are the process-wide resource readings differenced over a window.
type counters struct {
	cpu            time.Duration // user + system
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	gcCPU          float64 // seconds of CPU spent in the collector
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	c := counters{
		cpu:      cpuTime(),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = gc[0].Value.Float64()
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{c.cpu - o.cpu, c.mallocs - o.mallocs, c.bytes - o.bytes,
		c.gcCycles - o.gcCycles, c.gcPause - o.gcPause, c.gcCPU - o.gcCPU}
}

func (c counters) add(o counters) counters {
	return counters{c.cpu + o.cpu, c.mallocs + o.mallocs, c.bytes + o.bytes,
		c.gcCycles + o.gcCycles, c.gcPause + o.gcPause, c.gcCPU + o.gcCPU}
}

// reportSums accumulates the MaintenanceReports the public API returns.
type reportSums struct {
	rounds                                          int
	wall, validate, propagate, apply, source, total time.Duration
	updates, irrelevant, views, skipped             int
	merged, inserted, removed, modified             int
}

func (s *reportSums) add(wall time.Duration, reps []*xqview.MaintenanceReport) {
	s.rounds++
	s.wall += wall
	if len(reps) == 0 {
		return
	}
	// Validate, Source and Total are per batch; the rest are per view.
	s.validate += reps[0].Validate
	s.source += reps[0].Source
	s.total += reps[0].Total
	s.updates += reps[0].UpdatesTotal
	s.irrelevant += reps[0].UpdatesIrrelevant
	for _, r := range reps {
		s.views++
		if r.Skipped {
			s.skipped++
		}
		s.propagate += r.Propagate
		s.apply += r.Apply
		s.merged += r.NodesMerged
		s.inserted += r.NodesInserted
		s.removed += r.FragmentsRemoved
		s.modified += r.ValuesModified
	}
}

// mark is the state at the end of a round segment: rounds done, and the
// write time and process CPU spent on rounds so far.
type mark struct {
	rounds  int
	at, cpu time.Duration
}

// window is everything one measured window observed.
type window struct {
	dur       time.Duration // time spent on rounds (and, paced, the concurrent reads)
	rounds    []sample
	reads     []sample
	late      []float64 // generator lateness, µs (open-loop only)
	res       counters  // over the same time as dur
	marks     []mark    // one per round segment (endToEnd reads a window filled by one measure call)
	liveSum   float64   // live heap bytes, summed over one reading per round
	rep       reportSums
	attempted int
	failed    int
	errs      []string // first few failures, for the log
	onRound   func()   // traced pass: called after each round, writer goroutine
}

func (win *window) fail(format string, args ...any) {
	win.failed++
	if len(win.errs) < 5 {
		win.errs = append(win.errs, fmt.Sprintf(format, args...))
	}
}

// round applies the next generated script, timed from due.
func (win *window) round(e *env, due time.Time, o op) {
	sp := e.tr.Load().StartSpan("api.ApplyUpdates")
	if sp.Enabled() {
		sp.Arg("round", e.next)
	}
	t0 := time.Now()
	reps, err := e.db.ApplyUpdates(o.script)
	end := time.Now()
	sp.End()
	e.next++
	win.rounds = append(win.rounds, sample{lat: end.Sub(due), kind: o.kind})
	win.attempted++
	if err != nil {
		win.fail("round %d: %v", e.next-1, err)
	}
	win.rep.add(end.Sub(t0), reps)
	win.liveSum += float64(liveHeap())
	if win.onRound != nil {
		win.onRound()
	}
}

var hashSeed = maphash.MakeSeed()

// reader issues snapshot reads and checks them: four of five serialize the
// workload's read view, one of five runs the ad-hoc query. Bodies are hashed
// after the timer stops; two reads at one epoch must agree and epochs must
// not go backwards.
type reader struct {
	e         *env
	view      string
	n         int // reads issued
	samples   []sample
	late      []float64
	lastEpoch uint64
	seen      [2]map[uint64]uint64 // epoch → body hash, per read kind
	errs      []string
}

func newReader(e *env) *reader {
	return &reader{e: e, view: e.names[e.w.readView], seen: [2]map[uint64]uint64{{}, {}}}
}

func (r *reader) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// do performs the next read, timed from due.
func (r *reader) do(due time.Time) {
	j := r.n
	r.n++
	kind, which := opViewRead, 0
	if j%5 == 4 {
		kind, which = opQueryRead, 1
	}
	parent := r.e.tr.Load().StartSpan("api.read")
	if parent.Enabled() {
		parent.Arg("read", j)
	}
	sp := parent.Child("api.Snapshot")
	snap := r.e.db.Snapshot()
	sp.End()
	var body string
	var err error
	if kind == opQueryRead {
		sp = parent.Child("api.Query")
		body, err = snap.Query(queryAdhoc)
	} else {
		sp = parent.Child("api.ViewXML")
		body, err = snap.ViewXML(r.view)
	}
	sp.End()
	epoch := snap.Epoch()
	sp = parent.Child("api.Release")
	snap.Release()
	sp.End()
	end := time.Now()
	parent.End()
	r.samples = append(r.samples, sample{lat: end.Sub(due), kind: kind})

	switch h := maphash.String(hashSeed, body); {
	case err != nil:
		r.fail("read %d: %v", j, err)
	case body == "":
		r.fail("read %d: empty body", j)
	case epoch < r.lastEpoch:
		r.fail("read %d: epoch went back %d -> %d", j, r.lastEpoch, epoch)
	default:
		if prev, ok := r.seen[which][epoch]; ok && prev != h {
			r.fail("read %d: two bodies at epoch %d", j, epoch)
		}
		r.seen[which][epoch] = h
		r.lastEpoch = epoch
	}
}

// paced runs n reads on a fixed schedule (open loop).
func (r *reader) paced(n int, period time.Duration, start time.Time) {
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(j) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.late = append(r.late, float64(time.Since(due))/float64(us))
		r.do(due)
	}
}

// measure runs one window of the workload against a set-up database, adding
// what it observes to win.
func measure(e *env, lim limit, win *window) {
	rd := newReader(e)
	runtime.GC()
	if e.w.paced {
		measurePaced(e, lim, win, rd)
	} else {
		measureClosed(e, lim, win, rd)
	}
	win.reads = append(win.reads, rd.samples...)
	win.late = append(win.late, rd.late...)
	win.attempted += rd.n
	for _, msg := range rd.errs {
		win.fail("%s", msg)
	}
}

// measureClosed runs the closed-loop writer alone, one segment of rounds at
// a time, with a burst of idle reads after each segment. Spreading the reads
// over the whole window gives their quiet quartile the same chance of
// finding an undisturbed stretch as the rounds'. Time, CPU and allocation are
// counted over the round segments only.
func measureClosed(e *env, lim limit, win *window, rd *reader) {
	start := time.Now()
	var dur time.Duration
	var res counters
	for k := 0; k < segments && time.Since(start) < lim.cap; k++ {
		c0, t0 := readCounters(), time.Now()
		for i := bound(k, lim.rounds); i < bound(k+1, lim.rounds); i++ {
			o := e.gen(e.next)
			win.round(e, time.Now(), o)
		}
		dur += time.Since(t0)
		res = res.add(readCounters().sub(c0))
		win.marks = append(win.marks, mark{bound(k+1, lim.rounds), dur, res.cpu})
		for j := bound(k, lim.reads); j < bound(k+1, lim.reads); j++ {
			rd.do(time.Now())
		}
	}
	win.dur += dur
	win.res = win.res.add(res)
}

// measurePaced runs the open-loop writer beside the open-loop reader. Each
// round is timed from the moment it was due.
func measurePaced(e *env, lim limit, win *window, rd *reader) {
	w := e.w
	period := time.Duration(float64(time.Second) / w.rate)
	c0 := readCounters()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.paced(lim.rounds*w.readsPerRound, period/time.Duration(w.readsPerRound), start)
	}()
	seg := 0
	for i := 0; i < lim.rounds && time.Since(start) < lim.cap; i++ {
		o := e.gen(e.next)
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		win.late = append(win.late, float64(time.Since(due))/float64(us))
		win.round(e, due, o)
		if i+1 == bound(seg+1, lim.rounds) {
			win.marks = append(win.marks, mark{i + 1, time.Since(start), cpuTime() - c0.cpu})
			seg++
		}
	}
	wg.Wait()
	win.dur += time.Since(start)
	win.res = win.res.add(readCounters().sub(c0))
}

// oracle is the paper's refresh theorem: on one snapshot, every maintained
// extent must equal the recomputation of its query, byte for byte, and the
// view handle must serve the same bytes.
func oracle(e *env, win *window) {
	snap := e.db.Snapshot()
	defer snap.Release()
	for i, v := range e.views {
		win.attempted++
		got, err := snap.ViewXML(e.names[i])
		if err != nil {
			win.fail("oracle view %d: %v", i, err)
			continue
		}
		want, err := snap.Query(v.Query())
		switch {
		case err != nil:
			win.fail("oracle view %d: recompute: %v", i, err)
		case got != want:
			win.fail("oracle view %d: maintained extent (%d B) differs from recomputation (%d B)", i, len(got), len(want))
		case v.XML() != got:
			win.fail("oracle view %d: View.XML differs from Snapshot.ViewXML", i)
		}
	}
}

// liveHeap is the heap the most recent garbage collection found reachable.
// Collections run several times a second under every workload, so reading
// the runtime's figure after every round follows the live heap through the
// window without forcing collections into it. What stays reachable depends
// on which copy-on-write slabs the latest rounds happen to pin, so one
// reading at the window's end swings by a third between seeds; the mean over
// the window does not.
func liveHeap() uint64 {
	metrics.Read(liveSample)
	if liveSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return liveSample[0].Value.Uint64()
}

// liveSample is reused by every liveHeap call (the writer goroutine's only),
// so the reading adds no allocation to the rounds it is taken between.
var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

const (
	us = time.Microsecond
	ms = time.Millisecond
)

// endToEnd derives the end-to-end metrics from a window.
func endToEnd(win *window, setup float64) map[string]float64 {
	n := float64(len(win.rounds))
	var rates, cpus []float64
	var prev mark
	for _, m := range win.marks {
		rounds := float64(m.rounds - prev.rounds)
		if rounds == 0 {
			continue // fewer rounds than segments
		}
		rates = append(rates, rounds/(m.at-prev.at).Seconds())
		cpus = append(cpus, float64(m.cpu-prev.cpu)/float64(ms)/rounds)
		prev = m
	}
	return map[string]float64{
		"setup_s":            setup,
		"round_p50_ms":       quietLatency(win.rounds, 0.5, ms, nil),
		"rounds_per_s":       quiet(rates, true),
		"cpu_ms_per_round":   quiet(cpus, false),
		"allocs_per_round":   ratio(float64(win.res.mallocs), n),
		"alloc_kb_per_round": ratio(float64(win.res.bytes)/1024, n),
		"live_heap_mb":       ratio(win.liveSum/(1<<20), n),
		"view_read_p50_us":   quietLatency(win.reads, 0.5, us, ofKind(opViewRead)),
		"query_read_p50_us":  quietLatency(win.reads, 0.5, us, ofKind(opQueryRead)),
	}
}
