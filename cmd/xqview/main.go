// Command xqview evaluates XQuery views over XML documents and maintains
// them incrementally under XQuery updates.
//
// Usage:
//
//	xqview -doc name=file.xml [-doc name2=file2.xml ...] -query query.xq \
//	       [-updates updates.xqu | -replay stream.jsonl] [-record stream.jsonl] \
//	       [-journal] [-explain view=flexkey] [-plan] [-sapt] [-report] \
//	       [-pretty] [-parallel N] [-readers N] \
//	       [-trace out.json] [-http :6060] [-serve] [-top] [-logjson] [-v] \
//	       [-fault site[:error|panic[:hit]]]
//
// The view is materialized and printed. With -updates, the update script is
// applied through the VPA pipeline and the refreshed view is printed; with
// -report, the maintenance breakdown is printed to stderr. Maintenance has
// one configuration: base operator tables are cached across update batches,
// views a batch cannot touch skip their Propagate+Apply phases, plan
// prefixes shared by several views propagate once per round, round
// transients live in an arena, and batches are compacted before validation.
//
// Observability: -trace records every VPA phase and XAT operator as spans
// and writes Chrome trace-event JSON (open in chrome://tracing or Perfetto
// at https://ui.perfetto.dev). -http serves /metrics (Prometheus text),
// /debug/vars (expvar), /debug/pprof/, /journal, /healthz and /stats/rounds
// (round-telemetry JSON: the windowed per-round sample ring plus phase
// latency quantiles, polled by cmd/xqtop) for the lifetime of the process;
// add -serve to keep the process alive for scraping after the run
// (SIGINT/SIGTERM shuts down and still flushes -trace and -journal output).
// -top draws the xqtop dashboard in-process instead of over HTTP.
//
// Snapshot serving: with -http, the read endpoints /view (a view's extent),
// /query?q= (ad-hoc XQuery) and /snapshot (epoch + contents digest) answer
// from lock-free MVCC snapshots — each response is one published version's
// bytes, served at full speed even while maintenance rounds commit.
// -readers N runs the mixed-workload mode: N concurrent snapshot readers
// serve the view in-process while -updates or -replay applies, and the
// drain report logs the reader latency p50/p99 (also exported as the
// xqview_read_seconds histogram).
//
// Provenance: -journal dumps the maintenance journal (per-round verdicts,
// operator lineage and apply fusions) as JSON; -explain view=key (or just
// -explain key) prints the causal chain for one view node — which update
// primitive produced it, through which plan operators, fused from which
// source nodes. -record file streams every applied update batch to a file;
// -replay file re-applies such a stream instead of -updates, reproducing
// the same maintenance rounds deterministically.
//
// Fault injection: -fault site[:error|panic[:hit]] arms one deterministic
// fault point (internal/faultinject) for the run — e.g. -fault
// deepunion.apply:panic:1 panics on the first extent merge. Maintenance
// rounds are transactional, so the failed round rolls back completely: the
// command prints the intact pre-round view plus the journal's abort record
// and exits non-zero. An unknown site lists the registered sites.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xqview"
	"xqview/internal/faultinject"
	"xqview/internal/journal"
	"xqview/internal/obs"
	"xqview/internal/top"
)

// journalExtras injects the journal ring's occupancy and recent abort
// records into the /stats/rounds payload — the obs layer cannot import the
// journal, so the context is threaded in here at the mounting layer.
func journalExtras() map[string]any {
	var aborted []any
	for _, r := range journal.Default.Rounds() {
		if r.Aborted {
			aborted = append(aborted, fmt.Sprintf("round %d: %s", r.ID, r.Error))
		}
	}
	m := map[string]any{
		"journal_rounds":  journal.Default.Len(),
		"journal_cap":     journal.Default.Cap(),
		"journal_dropped": journal.Default.Dropped(),
	}
	if aborted != nil {
		m["journal_aborted"] = aborted
	}
	return m
}

// testShutdown, when non-nil, replaces the SIGINT/SIGTERM wait in serve
// mode so tests can trigger a deterministic shutdown.
var testShutdown chan os.Signal

// waitShutdown blocks until the process receives SIGINT or SIGTERM (or, in
// tests, until testShutdown fires).
func waitShutdown() {
	ch := testShutdown
	if ch == nil {
		ch = make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(ch)
	}
	<-ch
}

type docFlags []string

func (d *docFlags) String() string { return strings.Join(*d, ",") }
func (d *docFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("expected name=file, got %q", v)
	}
	*d = append(*d, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "xqview:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("xqview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var docs docFlags
	fs.Var(&docs, "doc", "document to load, as name=file.xml (repeatable)")
	queryFile := fs.String("query", "", "file holding the XQuery view definition")
	updatesFile := fs.String("updates", "", "file holding XQuery update statements (optional)")
	showPlan := fs.Bool("plan", false, "print the compiled algebra plan to stderr")
	showSAPT := fs.Bool("sapt", false, "print the source access pattern tree to stderr")
	report := fs.Bool("report", false, "print the maintenance report to stderr")
	pretty := fs.Bool("pretty", false, "indent the printed view")
	parallel := fs.Int("parallel", 0, "max views maintained concurrently per batch (0 = GOMAXPROCS, 1 = sequential)")
	traceFile := fs.String("trace", "", "write Chrome trace-event JSON of the maintenance run to this file")
	httpAddr := fs.String("http", "", "serve /metrics, /debug/vars, /debug/pprof and /stats/rounds on this address (e.g. :6060)")
	serve := fs.Bool("serve", false, "with -http: keep serving after the run instead of exiting")
	topFlag := fs.Bool("top", false, "after the run, draw the in-process round-telemetry dashboard until interrupted (implies telemetry; combinable with -http)")
	logJSON := fs.Bool("logjson", false, "emit log lines as JSON instead of key=value text")
	verbose := fs.Bool("v", false, "log at debug level")
	journalDump := fs.Bool("journal", false, "dump the maintenance journal (verdicts, lineage, fusions) as JSON to stdout")
	explainKey := fs.String("explain", "", "explain why a view node exists, as view=flexkey (or just flexkey for the only view)")
	recordFile := fs.String("record", "", "stream every applied update batch to this file (replayable with -replay)")
	replayFile := fs.String("replay", "", "re-apply a recorded update stream instead of -updates")
	faultSpec := fs.String("fault", "", "inject a deterministic maintenance fault, as site[:error|panic[:hit]] (e.g. deepunion.apply:panic:1); the failed round rolls back and the view stays intact")
	readers := fs.Int("readers", 0, "mixed-workload mode: N concurrent snapshot readers serve the view while -updates/-replay applies, reporting read latency p50/p99")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(docs) == 0 || *queryFile == "" {
		fs.Usage()
		return fmt.Errorf("need at least one -doc and a -query")
	}
	if *updatesFile != "" && *replayFile != "" {
		return fmt.Errorf("-updates and -replay are mutually exclusive")
	}
	if *readers < 0 {
		return fmt.Errorf("-readers: want a non-negative count, got %d", *readers)
	}
	if *readers > 0 && *updatesFile == "" && *replayFile == "" {
		return fmt.Errorf("-readers needs -updates or -replay (readers measure reads concurrent with maintenance)")
	}
	if *journalDump || *explainKey != "" || *faultSpec != "" {
		// Journal this process's rounds from a clean slate, restoring the
		// prior state on return (tests run several CLI invocations in one
		// process). -fault needs the journal too: the abort record is the
		// user-visible evidence of what the rolled-back round attempted.
		defer journal.SetEnabled(journal.SetEnabled(true))
		journal.Default.Reset()
	}
	if *faultSpec != "" {
		if err := armFault(*faultSpec); err != nil {
			return err
		}
		defer faultinject.Reset()
	}

	hopts := &slog.HandlerOptions{Level: slog.LevelInfo}
	if *verbose {
		hopts.Level = slog.LevelDebug
	}
	var handler slog.Handler = slog.NewTextHandler(stderr, hopts)
	if *logJSON {
		handler = slog.NewJSONHandler(stderr, hopts)
	}
	log := slog.New(handler)

	db := xqview.NewDatabase()
	db.SetParallelism(*parallel)
	db.SetLogger(log)

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
		db.SetTracer(tracer)
		obs.SetEnabled(true)
	}
	if *topFlag || *readers > 0 {
		// The dashboard reads the round ring; recording must be on before
		// the first maintenance round runs. The reader pool likewise records
		// snapshot telemetry (epoch/readers gauges, read latency histogram).
		obs.SetEnabled(true)
	}
	if *httpAddr != "" {
		obs.SetEnabled(true)
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("observability endpoint: %w", err)
		}
		go newServer(db).Serve(ln)
		defer ln.Close()
		log.Info("observability endpoint up", "addr", ln.Addr().String(),
			"paths", "/metrics /debug/vars /debug/pprof/ /journal /stats/rounds /snapshot /view /query")
	}

	for _, d := range docs {
		name, file, _ := strings.Cut(d, "=")
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		if err := db.LoadDocument(name, string(data)); err != nil {
			return err
		}
		log.Debug("document loaded", "doc", name, "bytes", len(data))
	}
	query, err := os.ReadFile(*queryFile)
	if err != nil {
		return err
	}
	v, err := db.CreateView(string(query))
	if err != nil {
		return err
	}
	log.Debug("view materialized", "view", v.Name(), "self_maintainable", v.SelfMaintainable())
	if *showPlan {
		fmt.Fprintln(stderr, v.PlanString())
	}
	if *showSAPT {
		fmt.Fprintln(stderr, v.SAPTString())
	}
	if *recordFile != "" {
		f, err := os.Create(*recordFile)
		if err != nil {
			return fmt.Errorf("update recorder: %w", err)
		}
		defer f.Close()
		db.SetUpdateRecorder(f)
	}
	render := func() string {
		if *pretty {
			return v.XMLIndent()
		}
		return v.XML()
	}
	finish := func() error {
		if *topFlag {
			log.Info("dashboard up; interrupt to quit")
			topLoop(stdout)
			log.Info("shutting down; flushing observability output")
		} else if *httpAddr != "" && *serve {
			log.Info("serving until interrupted", "addr", *httpAddr)
			waitShutdown()
			log.Info("shutting down; flushing observability output")
		}
		if tracer != nil {
			f, err := os.Create(*traceFile)
			if err != nil {
				return err
			}
			if err := tracer.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			log.Info("trace written", "file", *traceFile, "events", tracer.Len())
		}
		if *explainKey != "" {
			view, key := v.Name(), *explainKey
			if vw, k, ok := strings.Cut(*explainKey, "="); ok {
				view, key = vw, k
			}
			chain, err := journal.Default.Explain(view, key)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, chain)
		}
		if *journalDump {
			if err := journal.Default.WriteJSON(stdout); err != nil {
				return err
			}
		}
		return nil
	}
	if *updatesFile == "" && *replayFile == "" {
		fmt.Fprintln(stdout, render())
		return finish()
	}
	fmt.Fprintln(stderr, "-- initial extent --")
	fmt.Fprintln(stderr, render())
	var stopReaders func() readerReport
	if *readers > 0 {
		stopReaders = startReaders(db, v.Name(), *readers)
		log.Info("mixed-workload readers up", "readers", *readers)
	}
	drainReaders := func() {
		if stopReaders == nil {
			return
		}
		rep := stopReaders()
		stopReaders = nil
		log.Info("mixed-workload readers drained", "readers", *readers,
			"reads", rep.Reads, "read_errors", rep.Errors,
			"read_p50", rep.P50, "read_p99", rep.P99)
	}
	defer drainReaders() // aborted rounds must still drain the pool
	if *replayFile != "" {
		f, err := os.Open(*replayFile)
		if err != nil {
			return err
		}
		n, err := db.ReplayUpdates(f)
		f.Close()
		if err != nil {
			return reportAbort(stdout, render, err)
		}
		log.Info("update stream replayed", "file", *replayFile, "batches", n)
	} else {
		script, err := os.ReadFile(*updatesFile)
		if err != nil {
			return err
		}
		rep, err := v.ApplyUpdates(string(script))
		if err != nil {
			return reportAbort(stdout, render, err)
		}
		if *report {
			fmt.Fprintln(stderr, rep)
		}
	}
	drainReaders()
	fmt.Fprintln(stdout, render())
	return finish()
}

// topLoop draws the in-process round-telemetry dashboard until the process
// is interrupted: the same renderer cmd/xqtop uses, fed straight from the
// obs registry and round ring instead of over HTTP. On a real terminal it
// redraws in place on the alternate screen; piped output (tests, captures)
// gets plain full frames.
func topLoop(w io.Writer) {
	width, height := 80, 24
	isTerm := false
	if f, ok := w.(*os.File); ok {
		if tw, th, ok := top.TermSize(f.Fd()); ok {
			width, height, isTerm = tw, th, true
		}
	}
	if isTerm {
		fmt.Fprint(w, "\x1b[?1049h\x1b[?25l\x1b[2J")
		defer fmt.Fprint(w, "\x1b[?25h\x1b[?1049l")
	}
	done := make(chan struct{})
	go func() {
		waitShutdown()
		close(done)
	}()
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		frame := top.Render(obs.BuildRoundsPayload(obs.Rounds, journalExtras), width, height)
		if isTerm {
			fmt.Fprint(w, "\x1b[H", frame)
		} else {
			fmt.Fprintln(w, frame)
		}
		select {
		case <-done:
			return
		case <-tick.C:
		}
	}
}

// armFault parses -fault's site[:error|panic[:hit]] spec and arms the
// matching fault point.
func armFault(spec string) error {
	site, rest, _ := strings.Cut(spec, ":")
	mode := faultinject.ModeError
	hit := 1
	if rest != "" {
		m, h, _ := strings.Cut(rest, ":")
		switch m {
		case "error":
		case "panic":
			mode = faultinject.ModePanic
		default:
			return fmt.Errorf("-fault: unknown mode %q (want error or panic)", m)
		}
		if h != "" {
			n, err := strconv.Atoi(h)
			if err != nil || n < 1 {
				return fmt.Errorf("-fault: bad hit count %q", h)
			}
			hit = n
		}
	}
	if err := faultinject.Arm(site, mode, hit); err != nil {
		return fmt.Errorf("-fault: %w (registered sites: %s)",
			err, strings.Join(faultinject.Sites(), ", "))
	}
	return nil
}

// reportAbort handles a failed maintenance run. When the journal holds an
// aborted round — the round was rolled back transactionally — it prints the
// (intact, pre-round) view and the round's abort record so the failure is
// inspectable, then passes the error through. Errors with no aborted round
// (parse errors, bad replay files) pass through silently.
func reportAbort(stdout io.Writer, render func() string, err error) error {
	rounds := journal.Default.Rounds()
	var abort *journal.Round
	for i := len(rounds) - 1; i >= 0; i-- {
		if rounds[i].Aborted {
			abort = rounds[i]
			break
		}
	}
	if abort == nil {
		return err
	}
	fmt.Fprintln(stdout, "-- maintenance failed; round rolled back, view unchanged --")
	fmt.Fprintln(stdout, render())
	fmt.Fprintln(stdout, "-- journal abort record --")
	if buf, jerr := json.MarshalIndent(abort, "", "  "); jerr == nil {
		fmt.Fprintln(stdout, string(buf))
	}
	return err
}
