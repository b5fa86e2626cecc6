// Command benchmark is the repository's one benchmark: seeded, end to end
// through the public xqview API (update script in → Database.ApplyUpdates →
// version published → Snapshot.ViewXML / Snapshot.Query bytes out), checked
// against the paper's recompute oracle, with a separate traced pass that
// attributes time to the engine's modules. See README.md.
//
// One workload, as the driver runs it (the last stdout line is the result):
//
//	go run ./benchmark --workload feed-small --seed 1 --seconds 15 --trace 0
//
// The whole suite, every metric by name (untraced pass, then traced pass):
//
//	go run ./benchmark -seed 1
//
// Two untraced sets of the same tree, compared against BENCHMARK.json's bounds:
//
//	go run ./benchmark -repeat 2 -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one run, in the driver's shape.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run sets the database up; setup_s is the
// median, the measured window uses the last one.
const setupRepeats = 3

// runUntraced is the end-to-end pass: telemetry off, no tracer.
func runUntraced(w *workload, seed int64, lim limit) (*outcome, error) {
	docs := w.documents(seed)
	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		e = nil // let the previous database go before timing the next
		t0 := time.Now()
		var err error
		if e, err = setUp(w, docs, seed, nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	win := &window{}
	measure(e, lim, win)
	vals := endToEnd(win, median(setups))
	oracle(e, win)
	fmt.Printf("%s seed=%d: %d rounds in %.2fs, %d reads; attempted=%d failed=%d ops_failed_share=%g\n",
		w.name, seed, len(win.rounds), win.dur.Seconds(), len(win.reads), win.attempted, win.failed,
		ratio(float64(win.failed), float64(win.attempted)))
	for _, msg := range win.errs {
		fmt.Println("  FAIL:", msg)
	}
	return result(endToEndMetrics, vals, win), nil
}

func result(defs []metricDef, vals map[string]float64, win *window) *outcome {
	out := &outcome{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

func printMetrics(workload string, defs []metricDef, o *outcome) {
	for _, d := range defs {
		fmt.Printf("  %-12s %-36s %16.4f %s\n", workload, d.name, o.Metrics[d.name].Value, d.unit)
	}
}

// manifest is the part of BENCHMARK.json the -check mode reads.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// check compares every later set with the first, metric by metric and
// workload by workload, against the manifest's bounds. It reports whether all
// agree.
func check(m *manifest, sets []map[string]*outcome) bool {
	ok := true
	for _, w := range workloads {
		for _, def := range m.EndToEnd {
			a := sets[0][w.name].Metrics[def.Name].Value
			for i, set := range sets[1:] {
				diff := ratio(set[w.name].Metrics[def.Name].Value-a, a)
				verdict := "ok"
				if math.Abs(diff) > def.Bound {
					verdict, ok = "BREACH", false
				}
				fmt.Printf("  %-12s %-20s set 1 vs %d: %+7.2f%%  bound %5.1f%%  %s\n",
					w.name, def.Name, i+2, 100*diff, 100*def.Bound, verdict)
			}
		}
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs the whole suite")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 15, "nominal measured seconds per run (sizes the fixed work)")
		trace   = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and reports per-layer metrics")
		repeat  = flag.Int("repeat", 1, "suite: how many untraced sets to run")
		doCheck = flag.Bool("check", false, "suite: compare the sets against BENCHMARK.json's bounds instead of running the traced pass")
		outDir  = flag.String("out", "benchmark/out", "directory for trace files")
	)
	flag.Parse()

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		var o *outcome
		var err error
		defs := endToEndMetrics
		if *trace == 0 {
			o, err = runUntraced(w, *seed, w.plan(*seconds))
		} else {
			defs = perLayerMetrics
			o, err = runTraced(w, *seed, w.plan(*seconds), *outDir)
		}
		if err != nil {
			fatal(err)
		}
		printMetrics(w.name, defs, o)
		line, err := json.Marshal(o)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !o.Correct {
			os.Exit(1)
		}
		return
	}

	var m manifest
	if *doCheck {
		raw, err := os.ReadFile("BENCHMARK.json")
		if err == nil {
			err = json.Unmarshal(raw, &m)
		}
		if err != nil {
			fatal(fmt.Errorf("-check needs BENCHMARK.json in the working directory: %w", err))
		}
	}
	correct := true
	var sets []map[string]*outcome
	for r := 0; r < *repeat; r++ {
		set := map[string]*outcome{}
		for _, w := range workloads {
			o, err := runUntraced(w, *seed, w.plan(*seconds))
			if err != nil {
				fatal(err)
			}
			printMetrics(w.name, endToEndMetrics, o)
			set[w.name] = o
			correct = correct && o.Correct
		}
		sets = append(sets, set)
	}
	if *doCheck {
		correct = check(&m, sets) && correct
	} else {
		for _, w := range workloads {
			o, err := runTraced(w, *seed, w.plan(*seconds), *outDir)
			if err != nil {
				fatal(err)
			}
			printMetrics(w.name, perLayerMetrics, o)
			correct = correct && o.Correct
		}
	}
	if !correct {
		os.Exit(1)
	}
}
