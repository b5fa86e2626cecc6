// Command xbench regenerates the measured figures of the dissertation's
// evaluation (Ch 3.5, Ch 4.8, Ch 9) and prints their data series.
//
// Usage:
//
//	xbench                 # all figures at default scale
//	xbench -fig 9.2        # one figure
//	xbench -scale 0.25     # smaller sweeps
//	xbench -markdown       # markdown tables (for EXPERIMENTS.md)
//
// Parallel maintenance speedup and observability overhead are not figures
// here: the benchmark (go run ./benchmark) reports them as core.pool_speedup
// and obs.trace_overhead_pct.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xqview/internal/bench"
)

var runners = map[string]func(float64) (*bench.Figure, error){
	"3.7": bench.Fig3_7, "3.8": bench.Fig3_8, "3.9": bench.Fig3_9, "3.10": bench.Fig3_10,
	"4.9": bench.Fig4_9, "4.10": bench.Fig4_10,
	"9.1": bench.Fig9_1, "9.2": bench.Fig9_2, "9.3": bench.Fig9_3,
	"9.4": bench.Fig9_4, "9.5": bench.Fig9_5, "9.6": bench.Fig9_6,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("xbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure id to run (e.g. 9.2); empty = all")
	scale := fs.Float64("scale", 1.0, "dataset scale factor")
	markdown := fs.Bool("markdown", false, "emit markdown tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var figs []*bench.Figure
	if *fig != "" {
		r, ok := runners[*fig]
		if !ok {
			return fmt.Errorf("unknown figure %q (known: 3.7 3.8 3.9 3.10 4.9 4.10 9.1..9.6)", *fig)
		}
		f, err := r(*scale)
		if err != nil {
			return err
		}
		figs = append(figs, f)
	} else {
		all, err := bench.All(*scale)
		if err != nil {
			return err
		}
		figs = all
	}
	for _, f := range figs {
		if *markdown {
			printMarkdown(stdout, f)
		} else {
			fmt.Fprintln(stdout, f.String())
		}
	}
	return nil
}

func printMarkdown(w io.Writer, f *bench.Figure) {
	fmt.Fprintf(w, "### %s — %s\n\n", f.ID, f.Title)
	if f.Note != "" {
		fmt.Fprintf(w, "_%s_\n\n", f.Note)
	}
	fmt.Fprintln(w, "| "+strings.Join(f.Columns, " | ")+" |")
	seps := make([]string, len(f.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintln(w, "| "+strings.Join(seps, " | ")+" |")
	for _, r := range f.Rows {
		fmt.Fprintln(w, "| "+strings.Join(r, " | ")+" |")
	}
	fmt.Fprintln(w)
}
