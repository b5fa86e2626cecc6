// Package bench is the experiment harness: it regenerates the data series
// behind every measured figure of the dissertation's evaluation (Ch 3.5,
// Ch 4.8, Ch 9) on the synthetic XMark-style and bib/prices datasets.
// Absolute numbers differ from the paper's (different machine, in-memory
// store, Go engine); the harness reproduces the shapes: who wins, how costs
// scale, and where the breakdowns lie.
package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"xqview/internal/core"
	"xqview/internal/obs"
	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// Figure is one reproduced table/figure: a labelled grid of formatted
// values.
type Figure struct {
	ID      string
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// String renders the figure as an aligned text table.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	if f.Note != "" {
		fmt.Fprintf(&b, "  (%s)\n", f.Note)
	}
	widths := make([]int, len(f.Columns))
	for i, c := range f.Columns {
		widths[i] = len(c)
	}
	for _, r := range f.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(f.Columns)
	for _, r := range f.Rows {
		line(r)
	}
	return b.String()
}

// ms formats a duration in milliseconds with three decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

func pct(part, whole time.Duration) string {
	if whole == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(part)/float64(whole))
}

// selfTimes folds the spans of one trace track into self time — a span's
// duration less its direct children's — summed per span name up to '#', so
// the "Kind#id" spans of operators fold by kind.
func selfTimes(evs []obs.Event) map[string]time.Duration {
	type open struct {
		end  int64 // ns since the tracer started
		kind string
	}
	ns := func(us float64) int64 { return int64(math.Round(us * 1e3)) }
	self := map[string]time.Duration{}
	var stack []open // the enclosing spans, innermost last
	for _, ev := range evs {
		if ev.Ph != "X" {
			continue
		}
		start, dur := ns(ev.TS), ns(ev.Dur)
		for len(stack) > 0 && start >= stack[len(stack)-1].end {
			stack = stack[:len(stack)-1]
		}
		kind, _, _ := strings.Cut(ev.Name, "#")
		self[kind] += time.Duration(dur)
		if len(stack) > 0 {
			self[stack[len(stack)-1].kind] -= time.Duration(dur)
		}
		stack = append(stack, open{start + dur, kind})
	}
	return self
}

// timeRecompute measures the full-recomputation baseline: clone, apply,
// re-materialize.
func timeRecompute(store *xmldoc.Store, query string, prims []*update.Primitive) (time.Duration, error) {
	t0 := time.Now()
	_, err := core.Recompute(store, query, prims)
	return time.Since(t0), err
}

// clonePrims deep-copies primitives so a measurement does not consume the
// originals (keys are assigned during application).
func clonePrims(prims []*update.Primitive) []*update.Primitive {
	out := make([]*update.Primitive, len(prims))
	for i, p := range prims {
		cp := *p
		if p.Frag != nil {
			cp.Frag = p.Frag.Clone()
		}
		out[i] = &cp
	}
	return out
}

// All runs every figure at the given scale factor (1.0 = default sizes).
func All(scale float64) ([]*Figure, error) {
	runners := []func(float64) (*Figure, error){
		Fig3_7, Fig3_8, Fig3_9, Fig3_10,
		Fig4_9, Fig4_10,
		Fig9_1, Fig9_2, Fig9_3, Fig9_4, Fig9_5, Fig9_6,
	}
	var out []*Figure
	for _, r := range runners {
		f, err := r(scale)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}
