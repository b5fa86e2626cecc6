package xat

import (
	"math"
	"testing"

	"xqview/internal/obs"
	"xqview/internal/xpath"
)

// TestExecuteSpans: with Env.Span set, Execute opens exactly one "Kind#id"
// span per plan operator, nested as the plan is, so the operators' self
// times (a span less its children) add up to the root operator's span, and
// MaterializeResult opens one Materialize span beside it. With the zero
// Span nothing is recorded.
func TestExecuteSpans(t *testing.T) {
	s := execStore(t)
	side := func(s, b, y string) *Op {
		return &Op{Kind: OpNavCollection, InCol: b, OutCol: y, Path: xpath.MustParse("@year"), Inputs: []*Op{booksPipelineAs(s, b)}}
	}
	p := buildPlan(t, &Op{Kind: OpJoin,
		Conds:  []Cmp{{L: CmpOperand{Col: "$y1"}, Op: "=", R: CmpOperand{Col: "$y2"}}},
		Inputs: []*Op{side("$s1", "$b1", "$y1"), side("$s2", "$b2", "$y2")}})

	tr := obs.NewTracerLimit(0)
	env := NewEnv(s)
	env.Span = tr.StartSpan("run")
	tbl, err := Execute(p, env)
	if err != nil {
		t.Fatal(err)
	}
	MaterializeResult(env, tbl, "$b1")
	env.Span.End()

	// Rebuild the span tree from the one track: a span's parent is the
	// innermost span still open when it starts.
	type span struct {
		name       string
		start, end int64 // ns
		parent     string
		self       int64
	}
	ns := func(us float64) int64 { return int64(math.Round(us * 1e3)) }
	byName := map[string]*span{}
	var open []*span
	for _, ev := range tr.Events() {
		if ev.Ph != "X" {
			continue
		}
		sp := &span{name: ev.Name, start: ns(ev.TS), end: ns(ev.TS) + ns(ev.Dur)}
		sp.self = sp.end - sp.start
		for len(open) > 0 && sp.start >= open[len(open)-1].end {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			parent := open[len(open)-1]
			sp.parent = parent.name
			parent.self -= sp.end - sp.start
		}
		if byName[sp.name] != nil {
			t.Fatalf("span %s opened twice", sp.name)
		}
		byName[sp.name] = sp
		open = append(open, sp)
	}

	parentOf := map[*Op]string{p.Root: "run"}
	var selfSum int64
	for _, o := range p.Ops() {
		for _, in := range o.Inputs {
			parentOf[in] = opSpanName(o)
		}
	}
	for _, o := range p.Ops() {
		sp := byName[opSpanName(o)]
		if sp == nil {
			t.Fatalf("no span for %s", opSpanName(o))
		}
		if sp.parent != parentOf[o] {
			t.Errorf("%s nests under %q, want %q", sp.name, sp.parent, parentOf[o])
		}
		if sp.self < 0 {
			t.Errorf("%s has negative self time %dns", sp.name, sp.self)
		}
		selfSum += sp.self
	}
	root := byName[opSpanName(p.Root)]
	if selfSum != root.end-root.start {
		t.Errorf("operator self times sum to %dns, root span is %dns", selfSum, root.end-root.start)
	}
	if m := byName["Materialize"]; m == nil || m.parent != "run" {
		t.Errorf("Materialize span missing or misplaced: %+v", m)
	}
	if want := len(p.Ops()) + 2; len(byName) != want {
		t.Errorf("%d spans, want %d (one per operator, Materialize, run)", len(byName), want)
	}

	// The same environment with the zero Span records nothing more.
	before := tr.Len()
	env.Span = obs.Span{}
	tbl, err = Execute(p, env)
	if err != nil {
		t.Fatal(err)
	}
	MaterializeResult(env, tbl, "$b1")
	if n := tr.Len() - before; n != 0 {
		t.Errorf("the zero span recorded %d events", n)
	}
}
