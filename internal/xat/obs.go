package xat

import (
	"strconv"

	"xqview/internal/obs"
)

// Per-operator metric series, pre-resolved at init so the hot path is one
// Enabled() load plus an atomic add — no registry lookups while executing.
// Indexed by OpKind (contiguous from 0).
var (
	opTuplesIn    []*obs.Counter
	opTuplesOut   []*obs.Counter
	opDeltaTuples []*obs.Counter
	opDeltaEmpty  []*obs.Counter
)

func init() {
	n := 0
	for k := range opNames {
		if int(k) >= n {
			n = int(k) + 1
		}
	}
	mk := func(name, help string) []*obs.Counter {
		out := make([]*obs.Counter, n)
		for k, opName := range opNames {
			out[k] = obs.Default.CounterOf(name, help, "op", opName)
		}
		return out
	}
	opTuplesIn = mk("xat_op_tuples_in_total", "tuples consumed per operator (full execution)")
	opTuplesOut = mk("xat_op_tuples_out_total", "tuples emitted per operator (full execution)")
	opDeltaTuples = mk("xat_op_delta_tuples_total", "delta tuples emitted per operator during propagation")
	opDeltaEmpty = mk("xat_op_delta_empty_total", "empty (skipped) delta propagations per operator")
}

// recordExec records the tuple traffic of one operator evaluation during
// full execution. Callers gate on obs.Enabled().
func recordExec(o *Op, ins []*Table, out *Table) {
	in := 0
	for _, t := range ins {
		if t != nil {
			in += len(t.Tuples)
		}
	}
	opTuplesIn[o.Kind].Add(int64(in))
	if out != nil {
		opTuplesOut[o.Kind].Add(int64(len(out.Tuples)))
	}
}

// recordDelta records the delta traffic of one operator during propagation:
// the empty (skipped) case is counted separately because it is the dominant
// cheap case of incremental maintenance and would otherwise be invisible.
// Callers gate on obs.Enabled().
func recordDelta(o *Op, out *Table) {
	if out == nil || len(out.Tuples) == 0 {
		opDeltaEmpty[o.Kind].Inc()
		return
	}
	opDeltaTuples[o.Kind].Add(int64(len(out.Tuples)))
}

// opSpanName labels an operator span: kind plus the plan-stable operator id.
func opSpanName(o *Op) string { return o.Kind.String() + "#" + strconv.Itoa(o.ID) }
