package update

import (
	"fmt"

	"xqview/internal/flexkey"
	"xqview/internal/obs"
)

// Compaction metric series: batch shrinkage, the compaction tier of the
// round-telemetry pipeline (the per-round in/out pair lives in
// obs.RoundSample; these cumulative counters serve /metrics).
var (
	cCompactBatches = obs.Default.CounterOf("update_compact_batches_total", "update batches shrunk by pre-validation compaction")
	cCompactDropped = obs.Default.CounterOf("update_compact_prims_dropped_total", "update primitives removed by compaction", "rule", "all")
	cDropCoalesce   = obs.Default.CounterOf("update_compact_prims_dropped_total", "update primitives removed by compaction", "rule", "coalesce")
)

// recordCompaction folds one batch's decisions into the metric series.
// Called only when decisions fired and obs is enabled.
func recordCompaction(decisions []Compaction) {
	cCompactBatches.Inc()
	for _, d := range decisions {
		n := int64(len(d.Dropped))
		cCompactDropped.Add(n)
		cDropCoalesce.Add(n)
	}
}

// Compaction is one batch-normalization decision made by CompactBatch. It
// references primitives by their position in the ORIGINAL batch, so journal
// and explain output keep round-local numbering stable whether or not
// compaction ran.
type Compaction struct {
	// Rule is "coalesce": repeated Replace of one node collapsed to the
	// last write.
	Rule    string
	Kept    int    // original index of the surviving (last) write
	Dropped []int  // original indexes of the primitives removed from the batch
	Detail  string // human-readable target description
}

// CompactBatch normalizes a primitive batch before validation: the returned
// batch is semantically equivalent under sequential application but smaller,
// so every downstream phase (SAPT classification, propagation, journaling,
// source refresh) does proportionally less work.
//
// One rule fires, coalesce: repeated Replace primitives on one (doc, key)
// collapse into the last write, unless the batch also deletes the node or
// one of its ancestors (then order against the delete matters and the run is
// left alone). Nothing else is rewritten: every statement of a script sees
// the pre-script store, so no primitive ParseAndEvaluate emits can target a
// node another primitive of the batch inserts.
//
// Survivors keep their original *Primitive pointers: CompactBatch never
// mutates its input, so a failed round can re-run it on the same slice and
// reach the same decisions. keptIdx maps each returned primitive back to
// its original position. When nothing coalesces, prims is returned as-is
// with a nil decision list.
func CompactBatch(prims []*Primitive) (kept []*Primitive, keptIdx []int, decisions []Compaction) {
	n := len(prims)
	dropped := make([]bool, n)

	// Scan in batch order so decisions are deterministic.
	type dk struct {
		doc string
		key flexkey.Key
	}
	reps := map[dk][]int{}
	var order []dk
	for i, p := range prims {
		if p.Kind != Replace {
			continue
		}
		k := dk{p.Doc, p.Key}
		if len(reps[k]) == 0 {
			order = append(order, k)
		}
		reps[k] = append(reps[k], i)
	}
	for _, k := range order {
		idxs := reps[k]
		if len(idxs) < 2 || deleteGuards(prims, k.doc, k.key) {
			continue
		}
		last := idxs[len(idxs)-1]
		for _, i := range idxs[:len(idxs)-1] {
			dropped[i] = true
		}
		decisions = append(decisions, Compaction{
			Rule: "coalesce", Kept: last, Dropped: idxs[:len(idxs)-1],
			Detail: fmt.Sprintf("replace %s: last write wins", k.key),
		})
	}

	if len(decisions) == 0 {
		return prims, nil, nil
	}
	if obs.Enabled() {
		recordCompaction(decisions)
	}
	kept = make([]*Primitive, 0, n)
	keptIdx = make([]int, 0, n)
	for i, p := range prims {
		if !dropped[i] {
			kept = append(kept, p)
			keptIdx = append(keptIdx, i)
		}
	}
	return kept, keptIdx, decisions
}

// deleteGuards reports whether the batch deletes key or one of its
// ancestors, in which case Replace runs on key must not be reordered.
func deleteGuards(prims []*Primitive, doc string, key flexkey.Key) bool {
	for _, p := range prims {
		if p.Kind == Delete && p.Doc == doc && flexkey.IsSelfOrAncestorOf(p.Key, key) {
			return true
		}
	}
	return false
}
