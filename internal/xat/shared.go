package xat

import (
	"sort"

	"xqview/internal/journal"
	"xqview/internal/obs"
)

// Shared sub-plan maintenance: views over the same sources frequently share
// whole operator prefixes (Source→Navigate→Select chains, even joins), and
// per-view propagation re-derives the identical delta tables once per view
// per round. BuildSharedDAG groups equal-fingerprint subtrees across all
// registered views into shared groups; core.MaintainAll propagates each
// group's representative subtree exactly once per round (against the shared
// group's own cross-round StateCache partition) and fans the resulting
// delta tables out to every subscribing view's private suffix as Seeds.
// Round cost then scales with the number of DISTINCT sub-plans, not the
// number of views.

// GroupMember is one subscription of a view's plan to a shared group: the
// member's own operator subtree, structurally equal to the group's
// representative.
type GroupMember struct {
	// View indexes the subscribing plan in the list BuildSharedDAG was
	// given (the order of the view set's views).
	View int
	// Ops is the member subtree in depth-first inputs-first order; the last
	// element is the frontier operator whose delta table the shared run
	// serves. Positions correspond one-to-one to the group's Rep walk.
	Ops []*Op
}

// SharedGroup is one equal-fingerprint operator subtree subscribed to by at
// least two views. Its representative subtree is propagated once per round;
// the per-position delta tables seed every live member's private suffix.
type SharedGroup struct {
	// Rep is the representative subtree (the first subscriber's operators)
	// in depth-first inputs-first order; the last element is the frontier.
	Rep []*Op
	// Members lists every subscription, in (view, plan position) order.
	Members []GroupMember
	// Cache is the group's own cross-round StateCache partition: base
	// tables the shared propagation derives (join/aggregate equations) are
	// carried across rounds under the same begin/Prepare/Install lifecycle
	// as the per-view caches. A round in which no subscriber is live runs
	// no propagation and leaves the partition as it is: its tables are
	// sub-plans of the members' plans, which the round cannot change.
	Cache *StateCache
}

// Frontier returns the root operator of the representative subtree.
func (g *SharedGroup) Frontier() *Op { return g.Rep[len(g.Rep)-1] }

// SharedResult is one group's per-round propagation outcome, fanned out to
// every live subscriber. All tables are heap-allocated (the shared run uses
// no round arena) and immutable once returned, so subscribers share them
// without copying.
type SharedResult struct {
	// Deltas holds the per-operator delta tables, indexed by Rep position.
	Deltas []*Table
	// Recs is the shared run's lineage, one OpRecord per Rep position in
	// post-order (Op carries the representative's id; subscribers replay
	// with their own member ids). Nil when the round is not journaled.
	Recs []journal.OpRecord
	// OutKeys is the per-position distinct output lineage-key list, seeding
	// the In-lists of the subscribers' suffix operators. Nil when not
	// journaled.
	OutKeys [][]string
}

// Seed hands one shared group's round result to a member view's
// propagation (PropagateDelta).
type Seed struct {
	// Ops is the member subtree, positionally lockstep with Result.Deltas.
	Ops []*Op
	// Result is the shared group's propagation outcome for this round.
	Result *SharedResult
}

// Frontier returns the member operator the seed intercepts.
func (s *Seed) Frontier() *Op { return s.Ops[len(s.Ops)-1] }

// Propagate runs the group's shared prefix once for the round: the
// representative subtree propagates against the group's cache partition on
// plain heap memory (no round arena — the output outlives every view's
// arena and is shared read-only across subscribers). record asks for
// lineage capture into a detached recorder for per-subscriber replay.
//
// The caller stages g.Cache.Prepare(in.Regions) in the round transaction
// afterwards; Propagate itself only stages (begin/noteFresh/noteDelta).
func (g *SharedGroup) Propagate(in *DeltaInput, parent obs.Span, record bool) (*SharedResult, error) {
	if err := fpPropagate.Fire(); err != nil {
		return nil, err
	}
	var rec *journal.ViewRec
	if record {
		rec = journal.NewDetachedViewRec("shared")
	}
	e := newDeltaEngine(nil, in, parent, rec, g.Cache, nil)
	if _, err := e.delta(g.Frontier()); err != nil {
		return nil, err
	}
	res := &SharedResult{Deltas: make([]*Table, len(g.Rep))}
	for i, o := range g.Rep {
		// delta() staged every subtree operator's table exactly once.
		res.Deltas[i] = g.Cache.pendingDelta[o.ID]
	}
	if rec.Active() {
		res.Recs = rec.Ops()
		res.OutKeys = make([][]string, len(g.Rep))
		for i, o := range g.Rep {
			res.OutKeys[i] = e.recOut[o.ID]
		}
	}
	return res, nil
}

// SharedDAG is the shared operator DAG over a fixed list of view plans:
// every group holds one representative subtree plus its subscriptions.
// core.NewViewSet builds one per view set, so the groups' cache partitions
// stay warm across the set's rounds.
type SharedDAG struct {
	Groups []*SharedGroup
}

// sharedOcc is one candidate subtree occurrence during DAG construction.
type sharedOcc struct {
	view int
	op   *Op
}

// BuildSharedDAG groups equal-fingerprint shareable subtrees across the
// given plans. Groups are maximal (greedy by subtree size; an accepted
// group covers its whole subtree, so nested candidates are dropped) and
// require at least two distinct subscribing views — single-view workloads
// produce an empty DAG and the shared-frontier phase costs nothing.
// Fingerprint equality is verified structurally, so a hash collision can
// only cost a missed group, never a wrong one.
func BuildSharedDAG(plans []*Plan) *SharedDAG {
	d := &SharedDAG{}
	occs := map[uint64][]sharedOcc{}
	var fps []uint64
	for vi, p := range plans {
		for _, o := range p.Ops() {
			// A bare Source or Expose frontier shares nothing worth the
			// bookkeeping; require a subtree of at least two operators.
			if !o.fpShare || o.Kind == OpExpose || len(o.Inputs) == 0 {
				continue
			}
			if _, seen := occs[o.fp]; !seen {
				fps = append(fps, o.fp)
			}
			occs[o.fp] = append(occs[o.fp], sharedOcc{view: vi, op: o})
		}
	}
	// Deterministic candidate order: biggest subtree first (maximal prefix
	// wins over its own fragments), fingerprint as tiebreak.
	sort.Slice(fps, func(i, j int) bool {
		si, sj := subtreeSize(occs[fps[i]][0].op), subtreeSize(occs[fps[j]][0].op)
		if si != sj {
			return si > sj
		}
		return fps[i] < fps[j]
	})
	covered := map[*Op]bool{}
	for _, fp := range fps {
		cands := occs[fp]
		rep := cands[0].op
		var members []GroupMember
		views := map[int]bool{}
		for _, c := range cands {
			if covered[c.op] || !equalSubtree(rep, c.op) {
				continue
			}
			members = append(members, GroupMember{View: c.view, Ops: subtreeOps(c.op)})
			views[c.view] = true
		}
		if len(views) < 2 {
			continue
		}
		g := &SharedGroup{
			Rep:     members[0].Ops,
			Members: members,
			Cache:   NewStateCache(),
		}
		d.Groups = append(d.Groups, g)
		for _, m := range members {
			for _, o := range m.Ops {
				covered[o] = true
			}
		}
	}
	return d
}

// subtreeOps returns the subtree rooted at o in depth-first inputs-first
// order (root last) — the same order delta propagation records operators.
func subtreeOps(o *Op) []*Op {
	var out []*Op
	var walk func(n *Op)
	walk = func(n *Op) {
		for _, in := range n.Inputs {
			walk(in)
		}
		out = append(out, n)
	}
	walk(o)
	return out
}

func subtreeSize(o *Op) int {
	n := 1
	for _, in := range o.Inputs {
		n += subtreeSize(in)
	}
	return n
}

// equalSubtree verifies structural equality of two subtrees — the proof
// behind a fingerprint match (the hash alone is 64-bit and only a grouping
// key).
func equalSubtree(a, b *Op) bool {
	if a.Kind != b.Kind || a.Doc != b.Doc || a.InCol != b.InCol || a.OutCol != b.OutCol ||
		a.GroupByID != b.GroupByID || a.Agg != b.Agg || a.Unordered != b.Unordered ||
		len(a.Inputs) != len(b.Inputs) {
		return false
	}
	if (a.Path == nil) != (b.Path == nil) || (a.Path != nil && a.Path.String() != b.Path.String()) {
		return false
	}
	if condString(a.Conds) != condString(b.Conds) || patternString(a.Pattern) != patternString(b.Pattern) {
		return false
	}
	if !eqStrings(a.GroupCols, b.GroupCols) || !eqStrings(a.CarryCols, b.CarryCols) ||
		!eqStrings(a.OrderCols, b.OrderCols) || !eqStrings(a.UnionCols, b.UnionCols) {
		return false
	}
	for i := range a.Inputs {
		if !equalSubtree(a.Inputs[i], b.Inputs[i]) {
			return false
		}
	}
	return true
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
