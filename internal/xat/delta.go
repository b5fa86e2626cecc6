package xat

import (
	"fmt"
	"strings"

	"xqview/internal/faultinject"
	"xqview/internal/flexkey"
	"xqview/internal/journal"
	"xqview/internal/obs"
	"xqview/internal/xmldoc"
)

// fpPropagate guards the propagate phase boundary: a fault here hits after
// validation assigned keys but before any view's extent or the cache's
// committed entries changed.
var fpPropagate = faultinject.Register("xat.propagate")

// DeltaInput describes the validated source updates for the propagate phase
// (Ch 7). Base is the pre-update store; New is the post-update view of it
// (staged inserts visible, deletions hidden, replaced values applied);
// Regions lists the update regions per document.
//
// Concurrency contract: a DeltaInput is read-only once built — Base must not
// be mutated while any propagation is in flight, New must be frozen, and the
// Region values are never written by the engine. Under that contract one
// DeltaInput may be shared by concurrent PropagateDelta calls (one per
// view); all per-run mutable state (environments, skeleton registries,
// base-table memos) lives in the per-call deltaEngine.
type DeltaInput struct {
	Base    *xmldoc.Store
	New     xmldoc.Reader
	Regions map[string][]*Region
}

// PropagateDelta derives and executes the incremental maintenance plan
// of the view: the same algebra operators process delta tables instead of
// base tables, consulting base inputs where the propagation equations
// require them (e.g. ΔT1 ⋈ T2 ∪ T1' ⋈ ΔT2 for joins). The output delta
// update trees, the roots returned, are merged into the materialized view by
// the deep union (Ch 8). Concurrent calls over distinct plans may share one
// DeltaInput (see its concurrency contract); each call builds private
// environments and returns freshly allocated delta trees.
//
// The maintenance round's plumbing is passed in; every piece but the cache
// is optional:
//
//   - parent: every operator of the maintenance plan emits a child span
//     (named "Kind#id", carrying its delta tuple count) nested under it, and
//     base sub-plan derivations emit "base:Kind#id" spans. The zero Span
//     disables tracing; metric counters are gated separately on obs.Enabled().
//   - rec: every operator's delta evaluation lands in the journal as an
//     OpRecord (input FlexKeys consumed, output delta tuples produced, each
//     linked to its originating update region).
//   - cache (required): base sub-plan tables are served from tables the
//     cache carried over from prior rounds, and this round's fresh
//     derivations and per-operator deltas are staged on it so the caller can
//     commit them (Prepare, then Install) once the apply phase succeeds.
//   - alloc: all intermediate tuples, cells and table slices come from the
//     round arena and die wholesale when the owning round transaction
//     releases it; the state cache copies what it admits out at its Prepare
//     boundary. Nil allocates on the heap.
//   - seeds: each Seed hands the propagation a shared prefix's precomputed
//     round deltas, so when the walk reaches the seed's frontier operator it
//     serves the shared delta table instead of re-propagating the subtree
//     (staging the per-operator deltas on the view's private cache and
//     replaying the shared lineage records, so cache folds and journal output
//     are byte-identical to an unseeded run).
func PropagateDelta(p *Plan, in *DeltaInput, parent obs.Span, rec *journal.ViewRec, cache *StateCache, alloc *Alloc, seeds []Seed) ([]*VNode, error) {
	if err := fpPropagate.Fire(); err != nil {
		return nil, err
	}
	e := newDeltaEngine(p, in, parent, rec, cache, alloc)
	if len(seeds) > 0 {
		e.seeds = make(map[*Op]*Seed, len(seeds))
		for i := range seeds {
			s := &seeds[i]
			e.seeds[s.Frontier()] = s
		}
	}
	root := p.Root
	if root.Kind == OpExpose {
		root = root.Inputs[0]
	}
	final, err := e.delta(root)
	if err != nil {
		return nil, err
	}
	return e.materializeDelta(final, p.ResultCol(final)), nil
}

type deltaEngine struct {
	plan     *Plan
	in       *DeltaInput
	env      *Env // over the post-update reader
	baseEnv  *Env // over the pre-update store
	baseMemo map[*Op]*Table
	cache    *StateCache      // cross-round base-table cache
	span     obs.Span         // parent span for per-operator tracing (zero = off)
	rec      *journal.ViewRec // provenance recorder (nil = off)
	recOut   map[int][]string // op ID -> distinct output lineage keys recorded

	// seeds maps a frontier operator of this plan to its shared group's
	// precomputed round result (PropagateDelta); nil when the view
	// subscribes to no shared prefix this round.
	seeds map[*Op]*Seed

	// Reusable per-engine scratch, so steady-state rounds allocate nothing:
	tupEnvBase *Env    // envFor result for pre-update tuples
	navB       navBufs // navigation buffers for deltaNav
	dColl      Cell    // deltaNav delta-collection scratch
	pColl      Cell    // deltaNav patch-collection scratch
	keepRegion *Region // region captured by keepFn
	keepFn     func(flexkey.Key) bool
}

// newDeltaEngine builds a propagation engine over one frozen DeltaInput,
// beginning the cache's round staging. Shared-prefix propagation
// (SharedGroup.Propagate) and per-view propagation (PropagateDelta)
// both run on it; p may be nil for sub-plan runs that never touch the root.
func newDeltaEngine(p *Plan, in *DeltaInput, parent obs.Span, rec *journal.ViewRec, cache *StateCache, alloc *Alloc) *deltaEngine {
	e := &deltaEngine{
		plan:     p,
		in:       in,
		env:      NewEnv(in.New),
		baseEnv:  NewEnv(in.Base),
		baseMemo: map[*Op]*Table{},
		cache:    cache,
		span:     parent,
		rec:      rec,
	}
	e.env.alloc = alloc
	e.baseEnv.alloc = alloc
	// Recycle the cross-round value-memo maps: the base map persists across
	// rounds (Install prunes it by region), the new-store map is per-round.
	// The new-store env additionally reads through to the persistent map for
	// keys no region of this round can affect — those read identically in
	// both stores.
	e.baseEnv.vals, e.env.vals = cache.begin()
	e.env.baseVals = e.baseEnv.vals
	for _, rgs := range in.Regions {
		for _, r := range rgs {
			e.env.dirty = append(e.env.dirty, r.Anchor)
		}
	}
	if rec.Active() {
		e.recOut = map[int][]string{}
	}
	// Base and delta runs share the skeleton registry so delta tuples that
	// carry base-constructed items can be dereferenced.
	e.env.Cons = e.baseEnv.Cons
	// Per-tuple construction environment over the pre-update store: shares
	// the skeleton registry with the delta env, and the value memo with the
	// base env (same reader).
	e.tupEnvBase = &Env{Store: in.Base, Cons: e.env.Cons, vals: e.baseEnv.vals, alloc: alloc}
	// The region-pruning predicate is allocated once per run and rebound per
	// tuple via keepRegion, so patch navigation closes over nothing.
	e.keepFn = func(xk flexkey.Key) bool {
		r := e.keepRegion
		if r.Mode != RegionModify && flexkey.IsSelfOrAncestorOf(r.Anchor, xk) {
			return true
		}
		return flexkey.IsSelfOrAncestorOf(xk, r.Anchor)
	}
	return e
}

// base executes the sub-plan rooted at o over the pre-update store, or
// serves it from the cross-round state cache when that holds a table folded
// forward to the current pre-update state.
func (e *deltaEngine) base(o *Op) (*Table, error) {
	if t, ok := e.baseMemo[o]; ok {
		return t, nil
	}
	if t, ok := e.cache.lookup(o); ok {
		e.baseMemo[o] = t
		return t, nil
	}
	// One span for the whole derivation; its operators get none.
	var sp obs.Span
	if e.span.Enabled() {
		sp = e.span.Child("base:" + opSpanName(o))
	}
	t, err := evalOp(o, e.baseEnv, obs.Span{})
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Arg("tuples_out", len(t.Tuples)).End()
	e.baseMemo[o] = t
	e.cache.noteFresh(o, t)
	return t, nil
}

// envFor picks the environment a tuple's content is built in and resolved
// against: the delta env (post-update store) for post-update content, the
// shared pre-update env otherwise. Its Store is the tuple's reader.
func (e *deltaEngine) envFor(tp *Tuple) *Env {
	if tp.Region != nil {
		if tp.Region.Mode == RegionInsert {
			return e.env
		}
		return e.tupEnvBase
	}
	if tp.Count >= 0 && tp.Kind == Delta {
		return e.env
	}
	return e.tupEnvBase
}

func empty(t *Table) bool { return t == nil || len(t.Tuples) == 0 }

// delta computes the delta table of operator o. It is the single choke
// point of the propagate phase, so the per-operator observability lives
// here: a child span per operator (inputs recurse inside delta1, so spans
// nest bottom-up on the view's track) and the delta/empty tuple counters.
func (e *deltaEngine) delta(o *Op) (*Table, error) {
	if s, ok := e.seeds[o]; ok {
		return e.deltaSeeded(o, s)
	}
	var sp obs.Span
	if e.span.Enabled() {
		sp = e.span.Child(opSpanName(o))
	}
	t, err := e.delta1(o)
	if sp.Enabled() {
		if err == nil {
			sp.Arg("tuples_out", len(t.Tuples))
		}
		sp.End()
	}
	if err == nil {
		// Stage the delta for the state cache's commit-time fold: delta
		// covers every plan operator exactly once per round, so the cache
		// sees a complete per-operator delta picture.
		e.cache.noteDelta(o, t)
	}
	if err == nil && obs.Enabled() {
		recordDelta(o, t)
	}
	if err == nil && e.rec.Active() {
		e.recordOp(o, t)
	}
	return t, err
}

// deltaSeeded serves a shared group's precomputed round result at the
// member view's frontier operator, in place of propagating the subtree:
// every subtree operator's delta is staged on the view's private cache
// (Prepare folds its held base tables exactly as an unseeded round would —
// a touched entry with no staged delta would otherwise survive stale), the
// shared lineage records are replayed under the member's operator ids at
// the position the unseeded post-order walk would have emitted them, and
// the frontier's delta table — heap-allocated by the shared run, immutable
// downstream — flows into the suffix without copying (the COW boundary:
// promotion out of the shared run happens once, not per subscriber).
func (e *deltaEngine) deltaSeeded(o *Op, s *Seed) (*Table, error) {
	res := s.Result
	for i, op := range s.Ops {
		e.cache.noteDelta(op, res.Deltas[i])
		if e.rec.Active() && i < len(res.Recs) {
			r := res.Recs[i]
			r.Op = op.ID
			e.rec.Op(r)
		}
		if e.recOut != nil && i < len(res.OutKeys) {
			e.recOut[op.ID] = res.OutKeys[i]
		}
	}
	t := res.Deltas[len(res.Deltas)-1]
	if t == nil {
		t = e.env.outTable(o)
	}
	return t, nil
}

func tupleKindName(k TupleKind) string {
	switch k {
	case Delta:
		return "delta"
	case Patch:
		return "patch"
	}
	return "normal"
}

// recordOp journals one operator's delta lineage: the distinct lineage keys
// its inputs produced (recorded bottom-up, so children are already in
// recOut) and a bounded prefix of its output tuples, each carrying its
// cells' lineage keys and the update-region anchor it originates from.
func (e *deltaEngine) recordOp(o *Op, t *Table) {
	rec := journal.OpRecord{Op: o.ID, Kind: o.Kind.String(), Detail: o.Describe(), Tuples: len(t.Tuples)}
	for _, in := range o.Inputs {
		rec.In = append(rec.In, e.recOut[in.ID]...)
	}
	var outKeys []string
	seen := map[string]bool{}
	for ti, tp := range t.Tuples {
		var tr journal.TupleRecord
		record := ti < journal.MaxOpTuples
		if record {
			tr = journal.TupleRecord{Count: tp.Count, Kind: tupleKindName(tp.Kind)}
			if tp.Region != nil {
				tr.Prim = string(tp.Region.Anchor)
			}
		}
		for _, cell := range tp.Cells {
			for _, it := range cell {
				k := it.Lineage()
				if record && len(tr.Keys) < journal.MaxTupleKeys {
					tr.Keys = append(tr.Keys, k)
				}
				if !seen[k] && len(outKeys) < journal.MaxOpInKeys {
					seen[k] = true
					outKeys = append(outKeys, k)
				}
			}
		}
		if record {
			rec.Out = append(rec.Out, tr)
		}
	}
	e.recOut[o.ID] = outKeys
	e.rec.Op(rec)
}

func (e *deltaEngine) delta1(o *Op) (*Table, error) {
	switch o.Kind {
	case OpSource:
		a := e.env.alloc
		out := e.env.outTable(o)
		rootKey, ok := e.in.Base.Root(o.Doc)
		if !ok {
			return nil, fmt.Errorf("xat: document %q not loaded", o.Doc)
		}
		for _, r := range e.in.Regions[o.Doc] {
			cells := a.makeCells(1, 1)
			cells[0] = a.cell1(NodeItem(rootKey, 0))
			t := a.tuple()
			*t = Tuple{Cells: cells, Count: 1, Kind: Patch, Region: r}
			out.Append(t)
		}
		return out, nil

	case OpNavUnnest:
		din, err := e.delta(o.Inputs[0])
		if err != nil {
			return nil, err
		}
		return e.deltaNav(o, din, false), nil

	case OpNavCollection:
		din, err := e.delta(o.Inputs[0])
		if err != nil {
			return nil, err
		}
		return e.deltaNav(o, din, true), nil

	case OpSelect, OpOrderBy, OpXMLUnion, OpExpose:
		// Tuple-at-a-time operators: the delta is the operator over the
		// input's delta. Select's predicates are evaluated over the
		// post-update reader: it resolves inserted keys, keeps deleted
		// subtrees readable, and value replaces on predicate paths were
		// rewritten away during validation, so predicate values agree with
		// the state the tuple belongs to.
		din, err := e.delta(o.Inputs[0])
		if err != nil {
			return nil, err
		}
		return applyOp(o, e.env, []*Table{din})

	case OpJoin, OpLOJ:
		return e.deltaJoin(o)

	case OpDistinct:
		return e.deltaDistinct(o)

	case OpGroupBy:
		return e.deltaGroupBy(o)

	case OpCombine:
		din, err := e.delta(o.Inputs[0])
		if err != nil {
			return nil, err
		}
		a := e.env.alloc
		out := e.env.outTable(o)
		ci := din.Col(o.InCol)
		for _, tp := range din.Tuples {
			cells := a.makeCells(1, 1)
			cells[0] = appendCombined(a.collection(len(tp.Cells[ci])), o, e.env, din, tp, ci)
			t := a.tuple()
			*t = Tuple{Cells: cells, Count: tp.Count, Kind: tp.Kind, Region: tp.Region}
			out.Append(t)
		}
		return out, nil

	case OpTagger:
		din, err := e.delta(o.Inputs[0])
		if err != nil {
			return nil, err
		}
		a := e.env.alloc
		out := e.env.outTable(o)
		for _, tp := range din.Tuples {
			if patternEmpty(o, din, tp) {
				out.Append(extend(a, tp, nil))
				continue
			}
			it := constructNode(o, e.envFor(tp), din, tp)
			out.Append(extend(a, tp, a.cell1(it)))
		}
		return out, nil

	case OpMerge:
		dl, err := e.delta(o.Inputs[0])
		if err != nil {
			return nil, err
		}
		dr, err := e.delta(o.Inputs[1])
		if err != nil {
			return nil, err
		}
		a := e.env.alloc
		out := e.env.outTable(o)
		nl := len(o.Inputs[0].OutCols)
		nr := len(o.Inputs[1].OutCols)
		pad := a.makeCells(nr, nr)
		for _, tp := range dl.Tuples {
			out.Append(extendCells(a, tp, pad))
		}
		for _, tp := range dr.Tuples {
			cells := a.makeCells(nl+nr, nl+nr)
			copy(cells[nl:], tp.Cells)
			t := a.tuple()
			*t = Tuple{Cells: cells, Count: tp.Count, Kind: tp.Kind, Region: tp.Region}
			out.Append(t)
		}
		return out, nil

	case OpUnit:
		return NewTable(), nil
	}
	return nil, fmt.Errorf("xat: no delta rule for %s", o.Kind)
}

// deltaNav implements the delta semantics of Navigate Unnest / Collection:
// targets inside the update region become delta content; ancestors of the
// region stay patches; unrelated targets are dropped (Ch 7.1).
func (e *deltaEngine) deltaNav(o *Op, din *Table, collection bool) *Table {
	a := e.env.alloc
	out := e.env.outTable(o)
	ci := din.Col(o.InCol)
	deltaColl, patchColl := e.dColl[:0], e.pColl[:0]
	for _, tp := range din.Tuples {
		if collection && tp.Cells[ci] == nil {
			out.Append(extend(a, tp, nil))
			continue
		}
		// Delta tuples may pair cells from several update regions (after
		// joins); the post-update reader resolves them all: inserted
		// fragments exist only there, and deletion merely unlinks a root
		// from its parent, leaving the subtree readable. Patch tuples,
		// however, classify targets from spine anchors (e.g. the document
		// root), where a deleted fragment is only reachable pre-update.
		rd := xmldoc.Reader(e.in.New)
		if tp.Kind == Patch {
			rd = e.envFor(tp).Store
		}
		r := tp.Region
		// Unnest navigation from a patch tuple keeps only region-related
		// targets, so it can prune every step to the region's ancestor chain
		// and interior (bulk updates then cost per-region, not per-document).
		var keep func(flexkey.Key) bool
		var anchor flexkey.Key
		if !collection && tp.Kind == Patch && r != nil {
			anchor = r.Anchor
			e.keepRegion = r
			keep = e.keepFn
		}
		deltaColl, patchColl = deltaColl[:0], patchColl[:0]
		for _, it := range tp.Cells[ci] {
			if it.ID.Body == "" || it.ID.Constructed {
				continue
			}
			for _, x := range evalPathItemsBuf(rd, flexkey.Key(it.ID.Body), o.Path, o.navSingles, keep, anchor, &e.navB) {
				if tp.Kind == Delta || r == nil {
					deltaColl = append(deltaColl, x)
					continue
				}
				xk := flexkey.Key(x.ID.Body)
				switch {
				case r.Mode != RegionModify && flexkey.IsSelfOrAncestorOf(r.Anchor, xk):
					deltaColl = append(deltaColl, x)
				case flexkey.IsAncestorOf(xk, r.Anchor),
					r.Mode == RegionModify && flexkey.IsSelfOrAncestorOf(xk, r.Anchor):
					patchColl = append(patchColl, x)
				case collection:
					// Unrelated members stay in the collection: the tuple
					// they belong to still exists, and predicates and
					// lineage need them. The patch materializer prunes
					// branches that do not lead to the region.
					patchColl = append(patchColl, x)
				}
			}
		}
		if collection {
			// One output tuple per input tuple; new members inside the
			// region ride on the (patch) tuple and are signed by the region
			// at materialization time. An empty (but present) input cell
			// stays a non-nil empty collection, never a null padding.
			n := len(patchColl) + len(deltaColl)
			if n == 0 {
				if tp.Kind == Delta {
					out.Append(extend(a, tp, Cell{}))
				}
				continue
			}
			coll := a.makeItems(n, n)
			copy(coll, patchColl)
			copy(coll[len(patchColl):], deltaColl)
			out.Append(extend(a, tp, coll))
			continue
		}
		for _, x := range deltaColl {
			nt := extend(a, tp, a.cell1(x))
			if tp.Kind == Patch {
				nt.Kind = Delta
				nt.Count = tp.Count * r.Sign()
			}
			out.Append(nt)
		}
		for _, x := range patchColl {
			out.Append(extend(a, tp, a.cell1(x)))
		}
	}
	e.dColl, e.pColl = deltaColl[:0], patchColl[:0]
	return out
}

// split partitions a delta table into pure delta tuples and patch tuples.
func split(t *Table) (deltas, patches []*Tuple) {
	for _, tp := range t.Tuples {
		if tp.Kind == Patch {
			patches = append(patches, tp)
		} else {
			deltas = append(deltas, tp)
		}
	}
	return
}

// deltaJoin implements the join propagation equations of Ch 7.3/7.4:
//
//	Δ(L ⋈ R) = ΔL ⋈ R_old  ∪  (L_old ⊎ ΔL) ⋈ ΔR
//
// with patch tuples paired against the other side's old state, and — for
// Left Outer Joins — explicit corrections for null-padded results whose
// match count crosses zero.
func (e *deltaEngine) deltaJoin(o *Op) (*Table, error) {
	dl, err := e.delta(o.Inputs[0])
	if err != nil {
		return nil, err
	}
	dr, err := e.delta(o.Inputs[1])
	if err != nil {
		return nil, err
	}
	a := e.env.alloc
	out := e.env.outTable(o)
	if empty(dl) && empty(dr) {
		return out, nil
	}
	dlDelta, dlPatch := split(dl)
	drDelta, drPatch := split(dr)
	// Base sides are only derived when a propagation equation needs them
	// (an inner join with updates on one side leaves the other side's base
	// table uncomputed).
	bl := e.env.outTable(o.Inputs[0])
	br := e.env.outTable(o.Inputs[1])
	if len(drDelta)+len(drPatch) > 0 || o.Kind == OpLOJ {
		bl, err = e.base(o.Inputs[0])
		if err != nil {
			return nil, err
		}
	}
	if len(dl.Tuples) > 0 || o.Kind == OpLOJ {
		br, err = e.base(o.Inputs[1])
		if err != nil {
			return nil, err
		}
	}

	// Hash acceleration: bucket one side on an equality conjunct so delta
	// parts cost O(|Δ| + matches) instead of O(|Δ|·|base|). Conditions are
	// evaluated over the (lt, rt) pair directly; the output tuple is only
	// materialized for surviving pairs.
	lcols := len(o.Inputs[0].OutCols)
	var hl, hr int = -1, -1
	for _, cnd := range o.Conds {
		if cnd.Op != "=" || cnd.L.IsLit || cnd.R.IsLit {
			continue
		}
		li, ri := out.Col(cnd.L.Col), out.Col(cnd.R.Col)
		if li < lcols && ri >= lcols {
			hl, hr = li, ri
		} else if ri < lcols && li >= lcols {
			hl, hr = ri, li
		}
		if hl >= 0 {
			break
		}
	}
	// The base-right side is probed by every part of the propagation
	// equation (and repeatedly by the LOJ corrections), so its index is
	// built at most once per join evaluation and shared.
	jc := &joinCond{env: e.env, out: out, lcols: lcols, hl: hl, conds: o.Conds}
	var brIdx *joinIndex
	indexFor := func(rts []*Tuple) *joinIndex {
		if hl < 0 || len(rts) <= 8 {
			return nil
		}
		if len(rts) == len(br.Tuples) && &rts[0] == &br.Tuples[0] {
			if brIdx == nil {
				brIdx = buildJoinIndex(e.env, br.Tuples, hr-lcols)
			}
			return brIdx
		}
		return buildJoinIndex(e.env, rts, hr-lcols)
	}
	// matchCount sums the counts of rts tuples joining with lt (idx, when
	// supplied, was built over rts).
	matchCount := func(lt *Tuple, rts []*Tuple, idx *joinIndex) int {
		m := 0
		idx.forEach(jc, lt, rts, func(rt *Tuple) { m += rt.Count })
		return m
	}
	joinInto := func(lts, rts []*Tuple) {
		if len(lts) == 0 || len(rts) == 0 {
			return
		}
		idx := indexFor(rts)
		for _, lt := range lts {
			idx.forEach(jc, lt, rts, func(rt *Tuple) { out.Append(pairTuple(a, lt, rt)) })
		}
	}

	// Part 1: ΔL (deltas and patches) against the old right side.
	joinInto(dl.Tuples, br.Tuples)
	// For LOJ, a patched left with no old matches patches its null-padded
	// result.
	if o.Kind == OpLOJ && len(dlPatch) > 0 {
		pad := a.makeCells(len(br.Cols), len(br.Cols))
		brI := indexFor(br.Tuples)
		for _, lt := range dlPatch {
			if matchCount(lt, br.Tuples, brI) == 0 {
				out.Append(extendCells(a, lt, pad))
			}
		}
	}
	// Part 2: the new left state against right deltas (old state first, so
	// the emission order matches the concatenated L_old ⊎ ΔL sweep).
	joinInto(bl.Tuples, drDelta)
	joinInto(dlDelta, drDelta)
	// Part 3: right patches against the old left side.
	joinInto(bl.Tuples, drPatch)

	// LOJ padding corrections (Ch 7.4): a left tuple's null-padded result
	// exists exactly when its match count is zero and the tuple itself is
	// live. Compute, per left identity, the padding contribution in the old
	// and new states and emit the difference.
	if o.Kind == OpLOJ && (len(dlDelta) > 0 || len(drDelta) > 0) {
		pad := a.makeCells(len(br.Cols), len(br.Cols))
		// Identities run off one reusable byte buffer; map reads keyed by
		// string(buf) do not allocate, and a string is only materialized
		// the first time an identity is inserted.
		var idBuf []byte
		lidBytes := func(lt *Tuple) []byte {
			idBuf = appendTupleIdentity(idBuf[:0], lt)
			return idBuf
		}
		ldelta := map[string]int{}
		lrep := map[string]*Tuple{}
		for _, lt := range dlDelta {
			id := string(lidBytes(lt))
			ldelta[id] += lt.Count
			lrep[id] = lt
		}
		brI := indexFor(br.Tuples)
		drI := indexFor(drDelta)
		seen := map[string]bool{}
		consider := func(lt *Tuple, cOld int) {
			b := lidBytes(lt)
			if seen[string(b)] {
				return
			}
			id := string(b)
			seen[id] = true
			cNew := cOld + ldelta[id]
			mOld := matchCount(lt, br.Tuples, brI)
			mNew := mOld + matchCount(lt, drDelta, drI)
			padOld, padNew := 0, 0
			if mOld == 0 {
				padOld = cOld
			}
			if mNew == 0 {
				padNew = cNew
			}
			if d := padNew - padOld; d != 0 {
				pt := extendCells(a, lt, pad)
				pt.Count = d
				pt.Kind = Delta
				out.Append(pt)
			}
		}
		for _, lt := range bl.Tuples {
			// Prefilter: an identity with no left delta and no new right
			// match has cNew == cOld and mNew == mOld, so its correction is
			// provably zero and the match counting can be skipped.
			if _, hit := ldelta[string(lidBytes(lt))]; !hit &&
				matchCount(lt, drDelta, drI) == 0 {
				continue
			}
			consider(lt, lt.Count)
		}
		for _, lt := range dlDelta {
			if !seen[string(lidBytes(lt))] {
				// A brand-new (or fully removed) left identity.
				base := *lrep[string(lidBytes(lt))]
				base.Count = 0
				consider(&base, 0)
			}
		}
	}
	return out, nil
}

func (e *deltaEngine) deltaDistinct(o *Op) (*Table, error) {
	din, err := e.delta(o.Inputs[0])
	if err != nil {
		return nil, err
	}
	a := e.env.alloc
	out := e.env.outTable(o)
	ci := din.Col(o.InCol)
	counts := map[string]int{}
	var order []string
	for _, tp := range din.Tuples {
		if tp.Kind == Patch {
			continue // value changes inside distinct'd paths are rewritten away
		}
		for _, it := range tp.Cells[ci] {
			v := e.env.value(it)
			if _, ok := counts[v]; !ok {
				order = append(order, v)
			}
			counts[v] += tp.Count
		}
	}
	for _, v := range order {
		if counts[v] == 0 {
			continue
		}
		cells := a.makeCells(1, 1)
		cells[0] = a.cell1(ValueItem(v, 0))
		t := a.tuple()
		*t = Tuple{Cells: cells, Count: counts[v], Kind: Delta}
		out.Append(t)
	}
	return out, nil
}

func (e *deltaEngine) deltaGroupBy(o *Op) (*Table, error) {
	din, err := e.delta(o.Inputs[0])
	if err != nil {
		return nil, err
	}
	if o.Agg != "" {
		return e.deltaAggregate(o, din)
	}
	a := e.env.alloc
	out := e.env.outTable(o)
	if empty(din) {
		return out, nil
	}
	in := din
	ci := in.Col(o.InCol)
	gidx := make([]int, len(o.GroupCols))
	for i, g := range o.GroupCols {
		gidx[i] = in.Col(g)
	}
	cidx := make([]int, len(o.CarryCols))
	for i, c := range o.CarryCols {
		cidx[i] = in.Col(c)
	}
	for _, tp := range in.Tuples {
		cells := a.makeCells(0, len(o.OutCols))
		for _, gi := range gidx {
			cells = append(cells, tp.Cells[gi])
		}
		for _, cc := range cidx {
			cells = append(cells, tp.Cells[cc])
		}
		cells = append(cells, appendCombined(a.collection(len(tp.Cells[ci])), o, e.env, in, tp, ci))
		t := a.tuple()
		*t = Tuple{Cells: cells, Count: tp.Count, Kind: tp.Kind, Region: tp.Region}
		out.Append(t)
	}
	return out, nil
}

// deltaAggregate recomputes affected groups: old results are retracted and
// new results inserted (Ch 7.6).
func (e *deltaEngine) deltaAggregate(o *Op, din *Table) (*Table, error) {
	out := e.env.outTable(o)
	if empty(din) {
		return out, nil
	}
	dDeltas, _ := split(din)
	if len(dDeltas) == 0 {
		return out, nil
	}
	bin, err := e.base(o.Inputs[0])
	if err != nil {
		return nil, err
	}
	groupKey := func(t *Table, tp *Tuple) string {
		parts := make([]string, len(o.GroupCols))
		for i, g := range o.GroupCols {
			parts[i] = cellIdentity(t.Cell(tp, g))
		}
		return strings.Join(parts, "\x1f\x1f")
	}
	affected := map[string]bool{}
	for _, tp := range dDeltas {
		affected[groupKey(din, tp)] = true
	}
	baseOut := execGroupBy(o, e.baseEnv, bin)
	newIn := bin.CloneShape()
	newIn.Tuples = append(append([]*Tuple(nil), bin.Tuples...), dDeltas...)
	newOut := execGroupBy(o, e.env, newIn)
	for _, tp := range baseOut.Tuples {
		if affected[groupKey(baseOut, tp)] {
			out.Append(&Tuple{Cells: tp.Cells, Count: -tp.Count, Kind: Delta})
		}
	}
	for _, tp := range newOut.Tuples {
		if tp.Count <= 0 {
			continue
		}
		if affected[groupKey(newOut, tp)] {
			out.Append(&Tuple{Cells: tp.Cells, Count: tp.Count, Kind: Delta})
		}
	}
	return out, nil
}
