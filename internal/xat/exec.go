package xat

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"xqview/internal/flexkey"
	"xqview/internal/obs"
	"xqview/internal/xmldoc"
	"xqview/internal/xpath"
)

// SkelAttr is a resolved attribute of a constructed node.
type SkelAttr struct {
	Name  string
	Value string
}

// Skeleton is the stored representation of a constructed node (Sec 3.3.1):
// only references to content are kept, never copies of the data.
type Skeleton struct {
	Name    string
	Attrs   []SkelAttr
	Content []Item
	Count   int
	// Pinned marks nodes constructed over a top-level combined collection
	// ("[*]" lineage): they exist unconditionally — deleting all their
	// content never deletes them (e.g. the <result> root).
	Pinned bool
}

// Env is the execution environment: the store to read base data from, the
// registry of constructed-node skeletons, and the span one-shot execution
// is traced under. An Env is mutable per run (skeleton registry, value
// memo) and must never be shared across concurrently executing plans — each
// propagating view builds its own environments over the shared read-only
// stores.
type Env struct {
	Store xmldoc.Reader
	Cons  map[string]*Skeleton
	// Span is the parent of the spans Execute opens, one per operator, and
	// of MaterializeResult's. The zero Span records nothing.
	Span  obs.Span
	vals  map[flexkey.Key]string // string-value memo (stores are immutable per run)
	alloc *Alloc                 // round arena; nil means plain heap allocation
	nav   navBufs                // reusable path-navigation buffers

	// baseVals/dirty let an environment over the round's draft
	// read through to the persistent base-store memo: a key unrelated to
	// every update region of the round (not in a touched subtree, not on an
	// anchor's ancestor chain) reads identically in both stores, so its
	// value can be served from — and memoized into — the cross-round map
	// instead of being re-resolved every round. Dirty keys fall back to the
	// per-round memo.
	baseVals map[flexkey.Key]string
	dirty    []flexkey.Key
}

// NewEnv returns an execution environment over the given store.
func NewEnv(store xmldoc.Reader) *Env {
	return &Env{Store: store, Cons: make(map[string]*Skeleton), vals: make(map[flexkey.Key]string)}
}

// outTable returns an empty output table for operator o, sharing the
// precomputed column index of the analyzed plan and backed by the round
// arena when one is active. Hand-built operators that never went through
// Analyze fall back to building the index.
func (env *Env) outTable(o *Op) *Table {
	if o.proto == nil {
		return NewTable(o.OutCols...)
	}
	return &Table{Cols: o.proto.Cols, colIdx: o.proto.colIdx, alloc: env.alloc}
}

// value resolves an item's atomic value through the environment's memo.
func (env *Env) value(it Item) string {
	if it.IsVal {
		return it.Val
	}
	if it.ID.Constructed {
		return ""
	}
	k := flexkey.Key(it.ID.Body)
	if env.vals == nil {
		return xmldoc.StringValue(env.Store, k)
	}
	if v, ok := env.vals[k]; ok {
		return v
	}
	if env.baseVals != nil && !env.keyDirty(k) {
		if v, ok := env.baseVals[k]; ok {
			return v
		}
		v := xmldoc.StringValue(env.Store, k)
		env.baseVals[k] = v
		return v
	}
	v := xmldoc.StringValue(env.Store, k)
	env.vals[k] = v
	return v
}

// keyDirty reports whether k's string value may differ between the base
// store and the round's updated reader: k lies inside a region's subtree or
// on a region anchor's ancestor chain.
func (env *Env) keyDirty(k flexkey.Key) bool {
	for _, a := range env.dirty {
		if flexkey.IsSelfOrAncestorOf(a, k) || flexkey.IsSelfOrAncestorOf(k, a) {
			return true
		}
	}
	return false
}

// Execute runs the plan bottom-up and returns the output table of the
// operator feeding Expose (or of the root itself when no Expose is present).
// With env.Span enabled every operator it evaluates gets a span.
func Execute(p *Plan, env *Env) (*Table, error) {
	root := p.Root
	if root.Kind == OpExpose {
		root = root.Inputs[0]
	}
	return evalOp(root, env, env.Span)
}

// evalOp evaluates the sub-plan rooted at o. Under an enabled parent span
// each operator runs in a child span named as the delta engine names its
// own (opSpanName), carrying its output tuple count, so the spans nest as
// the plan does and an operator's self time is its span less its inputs'.
func evalOp(o *Op, env *Env, parent obs.Span) (*Table, error) {
	var sp obs.Span
	if parent.Enabled() {
		sp = parent.Child(opSpanName(o))
	}
	ins := make([]*Table, len(o.Inputs))
	for i, in := range o.Inputs {
		t, err := evalOp(in, env, sp)
		if err != nil {
			sp.End()
			return nil, err
		}
		ins[i] = t
	}
	out, err := applyOp(o, env, ins)
	if sp.Enabled() {
		if err == nil {
			sp.Arg("tuples_out", len(out.Tuples))
		}
		sp.End()
	}
	if err == nil && obs.Enabled() {
		recordExec(o, ins, out)
	}
	return out, err
}

// applyOp evaluates one operator over already-computed input tables. It is
// shared by full execution and the propagate phase (which feeds delta input
// tables through the same operators).
func applyOp(o *Op, env *Env, ins []*Table) (*Table, error) {
	switch o.Kind {
	case OpSource:
		out := env.outTable(o)
		rootKey, ok := env.Store.Root(o.Doc)
		if !ok {
			return nil, fmt.Errorf("xat: document %q not loaded", o.Doc)
		}
		out.Append(NewTuple(Cell{NodeItem(rootKey, 1)}))
		return out, nil

	case OpNavUnnest:
		return execNavUnnest(o, env, ins[0]), nil

	case OpNavCollection:
		return execNavCollection(o, env, ins[0]), nil

	case OpSelect:
		out := env.outTable(o)
		for _, tp := range ins[0].Tuples {
			if condTrue(env, ins[0], tp, nil, nil, o.Conds) {
				out.Append(tp)
			}
		}
		return out, nil

	case OpJoin:
		return execJoin(o, env, ins[0], ins[1], false), nil

	case OpLOJ:
		return execJoin(o, env, ins[0], ins[1], true), nil

	case OpDistinct:
		return execDistinct(o, env, ins[0]), nil

	case OpGroupBy:
		return execGroupBy(o, env, ins[0]), nil

	case OpOrderBy:
		// Non-ordered bag semantics: Order By only changes the Order Schema;
		// the new order is realized through overriding-order keys assigned
		// downstream (Sec 3.4.3).
		out := env.outTable(o)
		out.Tuples = ins[0].Tuples
		return out, nil

	case OpCombine:
		return execCombine(o, env, ins[0]), nil

	case OpTagger:
		return execTagger(o, env, ins[0]), nil

	case OpXMLUnion:
		return execXMLUnion(o, env, ins[0]), nil

	case OpXMLUnique:
		return execXMLUnique(o, env, ins[0]), nil

	case OpName:
		out := env.outTable(o)
		ci := ins[0].Col(o.InCol)
		for _, tp := range ins[0].Tuples {
			out.Append(extend(env.alloc, tp, tp.Cells[ci]))
		}
		return out, nil

	case OpMerge:
		return execMerge(o, ins[0], ins[1]), nil

	case OpExpose:
		return ins[0], nil

	case OpUnit:
		out := NewTable()
		out.Append(&Tuple{Count: 1})
		return out, nil
	}
	return nil, fmt.Errorf("xat: cannot execute %s", o.Kind)
}

func execNavUnnest(o *Op, env *Env, in *Table) *Table {
	out := env.outTable(o)
	ci := in.Col(o.InCol)
	for _, tp := range in.Tuples {
		for _, it := range tp.Cells[ci] {
			if it.ID.Body == "" {
				continue // pure values cannot be navigated
			}
			for _, res := range evalPathItemsBuf(env.Store, flexkey.Key(it.ID.Body), o.Path, o.navSingles, nil, "", &env.nav) {
				out.Append(extend(env.alloc, tp, env.alloc.cell1(res)))
			}
		}
	}
	return out
}

func execNavCollection(o *Op, env *Env, in *Table) *Table {
	out := env.outTable(o)
	ci := in.Col(o.InCol)
	var scratch Cell
	for _, tp := range in.Tuples {
		if tp.Cells[ci] == nil {
			// Navigation from a null padding stays null so the padding
			// remains recognizable downstream.
			out.Append(extend(env.alloc, tp, nil))
			continue
		}
		scratch = scratch[:0]
		for _, it := range tp.Cells[ci] {
			if it.ID.Body == "" {
				continue
			}
			scratch = append(scratch, evalPathItemsBuf(env.Store, flexkey.Key(it.ID.Body), o.Path, o.navSingles, nil, "", &env.nav)...)
		}
		// An empty collection must stay distinguishable from a null padding:
		// emit a non-nil empty cell.
		coll := Cell{}
		if len(scratch) > 0 {
			coll = env.alloc.makeItems(len(scratch), len(scratch))
			copy(coll, scratch)
		}
		out.Append(extend(env.alloc, tp, coll))
	}
	return out
}

// cellValues returns the atomic values of a cell's items for comparisons.
func cellValues(env *Env, c Cell) []string {
	out := make([]string, 0, len(c))
	for _, it := range c {
		out = append(out, env.value(it))
	}
	return out
}

// condTrue evaluates a conjunction of comparisons with existential
// semantics. When lt/ltp are non-nil, column lookups fall back to the left
// tuple (used by joins before the combined tuple is built). Operand values
// are resolved item by item through the env memo — no per-call slices.
func condTrue(env *Env, tbl *Table, tp *Tuple, lt *Table, ltp *Tuple, conds []Cmp) bool {
	operand := func(op CmpOperand) Cell {
		if tbl.HasCol(op.Col) {
			return tbl.Cell(tp, op.Col)
		}
		if lt != nil && lt.HasCol(op.Col) {
			return lt.Cell(ltp, op.Col)
		}
		panic("xat: condition references unknown column " + op.Col)
	}
	for _, c := range conds {
		var lc, rc Cell
		if !c.L.IsLit {
			lc = operand(c.L)
		}
		if !c.R.IsLit {
			rc = operand(c.R)
		}
		if !cmpExists(env, c, lc, rc) {
			return false
		}
	}
	return true
}

// cmpExists evaluates one comparison existentially over the operand cells;
// a literal operand acts as a one-element sequence.
func cmpExists(env *Env, c Cmp, lc, rc Cell) bool {
	switch {
	case c.L.IsLit && c.R.IsLit:
		return xpath.CompareValues(c.L.Lit, c.Op, c.R.Lit)
	case c.L.IsLit:
		for _, b := range rc {
			if xpath.CompareValues(c.L.Lit, c.Op, env.value(b)) {
				return true
			}
		}
	case c.R.IsLit:
		for _, a := range lc {
			if xpath.CompareValues(env.value(a), c.Op, c.R.Lit) {
				return true
			}
		}
	default:
		for _, a := range lc {
			av := env.value(a)
			for _, b := range rc {
				if xpath.CompareValues(av, c.Op, env.value(b)) {
					return true
				}
			}
		}
	}
	return false
}

// pairCondTrue evaluates a join condition over the (lt, rt) pair exactly as
// condTrue would over the concatenated tuple, without building it: output
// columns below lcols resolve into lt, the rest into rt.
func pairCondTrue(env *Env, out *Table, lcols int, lt, rt *Tuple, conds []Cmp) bool {
	cellOf := func(col string) Cell {
		i := out.Col(col)
		if i < lcols {
			return lt.Cells[i]
		}
		return rt.Cells[i-lcols]
	}
	for _, c := range conds {
		var lc, rc Cell
		if !c.L.IsLit {
			lc = cellOf(c.L.Col)
		}
		if !c.R.IsLit {
			rc = cellOf(c.R.Col)
		}
		if !cmpExists(env, c, lc, rc) {
			return false
		}
	}
	return true
}

// execJoin implements Theta Join and Left Outer Join via a hash-accelerated
// nested loop: equality conjuncts between one left and one right column are
// used to bucket the right side (Sec 3.4.3 notes operators are free to pick
// any physical strategy since order is encoded, not positional).
func execJoin(o *Op, env *Env, l, r *Table, outer bool) *Table {
	out := env.outTable(o)
	// Pick a hashable equality conjunct.
	var hl, hr string
	for _, c := range o.Conds {
		if c.Op != "=" || c.L.IsLit || c.R.IsLit {
			continue
		}
		switch {
		case l.HasCol(c.L.Col) && r.HasCol(c.R.Col):
			hl, hr = c.L.Col, c.R.Col
		case l.HasCol(c.R.Col) && r.HasCol(c.L.Col):
			hl, hr = c.R.Col, c.L.Col
		}
		if hl != "" {
			break
		}
	}
	jc := &joinCond{env: env, out: out, lcols: len(l.Cols), conds: o.Conds}
	var idx *joinIndex
	if hl != "" && len(r.Tuples) > 4 {
		jc.hl = l.Col(hl)
		idx = buildJoinIndex(env, r.Tuples, r.Col(hr))
	}
	pad := env.alloc.makeCells(len(r.Cols), len(r.Cols))
	for _, lt := range l.Tuples {
		matched := false
		idx.forEach(jc, lt, r.Tuples, func(rt *Tuple) {
			out.Append(pairTuple(env.alloc, lt, rt))
			matched = true
		})
		if outer && !matched {
			out.Append(extendCells(env.alloc, lt, pad))
		}
	}
	return out
}

// joinCond is one join evaluation's condition over (left, right) tuple
// pairs, tested as pairCondTrue tests it against the join's output columns;
// hl is the left column a joinIndex over the right side is probed with.
type joinCond struct {
	env   *Env
	out   *Table
	lcols int
	hl    int
	conds []Cmp
}

// joinIndex is a chained-bucket hash index over one column of a tuple
// slice: spans maps each atomic value to a bucket, whose item occurrences
// are chained through head/next in input order (so bucket iteration order
// matches the append-based index it replaces) with pos mapping each
// occurrence back to its tuple position. seen holds per-position epoch
// marks for duplicate suppression without a per-probe map allocation.
type joinIndex struct {
	spans map[string]int32
	head  []int32 // bucket → first occurrence
	tail  []int32 // bucket → last occurrence (build cursor)
	next  []int32 // occurrence → next occurrence in bucket, -1 ends
	pos   []int32 // occurrence → tuple position
	seen  []int32
	epoch int32
}

// buildJoinIndex builds the index in a single pass — one value resolution
// and one map operation per item. It is built once per join evaluation and
// probed many times.
func buildJoinIndex(env *Env, rts []*Tuple, rc int) *joinIndex {
	n := 0
	for _, rt := range rts {
		n += len(rt.Cells[rc])
	}
	idx := &joinIndex{
		spans: env.alloc.spanMap(len(rts)),
		head:  env.alloc.makeInt32(0, n),
		tail:  env.alloc.makeInt32(0, n),
		next:  env.alloc.makeInt32(n, n),
		pos:   env.alloc.makeInt32(n, n),
		seen:  env.alloc.makeInt32(len(rts), len(rts)),
	}
	i := int32(0)
	for ri, rt := range rts {
		for _, it := range rt.Cells[rc] {
			v := env.value(it)
			if b, ok := idx.spans[v]; ok {
				idx.next[idx.tail[b]] = i
				idx.tail[b] = i
			} else {
				idx.spans[v] = int32(len(idx.head))
				idx.head = append(idx.head, i)
				idx.tail = append(idx.tail, i)
			}
			idx.next[i] = -1
			idx.pos[i] = int32(ri)
			i++
		}
	}
	return idx
}

// forEach visits, in order, every tuple of rts that joins lt under jc. idx
// must have been built over rts: the bucket of each of lt's values in
// column jc.hl is walked, and a tuple reached through several values is
// tested once. A nil index tests every tuple of rts.
func (idx *joinIndex) forEach(jc *joinCond, lt *Tuple, rts []*Tuple, visit func(rt *Tuple)) {
	if idx == nil {
		for _, rt := range rts {
			if pairCondTrue(jc.env, jc.out, jc.lcols, lt, rt, jc.conds) {
				visit(rt)
			}
		}
		return
	}
	idx.epoch++
	for _, it := range lt.Cells[jc.hl] {
		b, ok := idx.spans[jc.env.value(it)]
		if !ok {
			continue
		}
		for j := idx.head[b]; j >= 0; j = idx.next[j] {
			ri := idx.pos[j]
			if idx.seen[ri] == idx.epoch {
				continue
			}
			idx.seen[ri] = idx.epoch
			if rt := rts[ri]; pairCondTrue(jc.env, jc.out, jc.lcols, lt, rt, jc.conds) {
				visit(rt)
			}
		}
	}
}

// pairTuple concatenates lt and rt into a join output tuple.
func pairTuple(a *Alloc, lt, rt *Tuple) *Tuple {
	ln := len(lt.Cells)
	cells := a.makeCells(ln+len(rt.Cells), ln+len(rt.Cells))
	copy(cells, lt.Cells)
	copy(cells[ln:], rt.Cells)
	t := a.tuple()
	*t = Tuple{Cells: cells, Count: lt.Count * rt.Count,
		Kind: mergeKind(lt, rt), Region: mergeRegion(lt, rt)}
	return t
}

func mergeKind(a, b *Tuple) TupleKind {
	if a.Kind == Normal {
		return b.Kind
	}
	return a.Kind
}

func mergeRegion(a, b *Tuple) *Region {
	if a.Region != nil {
		return a.Region
	}
	return b.Region
}

// cellIdentity returns the matching identity of a cell: values for pure
// value items, id keys otherwise (Def 4.2.4 with Prop 4.2.1 for nulls).
func cellIdentity(c Cell) string {
	if len(c) == 0 {
		return "\x00null"
	}
	parts := make([]string, len(c))
	for i, it := range c {
		parts[i] = it.Lineage()
	}
	return strings.Join(parts, "\x1f")
}

// appendCellIdentity appends cellIdentity(c) to buf without intermediate
// strings, so identity map probes keyed by string(buf) stay allocation-free.
func appendCellIdentity(buf []byte, c Cell) []byte {
	if len(c) == 0 {
		return append(buf, "\x00null"...)
	}
	for i, it := range c {
		if i > 0 {
			buf = append(buf, '\x1f')
		}
		if it.IsVal {
			buf = append(buf, "v="...)
			buf = append(buf, it.Val...)
		} else {
			buf = it.ID.AppendKey(buf)
		}
	}
	return buf
}

func execDistinct(o *Op, env *Env, in *Table) *Table {
	out := env.outTable(o)
	ci := in.Col(o.InCol)
	counts := make(map[string]int)
	var order []string
	for _, tp := range in.Tuples {
		for _, it := range tp.Cells[ci] {
			v := env.value(it)
			if _, ok := counts[v]; !ok {
				order = append(order, v)
			}
			counts[v] += tp.Count
		}
	}
	for _, v := range order {
		cells := env.alloc.makeCells(1, 1)
		cells[0] = env.alloc.cell1(ValueItem(v, 0))
		t := env.alloc.tuple()
		*t = Tuple{Cells: cells, Count: counts[v]}
		out.Append(t)
	}
	return out
}

func execGroupBy(o *Op, env *Env, in *Table) *Table {
	out := env.outTable(o)
	type group struct {
		first   *Tuple
		members []*Tuple
		count   int
	}
	groups := make(map[string]*group)
	var order []string
	gidx := make([]int, len(o.GroupCols))
	for i, g := range o.GroupCols {
		gidx[i] = in.Col(g)
	}
	for _, tp := range in.Tuples {
		keyParts := make([]string, len(gidx))
		for i, gi := range gidx {
			keyParts[i] = cellIdentity(tp.Cells[gi])
		}
		k := strings.Join(keyParts, "\x1f\x1f")
		g, ok := groups[k]
		if !ok {
			g = &group{first: tp}
			groups[k] = g
			order = append(order, k)
		}
		g.members = append(g.members, tp)
		g.count += tp.Count
	}
	ci := in.Col(o.InCol)
	for _, k := range order {
		g := groups[k]
		cells := make([]Cell, 0, len(o.OutCols))
		for _, gi := range gidx {
			cells = append(cells, g.first.Cells[gi])
		}
		for _, cc := range o.CarryCols {
			cells = append(cells, in.Cell(g.first, cc))
		}
		if o.Agg == "" {
			// Combine the grouped column across members (Table 4.2: the
			// inner Combine assigns overriding order from the input OS).
			coll := Cell{}
			for _, m := range g.members {
				coll = appendCombined(coll, o, env, in, m, ci)
			}
			cells = append(cells, coll)
		} else {
			cells = append(cells, Cell{ValueItem(aggregate(env, o.Agg, g.members, ci), 0)})
		}
		out.Append(&Tuple{Cells: cells, Count: g.count, Kind: g.first.Kind, Region: g.first.Region})
	}
	return out
}

// aggregate computes the supported aggregate functions over the InCol items
// of all member tuples. Aggregates range over items, not derivations: each
// distinct item (by identity) contributes once when its net derivation
// count is positive. Summing signed per-item counts is what lets delta
// members retract base members during propagation (Ch 7.6).
func aggregate(env *Env, fn string, members []*Tuple, ci int) string {
	type acc struct {
		net int
		val string
	}
	byItem := map[string]*acc{}
	var order []string
	for _, m := range members {
		for _, it := range m.Cells[ci] {
			w := it.Count
			if w == 0 {
				w = m.Count
			}
			key := it.Lineage()
			a, ok := byItem[key]
			if !ok {
				a = &acc{val: env.value(it)}
				byItem[key] = a
				order = append(order, key)
			}
			a.net += w
		}
	}
	var vals []float64
	var strs []string
	n := 0
	for _, key := range order {
		a := byItem[key]
		if a.net <= 0 {
			continue
		}
		n++
		strs = append(strs, a.val)
		if f, ok := xpath.ParseNum(a.val); ok {
			vals = append(vals, f)
		}
	}
	switch fn {
	case "count":
		return strconv.Itoa(n)
	case "sum", "avg":
		s := 0.0
		for _, f := range vals {
			s += f
		}
		if fn == "avg" {
			if len(vals) == 0 {
				return ""
			}
			s /= float64(len(vals))
		}
		return formatNum(s)
	case "min", "max":
		if len(strs) == 0 {
			return ""
		}
		best := strs[0]
		for _, v := range strs[1:] {
			c := xpath.Compare(v, best)
			if fn == "min" && c < 0 || fn == "max" && c > 0 {
				best = v
			}
		}
		return best
	}
	return ""
}

func formatNum(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func execCombine(o *Op, env *Env, in *Table) *Table {
	out := env.outTable(o)
	ci := in.Col(o.InCol)
	coll := Cell{}
	for _, tp := range in.Tuples {
		coll = appendCombined(coll, o, env, in, tp, ci)
	}
	out.Append(&Tuple{Cells: []Cell{coll}, Count: 1})
	return out
}

// appendCombined appends the items of tp's column ci to coll as the Combine
// (or GroupBy's inner combine) o collects them: each takes the overriding
// order o assigns from its input's Order Schema (Table 4.2), none when o is
// unordered, and carries tp's derivation count.
func appendCombined(coll Cell, o *Op, env *Env, in *Table, tp *Tuple, ci int) Cell {
	for _, it := range tp.Cells[ci] {
		if o.Unordered {
			it.ID.Ord = NoOrd
		} else {
			it.ID.Ord = combineOrd(env, in, o.Inputs[0].OrderSchema, tp, o.InCol, it, o.Inputs[0].osValue())
		}
		it.Count = tp.Count
		coll = append(coll, it)
	}
	return coll
}

func execTagger(o *Op, env *Env, in *Table) *Table {
	out := env.outTable(o)
	for _, tp := range in.Tuples {
		if patternEmpty(o, in, tp) {
			// A null-padded tuple (outer join with no match): construct
			// nothing, so the enclosing group stays empty.
			out.Append(extend(env.alloc, tp, nil))
			continue
		}
		it := constructNode(o, env, in, tp)
		out.Append(extend(env.alloc, tp, env.alloc.cell1(it)))
	}
	return out
}

// patternEmpty reports whether the pattern embeds columns and every one of
// them is a null padding in this tuple. Null paddings (nil cells, produced
// only by outer joins) suppress construction; genuinely empty collections
// (non-nil empty cells) still construct, so constructors over empty results
// keep producing their element.
func patternEmpty(o *Op, in *Table, tp *Tuple) bool {
	sawCol := false
	for _, part := range o.Pattern.Content {
		if part.IsCol {
			sawCol = true
			if in.Cell(tp, part.Col) != nil {
				return false
			}
		}
	}
	for _, a := range o.Pattern.Attrs {
		for _, part := range a.Parts {
			if part.IsCol {
				sawCol = true
				if in.Cell(tp, part.Col) != nil {
					return false
				}
			}
		}
	}
	return sawCol
}

// constructNode builds the constructed node of a Tagger for one tuple:
// generates its semantic identifier from the Context Schema (Table 4.2,
// composeNodeIds) and stores its skeleton.
func constructNode(o *Op, env *Env, in *Table, tp *Tuple) Item {
	inOp := o.Inputs[0]
	pin := patternInputCol(o.Pattern)
	// The node's lineage combines the lineage of every column the pattern
	// embeds — the semantics of the XML Union feeding a Tagger in the
	// dissertation's plans (Fig 2.2 ops #13/#14). The slice is round scratch
	// (ConstructedID joins it into a string), so it may live in the arena.
	lineage := env.alloc.makeStrings(0, 8)
	colParts := 0
	for _, part := range o.Pattern.Content {
		if part.IsCol {
			colParts++
		}
	}
	pi := 0
	for _, part := range o.Pattern.Content {
		if !part.IsCol {
			continue
		}
		tag := ""
		if colParts > 1 {
			tag = "p" + itoa(pi)
		}
		lineage = append(lineage, resolveLineage(inOp, in, tp, part.Col, tag)...)
		pi++
	}
	if len(lineage) == 0 {
		for _, a := range o.Pattern.Attrs {
			for _, part := range a.Parts {
				if part.IsCol {
					lineage = append(lineage, resolveLineage(inOp, in, tp, part.Col, "")...)
				}
			}
		}
	}
	if len(lineage) == 0 {
		// Pure-literal pattern (or empty input): identify by the tuple's ECC.
		for _, c := range inOp.ECC {
			lineage = append(lineage, resolveLineage(inOp, in, tp, c, "")...)
		}
	}
	id := ConstructedID(o.ID, lineage)
	// Order prefix (Fig 4.4): from the pattern input column's order context.
	if pin != "" {
		cs := inOp.Ctx[pin]
		switch {
		case cs == nil || !cs.HasOrder:
			id.Ord = NoOrd
		case len(cs.OrderCols) > 0:
			comps := env.alloc.makeStrings(0, 4)
			for _, oc := range cs.OrderCols {
				if in.HasCol(oc) {
					comps = append(comps, orderComponents(in.Cell(tp, oc))...)
				}
			}
			id.Ord = MakeOrd(comps...)
		}
	}
	skel := env.alloc.skeleton()
	skel.Name, skel.Count = o.Pattern.Name, tp.Count
	if pin != "" {
		if cs := inOp.Ctx[pin]; cs != nil && cs.All {
			skel.Pinned = true
		}
	}
	if len(o.Pattern.Attrs) > 0 {
		skel.Attrs = env.alloc.makeSkelAttrs(0, len(o.Pattern.Attrs))
	}
	for _, a := range o.Pattern.Attrs {
		var b strings.Builder
		for _, part := range a.Parts {
			if part.IsCol {
				for _, v := range cellValues(env, in.Cell(tp, part.Col)) {
					b.WriteString(v)
				}
			} else {
				b.WriteString(part.Lit)
			}
		}
		skel.Attrs = append(skel.Attrs, SkelAttr{Name: a.Name, Value: b.String()})
	}
	// Multi-part content follows pattern order: each part gets a positional
	// order prefix, exactly like the ColID keys of an XML Union (Fig 4.5).
	// Content backing is arena scratch like the skeleton itself.
	ccap := 0
	for _, part := range o.Pattern.Content {
		if part.IsCol {
			ccap += len(in.Cell(tp, part.Col))
		} else {
			ccap++
		}
	}
	skel.Content = env.alloc.makeItems(0, ccap)
	multi := len(o.Pattern.Content) > 1
	for i, part := range o.Pattern.Content {
		prefix := Ord("")
		if multi {
			prefix = Ord("p" + itoa(i))
		}
		if part.IsCol {
			for _, it := range in.Cell(tp, part.Col) {
				if multi {
					if it.ID.Ord == NoOrd {
						it.ID.Ord = prefix
					} else {
						it.ID.Ord = it.ID.Ord.Extend(string(prefix))
					}
				}
				skel.Content = append(skel.Content, it)
			}
		} else {
			// Literal text child: identified by its position in the pattern.
			lit := Item{Val: part.Lit, IsVal: true,
				ID: ID{Body: "lit" + bodySep + itoa(i), Tag: o.ID, Constructed: true, Ord: prefix}}
			if !multi {
				lit.ID.Ord = NoOrd
			}
			skel.Content = append(skel.Content, lit)
		}
	}
	key := id.Key()
	if prev, ok := env.Cons[key]; ok {
		prev.Count += skel.Count
	} else {
		env.Cons[key] = skel
	}
	return Item{ID: id, Skel: skel}
}

// resolveLineage resolves the lineage context of column col for tuple tp
// against the context schema of op (whose output table is tbl).
func resolveLineage(op *Op, tbl *Table, tp *Tuple, col, tag string) []string {
	cs := op.Ctx[col]
	pref := func(s string) string {
		if tag != "" {
			return tag + ":" + s
		}
		return s
	}
	if cs == nil || cs.LngSelf {
		cell := tbl.Cell(tp, col)
		out := make([]string, 0, len(cell))
		for _, it := range cell {
			out = append(out, pref(it.Lineage()))
		}
		return out
	}
	if cs.All {
		return []string{pref("*")}
	}
	var out []string
	for i, lc := range cs.LngCols {
		t := cs.UnionTags[i]
		if tag != "" {
			if t == "" {
				t = tag
			} else {
				t = tag + "." + t
			}
		}
		out = append(out, resolveLineage(op, tbl, tp, lc, t)...)
	}
	return out
}

func execXMLUnion(o *Op, env *Env, in *Table) *Table {
	out := env.outTable(o)
	cs := o.Ctx[o.OutCol]
	for _, tp := range in.Tuples {
		var coll Cell
		for i, uc := range o.UnionCols {
			tag := cs.UnionTags[i]
			for _, it := range in.Cell(tp, uc) {
				// Fig 4.5: prefix the column id, preserving prior order.
				if it.ID.Ord == NoOrd {
					it.ID.Ord = Ord(tag)
				} else {
					it.ID.Ord = it.ID.Ord.Extend(tag)
				}
				coll = append(coll, it)
			}
		}
		out.Append(extend(env.alloc, tp, coll))
	}
	return out
}

func execXMLUnique(o *Op, env *Env, in *Table) *Table {
	out := env.outTable(o)
	ci := in.Col(o.InCol)
	for _, tp := range in.Tuples {
		seen := make(map[string]bool)
		var uniq Cell
		for _, it := range tp.Cells[ci] {
			k := it.Lineage()
			if seen[k] {
				continue
			}
			seen[k] = true
			// XML Unique removes overriding order: it returns document order
			// (Sec 3.3.2).
			it.ID.Ord = ""
			uniq = append(uniq, it)
		}
		out.Append(extend(env.alloc, tp, uniq))
	}
	return out
}

func execMerge(o *Op, l, r *Table) *Table {
	out := NewTable(o.OutCols...)
	lt := singleOrEmpty(l)
	rt := singleOrEmpty(r)
	cells := make([]Cell, 0, len(l.Cols)+len(r.Cols))
	cells = append(cells, lt.Cells...)
	cells = append(cells, rt.Cells...)
	out.Append(&Tuple{Cells: cells, Count: 1})
	return out
}

func singleOrEmpty(t *Table) *Tuple {
	if len(t.Tuples) > 0 {
		return t.Tuples[0]
	}
	return &Tuple{Cells: make([]Cell, len(t.Cols)), Count: 1}
}

// osValue reports whether the operator's Order Schema columns hold order-by
// values (compare by value) rather than FlexKeys. Set by Analyze.
func (o *Op) osValue() bool { return o.osVal }

// sortCellByOrder sorts a cell by overriding order, breaking ties by node
// identity (document order for base nodes). Used when dereferencing results.
func sortCellByOrder(c Cell) {
	slices.SortStableFunc(c, func(a, b Item) int {
		if cmp := CompareOrd(a.ID.Order(), b.ID.Order()); cmp != 0 {
			return cmp
		}
		return strings.Compare(a.ID.Body, b.ID.Body)
	})
}
