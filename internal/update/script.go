package update

import (
	"fmt"
	"slices"
	"strings"

	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
	"xqview/internal/xpath"
)

// scriptEval is the evaluation context of one ParseAndEvaluate call. Every
// statement of a script sees the same pre-script store, so what one
// statement computed about it holds for all that follow: the context chains
// the statements evaluated so far, and each keeps what its evaluation
// produced (evalState). A later statement over the same document and
// for-path — the same source text — takes its binding list from the first
// such statement, and probes the value column that statement's where clause
// built. The context dies with the call; nothing is cached across scripts.
type scriptEval struct {
	store   *xmldoc.Store
	last    *statement // most recently evaluated statement; earlier ones follow prev
	prims   []*Primitive
	deletes int // Delete primitives in prims
}

// evalState is the part of a statement the evaluator fills in.
type evalState struct {
	prev     *statement    // statement evaluated before this one
	bindings []flexkey.Key // nodes the for-clause binds, shared between statements with one for-path
	probe    int           // index in conds of the condition a value probe can answer; -1 if none
	col      column        // value column of conds[probe], kept by the first statement to probe it
	primEnd  int           // len(scriptEval.prims) once this statement is evaluated
}

// column is the string-value column of one (document, for-path, where-path)
// over the binding list, hashed for "=" probes. It is built the second time
// a script probes it: a script that asks once (every single-statement
// script) scans, as it always did, and builds nothing. Values xpath.ParseNum
// accepts are keyed by their number and all others by their text, which is
// xpath.CompareValues' rule for "=": numeric when both sides parse, so a
// numeric literal can only equal a numeric value and a non-numeric one only
// its own text. Each entry lists positions in the binding list, ascending.
type column struct {
	probes int
	str    map[string][]int32
	num    map[float64][]int32
}

// evaluate appends the statement's primitives to e.prims.
func (e *scriptEval) evaluate(st *statement) error {
	docRoot, ok := e.store.Root(st.doc)
	if !ok {
		return fmt.Errorf("update: document %q not loaded", st.doc)
	}
	st.probe = -1
	for i := range st.conds {
		if st.conds[i].op == "=" {
			st.probe = i
			break
		}
	}
	// Distinct for-paths in a script are few (one per statement template)
	// and each costs a path evaluation, so walking the earlier statements
	// is cheaper than a map a one-statement script would have to allocate.
	// The walk runs backwards; the last match it sees is the first
	// statement of the script that evaluated the list, or probed the column.
	var list, col *statement
	for t := e.last; t != nil; t = t.prev {
		if t.doc != st.doc || t.pathSrc != st.pathSrc {
			continue
		}
		list = t
		if st.probe >= 0 && t.probe >= 0 && t.conds[t.probe].src == st.conds[st.probe].src {
			col = t
		}
	}
	st.prev, e.last = e.last, st
	switch {
	case list != nil:
		st.bindings = list.bindings
	case st.path == nil:
		st.bindings = []flexkey.Key{docRoot}
	default:
		st.bindings = xpath.Eval(e.store, docRoot, st.path)
	}

	if st.probe >= 0 {
		if col == nil {
			col = st
		}
		col.col.probes++
	}
	var err error
	if col != nil && col.col.probes >= 2 {
		err = e.lookup(st, &col.col)
	} else {
		err = e.scan(st)
	}
	st.primEnd = len(e.prims)
	return err
}

// scan tests every binding against the whole where clause.
func (e *scriptEval) scan(st *statement) error {
	for _, b := range st.bindings {
		if err := e.emitIfHolds(st, b, -1); err != nil {
			return err
		}
	}
	return nil
}

// lookup answers the probe condition from the column's hash and tests the
// candidates against the rest of the where clause.
func (e *scriptEval) lookup(st *statement, col *column) error {
	c := &st.conds[st.probe]
	if col.str == nil {
		col.build(e.store, st.bindings, c.path)
	}
	var hits []int32
	if f, ok := xpath.ParseNum(c.lit); ok {
		hits = col.num[f]
	} else {
		hits = col.str[c.lit]
	}
	for _, i := range hits {
		if err := e.emitIfHolds(st, st.bindings[i], st.probe); err != nil {
			return err
		}
	}
	return nil
}

// build hashes the string values path selects under each binding. A binding
// with several values is listed under each of them, once.
func (col *column) build(s *xmldoc.Store, bindings []flexkey.Key, path *xpath.Path) {
	col.str = make(map[string][]int32)
	col.num = make(map[float64][]int32)
	for i, b := range bindings {
		for _, t := range condTargets(s, b, path) {
			v := xmldoc.StringValue(s, t)
			if f, ok := xpath.ParseNum(v); ok {
				col.num[f] = appendOnce(col.num[f], int32(i))
			} else {
				col.str[v] = appendOnce(col.str[v], int32(i))
			}
		}
	}
}

// appendOnce appends i unless it is already the last entry; positions arrive
// in ascending order, so that keeps each list free of duplicates.
func appendOnce(list []int32, i int32) []int32 {
	if n := len(list); n > 0 && list[n-1] == i {
		return list
	}
	return append(list, i)
}

// emitIfHolds appends the primitives the statement's action yields for
// binding b, if b satisfies the where clause (conds[skip] taken as given).
func (e *scriptEval) emitIfHolds(st *statement, b flexkey.Key, skip int) error {
	if !st.condsHold(e.store, b, skip) {
		return nil
	}
	if st.target == nil {
		return e.emitTarget(st, b)
	}
	for _, tgt := range xpath.Eval(e.store, b, st.target) {
		if err := e.emitTarget(st, tgt); err != nil {
			return err
		}
	}
	return nil
}

func (e *scriptEval) emitTarget(st *statement, tgt flexkey.Key) error {
	prim, err := st.primitiveFor(e.store, tgt)
	if err != nil {
		return err
	}
	if prim.Kind == Delete {
		e.deletes++
	}
	e.prims = append(e.prims, prim)
	return nil
}

// condsHold reports whether binding b satisfies every condition of the where
// clause except conds[skip] (-1 skips none). A condition holds if any node
// its path selects compares true (existential semantics).
func (st *statement) condsHold(s *xmldoc.Store, b flexkey.Key, skip int) bool {
	for i := range st.conds {
		if i == skip {
			continue
		}
		c := &st.conds[i]
		hit := false
		for _, t := range condTargets(s, b, c.path) {
			if xpath.CompareValues(xmldoc.StringValue(s, t), c.op, c.lit) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// condTargets returns the nodes a condition's path selects under binding b:
// b itself when the condition has no path.
func condTargets(s *xmldoc.Store, b flexkey.Key, path *xpath.Path) []flexkey.Key {
	if path == nil {
		return []flexkey.Key{b}
	}
	return xpath.Eval(s, b, path)
}

// conflict rejects a script in which a delete or replace targets a node that
// an earlier primitive of the script deletes — the node itself or one of its
// ancestors. Applied in order to the store, the later primitive would find
// its target gone, and the round would fail in source refresh after all the
// maintenance work was done. The opposite order (replace a value, then
// delete the subtree around it) applies cleanly and stays accepted, as do
// inserts under or beside a deleted node.
func (e *scriptEval) conflict() error {
	if e.deletes == 0 || len(e.prims) < 2 {
		return nil
	}
	// Deleted targets sorted by key, a key deleted twice by position: the
	// search below lands on a key's first delete. One slice rather than a
	// map keeps a statement that deletes several nodes at the allocation
	// count it had before this check existed.
	type deleted struct {
		key flexkey.Key
		pos int // position in prims
	}
	dels := make([]deleted, 0, e.deletes)
	for i, p := range e.prims {
		if p.Kind == Delete {
			dels = append(dels, deleted{p.Key, i})
		}
	}
	slices.SortFunc(dels, func(a, b deleted) int {
		if c := strings.Compare(string(a.key), string(b.key)); c != 0 {
			return c
		}
		return a.pos - b.pos
	})
	for i, p := range e.prims {
		if p.Kind == Insert {
			continue
		}
		for k := p.Key; k != ""; k = e.store.Parent(k) {
			j, found := slices.BinarySearchFunc(dels, k, func(d deleted, k flexkey.Key) int {
				return strings.Compare(string(d.key), string(k))
			})
			if found && dels[j].pos < i {
				return e.conflictError(dels[j].pos, i)
			}
		}
	}
	return nil
}

// conflictError names the two statements whose primitives at positions first
// and second collide, and the key they share.
func (e *scriptEval) conflictError(first, second int) error {
	name := func(pos int) string {
		st := e.last
		for st.prev != nil && pos < st.prev.primEnd {
			st = st.prev
		}
		ordinal := 1
		for t := st.prev; t != nil; t = t.prev {
			ordinal++
		}
		return fmt.Sprintf("statement %d (offset %d)", ordinal, st.offset)
	}
	del, p := e.prims[first], e.prims[second]
	if p.Key == del.Key {
		return fmt.Errorf("update: %s %ss %s, which %s already deletes", name(second), p.Kind, p.Key, name(first))
	}
	return fmt.Errorf("update: %s %ss %s inside %s, which %s deletes", name(second), p.Kind, p.Key, del.Key, name(first))
}
