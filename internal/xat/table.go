package xat

import (
	"fmt"
	"strings"

	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
)

// Item is one member of a cell: a reference to a stored node (base or
// constructed) or an atomic value. Count is the derivation count of Ch 6
// carried at item granularity so that combined collections remember the
// multiplicities of their members (0 = inherit the enclosing count).
//
// Constructed items carry a direct reference to their skeleton: several
// tuples of a delta run may construct the same semantic identifier (their
// contributions are fused later by the deep union), so the skeleton cannot
// be resolved through a registry keyed by identifier alone.
type Item struct {
	ID    ID
	Val   string // atomic value when IsVal
	IsVal bool
	Count int
	Skel  *Skeleton
}

// ValueItem builds an atomic-value item.
func ValueItem(v string, count int) Item {
	return Item{Val: v, IsVal: true, Count: count}
}

// NodeItem builds a base-node item.
func NodeItem(k flexkey.Key, count int) Item {
	return Item{ID: BaseID(k), Count: count}
}

// Lineage returns the item's lineage component: the value for value items,
// the id key for node items.
func (it Item) Lineage() string {
	if it.IsVal {
		return "v=" + it.Val
	}
	return it.ID.Key()
}

// Value resolves the item's atomic value, consulting the store for node
// items.
func (it Item) Value(r xmldoc.Reader) string {
	if it.IsVal {
		return it.Val
	}
	if it.ID.Constructed {
		return "" // constructed nodes are never compared by value in our subset
	}
	return xmldoc.StringValue(r, flexkey.Key(it.ID.Body))
}

// Cell is a sequence of items. An empty cell is either an empty collection
// or an outer-join null padding; the two are treated alike (Prop 4.2.1).
type Cell []Item

// TupleKind classifies tuples flowing through the engine.
type TupleKind int

const (
	// Normal tuples belong to a full view computation.
	Normal TupleKind = iota
	// Delta tuples describe content wholly inside an update region: a
	// positive Count inserts derivations, a negative Count deletes them.
	Delta
	// Patch tuples anchor an existing node whose subtree an update changed;
	// materializing them produces zero-count spine nodes down to the update
	// region (Ch 8).
	Patch
)

// RegionMode is the type of the source update a delta tuple stems from.
type RegionMode int

const (
	// RegionInsert is an inserted fragment.
	RegionInsert RegionMode = iota
	// RegionDelete is a deleted fragment.
	RegionDelete
	// RegionModify is an in-place value replacement of a text or attribute
	// node.
	RegionModify
)

// Region identifies the source-update region a delta tuple derives from.
type Region struct {
	Mode     RegionMode
	Anchor   flexkey.Key // fragment root (insert/delete) or value node (modify)
	Parent   flexkey.Key // insert only: the base node the fragment hangs under
	NewValue string      // modify only
}

// Sign returns +1 for inserts, -1 for deletes, 0 for modifies.
func (r *Region) Sign() int {
	switch r.Mode {
	case RegionInsert:
		return 1
	case RegionDelete:
		return -1
	}
	return 0
}

// Tuple is one row of an XAT table.
type Tuple struct {
	Cells  []Cell
	Count  int
	Kind   TupleKind
	Region *Region // set on Delta and Patch tuples
}

// Table is an order-insensitive XAT table (Ch 3 migrates the algebra to
// non-ordered bag semantics; order lives in the Order Schema and in the
// overriding-order keys of the items).
type Table struct {
	Cols   []string
	colIdx map[string]int
	Tuples []*Tuple
	// alloc, when set, backs growth of the Tuples slice with the round
	// arena. Only set on engine-internal intermediate tables; tables that
	// cross the round boundary (state-cache entries, promoted copies) never
	// carry it.
	alloc *Alloc
}

// NewTable creates an empty table with the given columns.
func NewTable(cols ...string) *Table {
	t := &Table{Cols: append([]string(nil), cols...)}
	t.colIdx = make(map[string]int, len(cols))
	for i, c := range cols {
		t.colIdx[c] = i
	}
	return t
}

// Col returns the index of a column, panicking on unknown names (schema
// errors are programming errors caught by the compiler tests).
func (t *Table) Col(name string) int {
	i, ok := t.colIdx[name]
	if !ok {
		panic(fmt.Sprintf("xat: table %v has no column %s", t.Cols, name))
	}
	return i
}

// HasCol reports whether the table has the named column.
func (t *Table) HasCol(name string) bool {
	_, ok := t.colIdx[name]
	return ok
}

// Cell returns the cell of column name in tuple tp.
func (t *Table) Cell(tp *Tuple, name string) Cell {
	return tp.Cells[t.Col(name)]
}

// Append adds a tuple. Arena-backed tables grow their tuple slice from the
// round arena instead of the heap.
func (t *Table) Append(tp *Tuple) {
	if t.alloc != nil && len(t.Tuples) == cap(t.Tuples) {
		nc := 2 * cap(t.Tuples)
		if nc < 8 {
			nc = 8
		}
		grown := t.alloc.makeRefs(len(t.Tuples), nc)
		copy(grown, t.Tuples)
		t.Tuples = grown
	}
	t.Tuples = append(t.Tuples, tp)
}

// NewTuple builds a tuple with the given cells, count 1, kind Normal.
func NewTuple(cells ...Cell) *Tuple {
	return &Tuple{Cells: cells, Count: 1}
}

// CloneShape returns an empty table with the same columns. The column slice
// and index are immutable once built, so clones share them instead of
// rebuilding the map (tables are cloned on every operator evaluation).
// The arena backing is deliberately not inherited: CloneShape is used to
// build tables that may cross the round boundary (state-cache folds).
func (t *Table) CloneShape() *Table { return &Table{Cols: t.Cols, colIdx: t.colIdx} }

// extend returns a tuple that shares tp's cells plus one extra cell
// appended, copying the bookkeeping fields. The new cell slice comes from
// the round arena when a is non-nil.
func extend(a *Alloc, tp *Tuple, extra Cell) *Tuple {
	n := len(tp.Cells)
	cells := a.makeCells(n+1, n+1)
	copy(cells, tp.Cells)
	cells[n] = extra
	t := a.tuple()
	*t = Tuple{Cells: cells, Count: tp.Count, Kind: tp.Kind, Region: tp.Region}
	return t
}

// extendCells is extend with any number of extra cells (outer-join padding,
// merge columns).
func extendCells(a *Alloc, tp *Tuple, extra []Cell) *Tuple {
	n := len(tp.Cells)
	cells := a.makeCells(n+len(extra), n+len(extra))
	copy(cells, tp.Cells)
	copy(cells[n:], extra)
	t := a.tuple()
	*t = Tuple{Cells: cells, Count: tp.Count, Kind: tp.Kind, Region: tp.Region}
	return t
}

// String renders the table for debugging.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Cols, " | "))
	b.WriteByte('\n')
	for _, tp := range t.Tuples {
		parts := make([]string, len(tp.Cells))
		for i, c := range tp.Cells {
			items := make([]string, len(c))
			for j, it := range c {
				if it.IsVal {
					items[j] = fmt.Sprintf("%q", it.Val)
				} else {
					items[j] = it.ID.String()
				}
			}
			parts[i] = "{" + strings.Join(items, ", ") + "}"
		}
		fmt.Fprintf(&b, "%s  (count=%d kind=%d)\n", strings.Join(parts, " | "), tp.Count, tp.Kind)
	}
	return b.String()
}
