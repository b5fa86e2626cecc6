package xat

import (
	"unsafe"

	"xqview/internal/arena"
)

// Alloc bundles the round-scoped arena pools the delta engine allocates
// tuples from: one pool per hot type (tuples, cell slices, item backing
// arrays, table tuple-pointer slices). A nil *Alloc is valid everywhere and
// means "allocate from the heap": the path taken by one-shot full view
// computation (Execute, Materialize).
//
// The zero value is ready to use; every pool sizes its own chunks (see
// internal/arena). The lifetime contract is the round's: each core.View
// owns one Alloc for its whole lifetime, and the round's commit or rollback
// calls Release.
// Nothing allocated from an Alloc may survive Release — the state cache
// deep-copies entries out at its Prepare boundary, and materialized extents
// are built from fresh VNodes, never from arena memory.
type Alloc struct {
	tuples arena.Pool[Tuple]
	cells  arena.Pool[Cell]
	items  arena.Pool[Item]
	refs   arena.Pool[*Tuple]
	vnodes arena.Pool[VNode]
	vrefs  arena.Pool[*VNode]
	ints   arena.Pool[int32]
	skels  arena.Pool[Skeleton]
	sattrs arena.Pool[SkelAttr]
	strs   arena.Pool[string]

	// spanMaps recycles join-index bucket maps across rounds (cleared at
	// Release, buckets kept), since Go maps cannot live in the arena chunks.
	spanMaps []map[string]int32
	spanUsed int
}

// Release rewinds the arena in place for its owner's next round. With
// poisoning active (default under -race, see internal/arena), the chunks
// are zeroed and dropped instead, so round-escaping pointers read as zero
// values rather than silently aliasing the next round's data.
func (a *Alloc) Release() {
	if a == nil {
		return
	}
	p := arena.Poisoning()
	a.tuples.Reset(p)
	a.cells.Reset(p)
	a.items.Reset(p)
	a.refs.Reset(p)
	a.vnodes.Reset(p)
	a.vrefs.Reset(p)
	a.ints.Reset(p)
	a.skels.Reset(p)
	a.sattrs.Reset(p)
	a.strs.Reset(p)
	for _, m := range a.spanMaps[:a.spanUsed] {
		clear(m)
	}
	a.spanUsed = 0
}

// poolBytes prices one pool's round use in bytes.
func poolBytes[T any](p *arena.Pool[T]) (bytes int64, chunks int) {
	elems, n := p.Footprint()
	var zero T
	return int64(elems) * int64(unsafe.Sizeof(zero)), n
}

// Footprint reports the bytes every pool of the bundle handed out this round
// and the chunks they were carved from — the round-telemetry arena
// occupancy, sampled by core just before the round's commit releases the
// views' arenas. Nil-safe: the heap-fallback path reports zeros.
func (a *Alloc) Footprint() (bytes int64, chunks int) {
	if a == nil {
		return 0, 0
	}
	add := func(b int64, c int) {
		bytes += b
		chunks += c
	}
	add(poolBytes(&a.tuples))
	add(poolBytes(&a.cells))
	add(poolBytes(&a.items))
	add(poolBytes(&a.refs))
	add(poolBytes(&a.vnodes))
	add(poolBytes(&a.vrefs))
	add(poolBytes(&a.ints))
	add(poolBytes(&a.skels))
	add(poolBytes(&a.sattrs))
	add(poolBytes(&a.strs))
	return bytes, chunks
}

// tuple returns a zeroed tuple.
func (a *Alloc) tuple() *Tuple {
	if a == nil {
		return &Tuple{}
	}
	return a.tuples.Get()
}

// makeCells returns a cell slice of length n, capacity c.
func (a *Alloc) makeCells(n, c int) []Cell {
	if a == nil {
		if c < n {
			c = n
		}
		return make([]Cell, n, c)
	}
	return a.cells.Make(n, c)
}

// makeItems returns an item slice (cell backing array) of length n,
// capacity c.
func (a *Alloc) makeItems(n, c int) Cell {
	if a == nil {
		if c < n {
			c = n
		}
		return make(Cell, n, c)
	}
	return Cell(a.items.Make(n, c))
}

// cell1 returns a single-item cell.
func (a *Alloc) cell1(it Item) Cell {
	c := a.makeItems(1, 1)
	c[0] = it
	return c
}

// collection returns an empty cell with room for n items. It is never nil:
// an empty collection must stay distinguishable from a null padding.
func (a *Alloc) collection(n int) Cell {
	if n == 0 {
		return Cell{}
	}
	return a.makeItems(0, n)
}

// makeRefs returns a tuple-pointer slice of length n, capacity c, used for
// growing Table.Tuples inside arena-backed tables.
func (a *Alloc) makeRefs(n, c int) []*Tuple {
	if a == nil {
		if c < n {
			c = n
		}
		return make([]*Tuple, n, c)
	}
	return a.refs.Make(n, c)
}

// vnode returns a copy of v carved from the arena. Delta update trees are
// round transients — the deep union clones every subtree it attaches to an
// extent — so their nodes may live in the round arena.
func (a *Alloc) vnode(v VNode) *VNode {
	if a == nil {
		n := v
		return &n
	}
	n := a.vnodes.Get()
	*n = v
	return n
}

// MakeVNodeRefs returns a view-node pointer slice of length n, capacity c,
// for arena-backed delta-tree construction.
func (a *Alloc) MakeVNodeRefs(n, c int) []*VNode {
	if a == nil {
		if c < n {
			c = n
		}
		return make([]*VNode, n, c)
	}
	return a.vrefs.Make(n, c)
}

// makeInt32 returns an int32 slice of length n, capacity c (join-index
// position and epoch arrays).
func (a *Alloc) makeInt32(n, c int) []int32 {
	if a == nil {
		if c < n {
			c = n
		}
		return make([]int32, n, c)
	}
	return a.ints.Make(n, c)
}

// spanMap returns an empty recycled bucket map for a join-index build.
func (a *Alloc) spanMap(sizeHint int) map[string]int32 {
	if a == nil {
		return make(map[string]int32, sizeHint)
	}
	if a.spanUsed == len(a.spanMaps) {
		a.spanMaps = append(a.spanMaps, make(map[string]int32, sizeHint))
	}
	m := a.spanMaps[a.spanUsed]
	a.spanUsed++
	return m
}

// skeleton returns a zeroed constructed-node skeleton. Skeletons are round
// transients like the registry (env.Cons) that holds them: materialization
// copies their content into delta-tree VNodes, and the deep union clones
// everything it attaches to an extent.
func (a *Alloc) skeleton() *Skeleton {
	if a == nil {
		return &Skeleton{}
	}
	return a.skels.Get()
}

// makeSkelAttrs returns a skeleton-attribute slice of length n, capacity c.
func (a *Alloc) makeSkelAttrs(n, c int) []SkelAttr {
	if a == nil {
		if c < n {
			c = n
		}
		return make([]SkelAttr, n, c)
	}
	return a.sattrs.Make(n, c)
}

// makeStrings returns a string slice of length n, capacity c (lineage and
// order-component scratch).
func (a *Alloc) makeStrings(n, c int) []string {
	if a == nil {
		if c < n {
			c = n
		}
		return make([]string, n, c)
	}
	return a.strs.Make(n, c)
}
