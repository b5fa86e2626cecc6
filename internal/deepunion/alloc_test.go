package deepunion

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// randTrees generates random extents and delta batches with identifiers
// unique across the whole test and order keys unique among siblings.
type randTrees struct {
	rng  *rand.Rand
	next int
	ords map[int]bool
}

func (g *randTrees) id(tag int) xat.ID {
	g.next++
	ord := g.rng.Intn(1 << 20)
	for g.ords[ord] {
		ord = g.rng.Intn(1 << 20)
	}
	g.ords[ord] = true
	return xat.ConstructedID(tag, []string{fmt.Sprint(g.next)}).WithOrd(xat.MakeOrd(fmt.Sprint(ord)))
}

// tree returns a fresh subtree with positive counts everywhere (what an
// inserted fragment looks like), children sorted by order.
func (g *randTrees) tree(depth int) *xat.VNode {
	n := &xat.VNode{Kind: xmldoc.Element, Name: "e", Count: 1 + g.rng.Intn(3)}
	if depth >= 3 || g.rng.Intn(3) == 0 {
		n.Kind, n.Value = xmldoc.Text, fmt.Sprint("v", g.rng.Intn(100))
	}
	n.ID = g.id(2)
	for i := g.rng.Intn(3); i > 0; i-- {
		n.Attrs = append(n.Attrs, g.attr())
	}
	if n.Kind == xmldoc.Element {
		for i := g.rng.Intn(5); i > 0; i-- {
			n.Children = append(n.Children, g.tree(depth+1))
		}
		sortByOrder(n.Children)
	}
	return n
}

func (g *randTrees) attr() *xat.VNode {
	return &xat.VNode{ID: g.id(9), Kind: xmldoc.Attr, Name: "a", Value: fmt.Sprint(g.rng.Intn(10)), Count: 1}
}

// delta returns a delta tree rooted at ex's identifier: a count change, a
// kill, a value replacement or a zero-count spine, over a random subset of
// ex's attributes and children, plus new attributes and subtrees.
func (g *randTrees) delta(ex *xat.VNode) *xat.VNode {
	d := &xat.VNode{ID: ex.ID, Kind: ex.Kind, Name: ex.Name}
	switch g.rng.Intn(6) {
	case 0:
		d.Count = 1 + g.rng.Intn(2)
	case 1:
		d.Count = -ex.Count
	case 2:
		d.Mod, d.Value = true, fmt.Sprint("m", g.rng.Intn(100))
	}
	for _, a := range ex.Attrs {
		if g.rng.Intn(3) != 0 {
			continue
		}
		da := &xat.VNode{ID: a.ID, Kind: a.Kind, Name: a.Name, Value: a.Value}
		switch g.rng.Intn(4) {
		case 0:
			da.Count = -a.Count
		case 1:
			da.Mod, da.Value = true, fmt.Sprint("m", g.rng.Intn(10))
		case 2:
			da.Count, da.Value = 1, fmt.Sprint("r", g.rng.Intn(10))
		}
		d.Attrs = append(d.Attrs, da)
	}
	if g.rng.Intn(4) == 0 {
		d.Attrs = append(d.Attrs, g.attr())
	}
	for _, c := range ex.Children {
		if g.rng.Intn(3) == 0 {
			d.Children = append(d.Children, g.delta(c))
		}
	}
	for i := g.rng.Intn(3); i > 0 && ex.Kind == xmldoc.Element; i-- {
		d.Children = append(d.Children, g.tree(1))
	}
	sortByOrder(d.Children)
	return d
}

// batch returns 1–3 delta trees over random roots of the extent, sometimes
// a new root.
func (g *randTrees) batch(extent []*xat.VNode) []*xat.VNode {
	var ds []*xat.VNode
	for i := 1 + g.rng.Intn(3); i > 0; i-- {
		if len(extent) == 0 || g.rng.Intn(5) == 0 {
			ds = append(ds, g.tree(0))
			continue
		}
		ds = append(ds, g.delta(extent[g.rng.Intn(len(extent))]))
	}
	return ds
}

// refApply is the reference deep union: it merges deep clones in place,
// node by node, and prunes every dead node afterwards.
func refApply(extent, deltas []*xat.VNode) []*xat.VNode {
	var roots []*xat.VNode
	for _, r := range extent {
		roots = append(roots, r.Clone())
	}
	var merge func(ex, d *xat.VNode)
	merge = func(ex, d *xat.VNode) {
		ex.Count += d.Count
		if d.Mod {
			ex.Value = d.Value
		}
		for _, da := range d.Attrs {
			i := slices.IndexFunc(ex.Attrs, func(a *xat.VNode) bool { return a.ID.Key() == da.ID.Key() })
			switch {
			case i < 0:
				ex.Attrs = append(ex.Attrs, da.Clone())
			case da.Count == 0 && !da.Mod:
			default:
				ex.Attrs[i].Count += da.Count
				if da.Mod || da.Count > 0 {
					ex.Attrs[i].Value = da.Value
				}
			}
		}
		for _, dc := range d.Children {
			if i := slices.IndexFunc(ex.Children, func(c *xat.VNode) bool { return c.ID.Key() == dc.ID.Key() }); i >= 0 {
				merge(ex.Children[i], dc)
				continue
			}
			ex.Children = append(ex.Children, dc.Clone())
			sortByOrder(ex.Children)
		}
	}
	for _, d := range deltas {
		if i := slices.IndexFunc(roots, func(r *xat.VNode) bool { return r.ID.Key() == d.ID.Key() }); i >= 0 {
			merge(roots[i], d)
		} else {
			roots = append(roots, d.Clone())
		}
	}
	var prune func(ns []*xat.VNode) []*xat.VNode
	prune = func(ns []*xat.VNode) []*xat.VNode {
		var live []*xat.VNode
		for _, n := range ns {
			if n.Count > 0 {
				n.Attrs = prune(n.Attrs)
				n.Children = prune(n.Children)
				live = append(live, n)
			}
		}
		return live
	}
	roots = prune(roots)
	sortByOrder(roots)
	return roots
}

// dumpAll renders every field the deep union writes, element values
// included.
func dumpAll(roots []*xat.VNode) string {
	var b strings.Builder
	var walk func(n *xat.VNode, depth int)
	walk = func(n *xat.VNode, depth int) {
		fmt.Fprintf(&b, "%s%d %s %s %q count=%d\n", strings.Repeat("  ", depth), n.Kind, n.Name, n.ID, n.Value, n.Count)
		for _, a := range n.Attrs {
			walk(a, depth+1)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

// reachable adds every node reachable from roots to set.
func reachable(roots []*xat.VNode, set map[*xat.VNode]bool) {
	for _, n := range roots {
		set[n] = true
		reachable(n.Attrs, set)
		reachable(n.Children, set)
	}
}

// TestPassKeepsNoMoreThanItsDelta applies random delta batches to a random
// extent with one reused tracker, committing most passes and rolling some
// back, and checks each pass against the reference deep union and against
// the bound the copy slabs are sized on: every copy is of the extent node
// one delta node merges into and every attached node is one delta node, so
// no pass keeps more nodes than its delta trees have.
func TestPassKeepsNoMoreThanItsDelta(t *testing.T) {
	g := &randTrees{rng: rand.New(rand.NewSource(54)), ords: map[int]bool{}}
	var extent []*xat.VNode
	for i := 0; i < 3; i++ {
		extent = append(extent, g.tree(0))
	}
	sortByOrder(extent)
	tx := NewTxn()
	passes := 200
	if testing.Short() {
		passes = 50
	}
	for pass := 0; pass < passes; pass++ {
		deltas := g.batch(extent)
		want := dumpAll(refApply(extent, deltas))
		before := dumpAll(extent)
		old := map[*xat.VNode]bool{}
		reachable(extent, old)
		counted := map[*xat.VNode]bool{}
		reachable(deltas, counted)
		deltaNodes := len(counted)

		var st Stats
		out, err := ApplyTx(slices.Clone(extent), deltas, &st, nil, tx)
		if err != nil {
			t.Fatal(err)
		}
		if got := dumpAll(out); got != want {
			t.Fatalf("pass %d diverges from the reference\n--- got ---\n%s--- want ---\n%s", pass, got, want)
		}
		if err := Validate(out); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if after := dumpAll(extent); after != before {
			t.Fatalf("pass %d wrote its input extent", pass)
		}
		now := map[*xat.VNode]bool{}
		reachable(out, now)
		fresh := 0
		for n := range now {
			if !old[n] {
				fresh++
			}
		}
		if st.DeltaNodes != deltaNodes {
			t.Fatalf("pass %d: Stats.DeltaNodes %d, the delta trees have %d nodes", pass, st.DeltaNodes, deltaNodes)
		}
		if fresh > st.Kept || st.Kept > deltaNodes {
			t.Fatalf("pass %d kept %d nodes (%d reachable) for a %d-node delta", pass, st.Kept, fresh, deltaNodes)
		}
		if (st.Kept > 0) != (st.Bytes > 0) {
			t.Fatalf("pass %d kept %d nodes in %d bytes", pass, st.Kept, st.Bytes)
		}
		if pass%7 == 3 {
			tx.Rollback()
			continue
		}
		tx.Release()
		extent = out
		if len(extent) == 0 {
			extent = append(extent, g.tree(0))
		}
	}
}

// TestSmallPassAllocatesSmall pins that a pass allocates what it keeps: one
// insert under a warm 500-child root copies the root and its child list and
// attaches one node, a few KiB, where a fixed 256-node slab alone would be
// 45 KiB. The copied child list has room for the insert, so inserting does
// not reallocate it.
func TestSmallPassAllocatesSmall(t *testing.T) {
	const fanout, passes, runs = 500, 64, 32
	mkG := func(i int) *xat.VNode {
		n := elem(2, fmt.Sprint(i), "g", 1)
		n.ID = n.ID.WithOrd(xat.MakeOrd(fmt.Sprint(i)))
		n.Key() // the delta's key memo, which the attached copy inherits
		return n
	}
	root := elem(1, "*", "result", 1)
	for i := 0; i < fanout; i++ {
		root.Children = append(root.Children, mkG(2*i))
	}
	// One delta per pass, built up front: a zero-count root spine carrying
	// one new child between two existing ones.
	var deltas [][]*xat.VNode
	for i := 0; i < 1+passes+runs+1; i++ {
		deltas = append(deltas, []*xat.VNode{elem(1, "*", "result", 0, mkG(2*i+1))})
	}
	extent := []*xat.VNode{root}
	roots := make([]*xat.VNode, 1)
	tx := NewTxn()
	var st Stats
	next := 0
	pass := func() {
		roots[0] = extent[0]
		out, err := ApplyTx(roots, deltas[next], &st, nil, tx)
		if err != nil {
			t.Fatal(err)
		}
		next++
		extent = out
		tx.Release()
	}
	pass() // warm: builds the root's child index and the tracker's maps

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / passes; per >= 8<<10 {
		t.Fatalf("one insert under a %d-child root allocated %d B per pass, want < 8 KiB", fanout, per)
	}
	if cs := extent[0].Children; len(cs) != cap(cs) {
		t.Fatalf("child list len %d cap %d: the insert reallocated the copied list", len(cs), cap(cs))
	}
	// The root's copy, its child list (with room for the insert) and the
	// attached node: three allocations. A reallocating insert is a fourth.
	if allocs := testing.AllocsPerRun(runs, pass); allocs > 3 {
		t.Fatalf("one insert under a %d-child root made %.0f allocations per pass, want 3", fanout, allocs)
	}
	if got, want := len(extent[0].Children), fanout+next; got != want {
		t.Fatalf("root has %d children after %d inserts, want %d", got, next, want)
	}
}
