package deepunion

import (
	"strings"
	"testing"

	"xqview/internal/faultinject"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

func attr(lineage, name, val string, count int) *xat.VNode {
	return &xat.VNode{
		ID:   xat.ConstructedID(9, []string{lineage}),
		Kind: xmldoc.Attr, Name: name, Value: val, Count: count,
	}
}

func dumpRoots(roots []*xat.VNode) string {
	var b strings.Builder
	for _, r := range roots {
		b.WriteString(r.Dump())
	}
	return b.String()
}

// txnView builds an extent with merged nodes, attributes and a built child
// index, so the copy-on-write pass has to shadow counts, values, slices and
// the index without writing any of them in place.
func txnView() []*xat.VNode {
	g1 := elem(2, "g1", "g", 2, text("t1", 1))
	g1.Attrs = []*xat.VNode{attr("a1", "x", "1", 1)}
	root := elem(1, "*", "result", 1, g1, elem(3, "g2", "g", 1))
	childIndex(root) // persistent index must be shadowed too
	return []*xat.VNode{root}
}

// txnDeltas mutates every dimension: count merge, value mod, attr merge,
// subtree insert, and a kill that triggers pruning.
func txnDeltas() []*xat.VNode {
	mod := text("t1-new", 0)
	mod.Mod = true
	g1 := elem(2, "g1", "g", 1, mod)
	g1.Attrs = []*xat.VNode{attr("a1", "x", "2", 1)}
	kill := elem(3, "g2", "g", -1)
	ins := elem(4, "g3", "g", 1, text("t3", 1))
	return []*xat.VNode{elem(1, "*", "result", 0, g1, kill, ins)}
}

// TestApplyTxLeavesInputUntouched pins the central MVCC invariant: ApplyTx
// never writes the extent content it was handed. The returned roots are a
// distinct candidate version; the input stays byte-identical and valid, so
// a reader holding it is undisturbed. The one thing the pass takes from the
// input is the child index — maintenance state readers never consult — which
// migrates to the candidate copy and is rebuilt lazily if the input is ever
// applied onto again. Rollback is then literally nothing but abandoning the
// candidate.
func TestApplyTxLeavesInputUntouched(t *testing.T) {
	view := txnView()
	before := dumpRoots(view)
	tx := NewTxn()
	out, err := ApplyTx(append([]*xat.VNode(nil), view...), txnDeltas(), nil, nil, tx)
	if err != nil {
		t.Fatal(err)
	}
	if dumpRoots(out) == before {
		t.Fatal("apply was a no-op; test exercises nothing")
	}
	if after := dumpRoots(view); after != before {
		t.Fatalf("ApplyTx wrote the input extent:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	if err := Validate(view); err != nil {
		t.Fatalf("input extent invalid after apply: %v", err)
	}
	if view[0].Index != nil {
		t.Fatal("input extent kept its child index; the candidate should have adopted it")
	}
	if out[0].Index == nil {
		t.Fatal("candidate did not adopt the input's child index")
	}
	if err := Validate(out); err != nil {
		t.Fatalf("candidate extent invalid: %v", err)
	}
	if abandoned := tx.Rollback(); abandoned == 0 {
		t.Fatal("rollback reported no abandoned copies")
	}
	if after := dumpRoots(view); after != before {
		t.Fatalf("input extent changed across rollback:\n%s\nvs\n%s", before, after)
	}
	// The untouched input must re-apply cleanly (the commit-less round left
	// no residue in shared nodes).
	out2, err := ApplyTx(append([]*xat.VNode(nil), view...), txnDeltas(), nil, nil, NewTxn())
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(out2); err != nil {
		t.Fatalf("re-applied extent invalid: %v", err)
	}
	if dumpRoots(out2) != dumpRoots(out) {
		t.Fatalf("re-apply diverged from first apply:\n%s\nvs\n%s", dumpRoots(out), dumpRoots(out2))
	}
}

// TestApplyTxSharesUntouchedSubtrees pins the structural-sharing half of the
// copy-on-write contract: a subtree no delta touches is the SAME pointer in
// the old and the candidate extent (no per-round deep clone), while every
// node on a touched path is a fresh pointer.
func TestApplyTxSharesUntouchedSubtrees(t *testing.T) {
	view := txnView()
	oldRoot := view[0]
	var oldUntouched *xat.VNode // g2's subtree is killed, g1 is merged; use g1's text child's parent g1? g1 is touched.
	// Build a view with an extra sibling subtree no delta names.
	spare := elem(7, "spare", "g", 1, text("keep", 1))
	oldRoot.Children = append(oldRoot.Children, spare)
	oldRoot.Index = nil
	childIndex(oldRoot)
	oldUntouched = spare

	tx := NewTxn()
	out, err := ApplyTx(append([]*xat.VNode(nil), view...), txnDeltas(), nil, nil, tx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Release()
	if len(out) != 1 {
		t.Fatalf("want 1 root, got %d", len(out))
	}
	newRoot := out[0]
	if newRoot == oldRoot {
		t.Fatal("touched root was not copied")
	}
	var newSpare *xat.VNode
	for _, c := range newRoot.Children {
		if c.ID.Key() == oldUntouched.ID.Key() {
			newSpare = c
		}
	}
	if newSpare != oldUntouched {
		t.Fatal("untouched subtree was copied instead of shared by pointer")
	}
}

// TestApplyTxFaultMidApply arms the merge→prune boundary point, so the fault
// hits after every delta has been folded into the candidate. Even then the
// input extent must be byte-identical — under copy-on-write there is no
// "extent already mutated" window at all.
func TestApplyTxFaultMidApply(t *testing.T) {
	defer faultinject.Reset()
	view := txnView()
	before := dumpRoots(view)
	if err := faultinject.Arm("deepunion.apply.prune", faultinject.ModeError, 1); err != nil {
		t.Fatal(err)
	}
	tx := NewTxn()
	_, err := ApplyTx(append([]*xat.VNode(nil), view...), txnDeltas(), nil, nil, tx)
	if err == nil {
		t.Fatal("armed point did not fire")
	}
	if dumpRoots(view) != before {
		t.Fatalf("mid-apply fault left the input extent mutated:\n%s\nvs\n%s", before, dumpRoots(view))
	}
	if tx.Rollback() == 0 {
		t.Fatal("fault fired before any copy; boundary point misplaced")
	}
	if after := dumpRoots(view); after != before {
		t.Fatalf("input extent changed across rollback:\n%s\nvs\n%s", before, after)
	}
}
