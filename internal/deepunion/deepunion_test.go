package deepunion

import (
	"testing"

	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

func elem(tag int, lineage, name string, count int, children ...*xat.VNode) *xat.VNode {
	return &xat.VNode{
		ID:   xat.ConstructedID(tag, []string{lineage}),
		Kind: xmldoc.Element,
		Name: name, Count: count, Children: children,
	}
}

func text(val string, count int) *xat.VNode {
	return &xat.VNode{ID: xat.BaseID("b.b.b"), Kind: xmldoc.Text, Value: val, Count: count}
}

func TestApplyMergesCounts(t *testing.T) {
	view := []*xat.VNode{elem(1, "*", "result", 1, elem(2, "g1", "g", 2))}
	delta := []*xat.VNode{elem(1, "*", "result", 0, elem(2, "g1", "g", 1))}
	var st Stats
	out, err := ApplyTx(view, delta, &st, nil, NewTxn())
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Children[0].Count != 3 {
		t.Fatalf("count: %d", out[0].Children[0].Count)
	}
	if st.Merged == 0 {
		t.Fatal("no merges recorded")
	}
}

func TestApplyFragmentDisconnect(t *testing.T) {
	// A group with a large subtree dies from a single -2 on its root.
	sub := elem(3, "leaf", "leaf", 2)
	view := []*xat.VNode{elem(1, "*", "result", 1, elem(2, "g1", "g", 2, sub))}
	delta := []*xat.VNode{elem(1, "*", "result", 0, elem(2, "g1", "g", -2))}
	var st Stats
	out, err := ApplyTx(view, delta, &st, nil, NewTxn())
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0].Children) != 0 {
		t.Fatalf("group not disconnected: %s", out[0].XML())
	}
	if st.Removed != 1 {
		t.Fatalf("fragment disconnects: %d (must be 1: root only, not node-by-node)", st.Removed)
	}
}

func TestApplyZeroTransit(t *testing.T) {
	// -1 then +1 within one batch must not lose the node.
	view := []*xat.VNode{elem(1, "*", "result", 1, elem(2, "g1", "g", 1))}
	deltas := []*xat.VNode{
		elem(1, "*", "result", 0, elem(2, "g1", "g", -1)),
		elem(1, "*", "result", 0, elem(2, "g1", "g", 1)),
	}
	out, err := ApplyTx(view, deltas, nil, nil, NewTxn())
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0].Children) != 1 || out[0].Children[0].Count != 1 {
		t.Fatalf("zero transit lost the node: %s", out[0].XML())
	}
}

func TestApplyInsertOrdered(t *testing.T) {
	mkG := func(lineage, ord string, count int) *xat.VNode {
		n := elem(2, lineage, "g", count)
		n.ID = n.ID.WithOrd(xat.MakeOrd(ord))
		return n
	}
	view := []*xat.VNode{elem(1, "*", "result", 1, mkG("a", "1994", 1), mkG("c", "2000", 1))}
	delta := []*xat.VNode{elem(1, "*", "result", 0, mkG("b", "1996", 1))}
	out, err := ApplyTx(view, delta, nil, nil, NewTxn())
	if err != nil {
		t.Fatal(err)
	}
	cs := out[0].Children
	if len(cs) != 3 {
		t.Fatalf("children: %d", len(cs))
	}
	var ords []string
	for _, c := range cs {
		ords = append(ords, string(c.ID.Order()))
	}
	if ords[0] != "1994" || ords[1] != "1996" || ords[2] != "2000" {
		t.Fatalf("insert position wrong: %v", ords)
	}
}

func TestApplyModify(t *testing.T) {
	view := []*xat.VNode{elem(1, "*", "result", 1, text("old", 1))}
	mod := text("new", 0)
	mod.Mod = true
	delta := []*xat.VNode{elem(1, "*", "result", 0, mod)}
	var st Stats
	out, err := ApplyTx(view, delta, &st, nil, NewTxn())
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Children[0].Value != "new" || st.Modified != 1 {
		t.Fatalf("modify failed: %s", out[0].XML())
	}
	if out[0].Children[0].Count != 1 {
		t.Fatalf("modify changed count: %d", out[0].Children[0].Count)
	}
}

func TestApplyAttachesNewRoot(t *testing.T) {
	var st Stats
	out, err := ApplyTx(nil, []*xat.VNode{elem(1, "*", "result", 1)}, &st, nil, NewTxn())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || st.Inserted != 1 {
		t.Fatalf("root not attached: %d", len(out))
	}
}

func TestValidateDetectsBadExtent(t *testing.T) {
	good := []*xat.VNode{elem(1, "*", "r", 1, elem(2, "a", "g", 1))}
	if err := Validate(good); err != nil {
		t.Fatalf("good extent rejected: %v", err)
	}
	bad := []*xat.VNode{elem(1, "*", "r", 1, elem(2, "a", "g", 0))}
	if err := Validate(bad); err == nil {
		t.Fatal("zero-count child not detected")
	}
	dup := []*xat.VNode{elem(1, "*", "r", 1, elem(2, "a", "g", 1), elem(2, "a", "g", 1))}
	if err := Validate(dup); err == nil {
		t.Fatal("duplicate sibling ids not detected")
	}
}
