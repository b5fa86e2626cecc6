package xmldoc

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xqview/internal/flexkey"
)

func draftTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if _, err := s.Load("a.xml", `<a><b x="1"><t>one</t></b><b x="2"><t>two</t></b></a>`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("c.xml", `<c><d>v</d></c>`); err != nil {
		t.Fatal(err)
	}
	return s
}

// op is one mutation a source refresh performs, replayable on any draft of
// an identical store.
type op func(d *Draft) error

// randomOp draws one mutation against the draft's current state: a fragment
// insert, a subtree delete or a text replace.
func randomOp(d *Draft, rng *rand.Rand, i int) op {
	root, _ := d.base.RootElem("a.xml")
	kids := d.Children(root)
	switch rng.Intn(3) {
	case 0:
		f := Elem("b", AttrF("x", fmt.Sprintf("n%d", i)), Elem("t", TextF(fmt.Sprintf("v%d", i))))
		return func(d *Draft) error { _, err := d.InsertFragment(root, "", "", f); return err }
	case 1:
		if len(kids) == 0 {
			return nil
		}
		k := kids[rng.Intn(len(kids))]
		return func(d *Draft) error { return d.DeleteSubtree(k) }
	default:
		if len(kids) == 0 {
			return nil
		}
		ts := d.Children(kids[rng.Intn(len(kids))])
		if len(ts) == 0 {
			return nil
		}
		texts := d.Children(ts[0])
		if len(texts) == 0 {
			return nil
		}
		v := fmt.Sprintf("r%d", i)
		return func(d *Draft) error { return d.ReplaceText(texts[0], v) }
	}
}

// mutate applies one random mutation to the draft.
func mutate(t *testing.T, d *Draft, rng *rand.Rand, i int) {
	t.Helper()
	if o := randomOp(d, rng, i); o != nil {
		if err := o(d); err != nil {
			t.Fatal(err)
		}
	}
}

func draftSetup(t *testing.T) (*Store, *Draft, flexkey.Key) {
	t.Helper()
	s := NewStore()
	root, err := s.Load("bib.xml", bibXML)
	if err != nil {
		t.Fatal(err)
	}
	return s, NewDraft(s), root
}

// TestDraftReadsInserts: the draft is the round's updated reader; an
// inserted fragment is listed under its parent in key order and reads its
// content through the draft, and inserting at a used key or under a missing
// parent fails.
func TestDraftReadsInserts(t *testing.T) {
	s, d, root := draftSetup(t)
	books := ChildElems(s, root, "book")
	k := flexkey.SiblingBetween(root, books[1], "")
	if err := d.InsertFragmentWithKey(k, Elem("book", Elem("title", TextF("Staged")))); err != nil {
		t.Fatal(err)
	}
	got := ChildElems(d, root, "book")
	if len(got) != 3 || got[2] != k {
		t.Fatalf("inserted book not visible: %v", got)
	}
	if v := StringValue(d, k); v != "Staged" {
		t.Fatalf("inserted content: %q", v)
	}
	if err := d.InsertFragmentWithKey(k, Elem("book")); err == nil {
		t.Fatal("inserting at a used key should fail")
	}
	if _, err := d.InsertFragment("zz", "", "", Elem("book")); err == nil {
		t.Fatal("inserting under a missing parent should fail")
	}
}

// TestDraftInsertLeavesStoreUntouched: the draft layers the round's writes over the store.
// Navigation descends into an inserted fragment through the draft, while the
// store keeps the pre-update document: its child list is unchanged and it
// holds none of the fragment's nodes.
func TestDraftInsertLeavesStoreUntouched(t *testing.T) {
	s, d, root := draftSetup(t)
	books := ChildElems(s, root, "book")
	k := flexkey.SiblingBetween(root, books[1], "")
	if err := d.InsertFragmentWithKey(k, Elem("book", Elem("title", TextF("Pending")))); err != nil {
		t.Fatal(err)
	}
	titles := ChildElems(d, k, "title")
	if len(titles) != 1 {
		t.Fatalf("inserted fragment's child elems: %d", len(titles))
	}
	if got := StringValue(d, titles[0]); got != "Pending" {
		t.Fatalf("navigation into the inserted fragment: %q", got)
	}
	if got := len(ChildElems(s, root, "book")); got != 2 {
		t.Fatalf("store children changed: %d", got)
	}
	for _, key := range []flexkey.Key{k, titles[0]} {
		if _, ok := s.Node(key); ok {
			t.Fatalf("inserted node %v present in the store", key)
		}
	}
}

// TestDraftDeletes: a deleted subtree leaves its parent's children but stays
// readable by key through the draft — a delete region's propagation
// navigates the content it removes (xat deltaNav relies on this) — while
// the draft's frozen version no longer has it.
func TestDraftDeletes(t *testing.T) {
	s, d, root := draftSetup(t)
	books := ChildElems(s, root, "book")
	if err := d.DeleteSubtree(books[0]); err != nil {
		t.Fatal(err)
	}
	got := ChildElems(d, root, "book")
	if len(got) != 1 || got[0] != books[1] {
		t.Fatalf("deletion not hidden: %v", got)
	}
	if v := StringValue(d, books[0]); !strings.Contains(v, "TCP/IP") {
		t.Fatalf("deleted subtree unreadable: %q", v)
	}
	if _, ok := Attribute(d, books[0], "year"); !ok {
		t.Fatal("deleted subtree's attribute unreadable")
	}
	if len(ChildElems(s, root, "book")) != 2 {
		t.Fatal("store written by the draft")
	}

	s.Snap = d.Freeze()
	if _, ok := s.Node(books[0]); ok {
		t.Fatal("the next version still holds the deleted node")
	}
	if len(s.Children(books[0])) != 0 || len(s.Attrs(books[0])) != 0 {
		t.Fatal("the next version still lists the deleted node's content")
	}
}

// TestDraftReadsReplaces: replaced text and attribute values read through
// the draft, and the store keeps the old ones.
func TestDraftReadsReplaces(t *testing.T) {
	s, d, root := draftSetup(t)
	books := ChildElems(s, root, "book")
	titles := ChildElems(s, books[0], "title")
	texts := TextChildren(s, titles[0])
	if err := d.ReplaceText(texts[0], "New Title"); err != nil {
		t.Fatal(err)
	}
	if v := StringValue(d, titles[0]); v != "New Title" {
		t.Fatalf("replace not visible: %q", v)
	}
	if v := StringValue(s, titles[0]); v == "New Title" {
		t.Fatal("store written by the draft")
	}
	ak, _ := Attribute(s, books[0], "year")
	if err := d.ReplaceText(ak, "2024"); err != nil {
		t.Fatal(err)
	}
	if v := StringValue(d, ak); v != "2024" {
		t.Fatalf("attr replace: %q", v)
	}
}

// TestDraftReplaceReadsOnePostImage: every read of a replaced key
// through the draft returns the one post-image the replace wrote, distinct
// from the store's node, and untouched keys read the store's own node.
func TestDraftReplaceReadsOnePostImage(t *testing.T) {
	s, d, root := draftSetup(t)
	books := ChildElems(s, root, "book")
	texts := TextChildren(s, ChildElems(s, books[0], "title")[0])
	if err := d.ReplaceText(texts[0], "Frozen Title"); err != nil {
		t.Fatal(err)
	}
	n1, ok := d.Node(texts[0])
	if !ok || n1.Value != "Frozen Title" {
		t.Fatalf("replaced value: %+v", n1)
	}
	n2, _ := d.Node(texts[0])
	if n1 != n2 {
		t.Fatal("replaced key reads a fresh node per read")
	}
	if bn, _ := s.Node(texts[0]); bn == n1 || bn.Value == "Frozen Title" {
		t.Fatal("the replace wrote the store's node")
	}
	on, _ := d.Node(books[1])
	sn, _ := s.Node(books[1])
	if on != sn {
		t.Fatal("untouched key did not read the store's node")
	}
}

func TestDraftCombined(t *testing.T) {
	s, d, root := draftSetup(t)
	books := ChildElems(s, root, "book")
	// Delete book 1, insert a new one between; children stay sorted.
	if err := d.DeleteSubtree(books[0]); err != nil {
		t.Fatal(err)
	}
	k, err := d.InsertFragment(root, books[0], books[1], Elem("book", Elem("title", TextF("Mid"))))
	if err != nil {
		t.Fatal(err)
	}
	got := ChildElems(d, root, "book")
	if len(got) != 2 || got[0] != k || got[1] != books[1] {
		t.Fatalf("combined view wrong: %v", got)
	}
	if got[0] > got[1] {
		t.Fatal("children unsorted")
	}
}

// TestDraftInsertsAtOnePositionKeepOrder: two inserts between the same pair
// of siblings get distinct keys, the second after the first.
func TestDraftInsertsAtOnePositionKeepOrder(t *testing.T) {
	s, d, root := draftSetup(t)
	books := ChildElems(s, root, "book")
	k1, err := d.InsertFragment(root, books[0], books[1], Elem("book"))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := d.InsertFragment(root, books[0], books[1], Elem("book"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ChildElems(d, root, "book"); len(got) != 4 || got[1] != k1 || got[2] != k2 || got[3] != books[1] {
		t.Fatalf("children %v, inserted %s then %s", got, k1, k2)
	}
}

// TestDraftZeroAllocReads: reads through a written draft — a replaced node,
// a child list with inserts and deletes, a deleted subtree — allocate
// nothing, so propagation over many views stays allocation-free.
func TestDraftZeroAllocReads(t *testing.T) {
	s, d, root := draftSetup(t)
	books := ChildElems(s, root, "book")
	texts := TextChildren(s, ChildElems(s, books[0], "title")[0])
	if err := d.ReplaceText(texts[0], "X"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertFragment(root, "", "", Elem("book")); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteSubtree(books[1]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := d.Node(texts[0]); !ok {
			t.Fatal("node vanished")
		}
		if len(d.Children(root)) != 2 || len(d.Children(books[1])) == 0 || len(d.Attrs(books[0])) != 1 {
			t.Fatal("children vanished")
		}
	})
	if allocs != 0 {
		t.Fatalf("draft reads allocate %.1f per op, want 0", allocs)
	}
}

func TestDraftRoot(t *testing.T) {
	s, d, _ := draftSetup(t)
	bk, ok1 := s.Root("bib.xml")
	dk, ok2 := d.Root("bib.xml")
	if !ok1 || !ok2 || bk != dk {
		t.Fatal("root lookup differs")
	}
	if _, ok := d.Root("missing"); ok {
		t.Fatal("missing doc found")
	}
}

// storedKeys returns the keys the version sn stores.
func storedKeys(sn *Snap) []flexkey.Key {
	var out []flexkey.Key
	sn.root.each(topShift, func(n *Node) { out = append(out, n.Key) })
	return out
}

// draftKeys returns the keys of the next version d describes: every key of
// its base and its writes that a live read (deletion markers hide) finds.
func draftKeys(d *Draft) []flexkey.Key {
	keys := storedKeys(d.base)
	for k := range d.nodes {
		keys = append(keys, k)
	}
	var out []flexkey.Key
	for _, k := range keys {
		if _, ok := d.live(k); ok && !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// checkShape checks the one-record shape of a version read through r, over
// the keys it stores: every key a record lists in Children or Attrs is
// stored and its FlexKey parent is that record's key, Children is strictly
// sorted (key order is document order), and every stored node but a
// document node is listed by its parent.
func checkShape(t *testing.T, what string, r Reader, keys []flexkey.Key) {
	t.Helper()
	for _, k := range keys {
		n, ok := r.Node(k)
		if !ok || n.Key != k {
			t.Fatalf("%s: %s is not stored under its key", what, k)
		}
		for i := 1; i < len(n.Children); i++ {
			if n.Children[i-1] >= n.Children[i] {
				t.Fatalf("%s: children of %s unsorted: %v", what, k, n.Children)
			}
		}
		for _, c := range append(slices.Clip(n.Children), n.Attrs...) {
			if _, ok := r.Node(c); !ok {
				t.Fatalf("%s: %s lists %s, which is not stored", what, k, c)
			}
			if p, _ := flexkey.Parent(c); p != k {
				t.Fatalf("%s: %s lists %s, whose parent key is %s", what, k, c, p)
			}
		}
		if n.Kind == Document {
			continue
		}
		p, _ := flexkey.Parent(k)
		if pn, ok := r.Node(p); !ok || !slices.Contains(pn.Children, k) && !slices.Contains(pn.Attrs, k) {
			t.Fatalf("%s: %s is not listed by its parent %s", what, k, p)
		}
	}
}

// TestDraftInstallMatchesSequential: committing one draft holding a whole
// batch leaves the store byte-identical (size line included) to applying
// the batch one primitive at a time, each in its own committed draft. The
// draft before the commit and the committed version each keep the
// one-record shape. The first batch inserts under a node it then deletes.
func TestDraftInstallMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, seq := draftTestStore(t), draftTestStore(t)
	for round := 0; round < 30; round++ {
		d := NewDraft(s)
		var ops []op
		if round == 0 {
			root, _ := s.RootElem("a.xml")
			b := s.Children(root)[0]
			ops = append(ops,
				func(d *Draft) error { _, err := d.InsertFragment(b, "", "", Elem("n", TextF("doomed"))); return err },
				func(d *Draft) error { return d.DeleteSubtree(b) })
			for _, o := range ops {
				if err := o(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 1+rng.Intn(5); i++ {
			if o := randomOp(d, rng, round*10+i); o != nil {
				if err := o(d); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, o)
			}
		}
		checkShape(t, fmt.Sprintf("round %d draft", round), d, draftKeys(d))
		s.Snap = d.Freeze()
		checkShape(t, fmt.Sprintf("round %d store", round), s, storedKeys(s.Snap))
		for _, o := range ops {
			one := NewDraft(seq)
			if err := o(one); err != nil {
				t.Fatal(err)
			}
			seq.Snap = one.Freeze()
		}
		if got, want := s.DebugDump(), seq.DebugDump(); got != want {
			t.Fatalf("round %d: batch commit diverges from sequential:\n--- sequential ---\n%s--- batch ---\n%s", round, want, got)
		}
	}
}

// TestDroppedDraftLeavesStoreUntouched: rolling a round back is dropping its
// draft. Random mutation batches on a draft never write the store, so the
// store's DebugDump after the drop is byte-identical to before, while the
// same class of mutations committed does change it.
func TestDroppedDraftLeavesStoreUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := draftTestStore(t)
	for round := 0; round < 20; round++ {
		before := s.DebugDump()
		d := NewDraft(s)
		for i := 0; i < 1+rng.Intn(4); i++ {
			mutate(t, d, rng, round*10+i)
		}
		if after := s.DebugDump(); after != before {
			t.Fatalf("round %d: draft wrote the store:\n--- before ---\n%s\n--- after ---\n%s", round, before, after)
		}
		// Now commit a round, so later rounds drop drafts over varied store
		// shapes.
		d = NewDraft(s)
		mutate(t, d, rng, round*10+9)
		s.Snap = d.Freeze()
	}
}

// TestHandedOutNodeSurvivesDraftAndInstall: a node handed out before the round keeps its
// pre-round contents through the draft, after a rollback, and after a
// commit too — the next version holds a new node rather than the old one written.
func TestHandedOutNodeSurvivesDraftAndInstall(t *testing.T) {
	s := draftTestStore(t)
	root, _ := s.RootElem("c.xml")
	text := s.Children(s.Children(root)[0])[0]
	alias, _ := s.Node(text)
	d := NewDraft(s)
	if err := d.ReplaceText(text, "changed"); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Node(text); n.Value != "changed" || alias.Value != "v" {
		t.Fatalf("draft reads %q, alias %q", n.Value, alias.Value)
	}
	s.Snap = d.Freeze()
	if n, _ := s.Node(text); n.Value != "changed" || alias.Value != "v" {
		t.Fatalf("store reads %q after the commit, alias %q", n.Value, alias.Value)
	}
}

// TestDroppedDraftLoadLeavesStoreUntouched: a document loaded in a draft is visible
// through it only; dropping the draft leaves the store without it.
func TestDroppedDraftLoadLeavesStoreUntouched(t *testing.T) {
	s := draftTestStore(t)
	before := s.DebugDump()
	d := NewDraft(s)
	f, err := Parse(`<n><m>x</m></n>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadFragment("new.xml", f); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Root("new.xml"); !ok {
		t.Fatal("document not loaded in the draft")
	}
	if _, err := d.LoadFragment("new.xml", f); err == nil {
		t.Fatal("loading a document twice should fail")
	}
	if after := s.DebugDump(); after != before {
		t.Fatalf("draft load wrote the store:\n%s\nvs\n%s", before, after)
	}
	if _, ok := s.Root("new.xml"); ok {
		t.Fatal("document registered in the store")
	}
}

// TestEmptyDraftInstallIsNoop: a draft nothing was written to holds no
// records, and committing it leaves the store byte-identical.
func TestEmptyDraftInstallIsNoop(t *testing.T) {
	s := draftTestStore(t)
	before := s.DebugDump()
	d := NewDraft(s)
	if d.Len() != 0 {
		t.Fatalf("unwritten draft holds %d records", d.Len())
	}
	s.Snap = d.Freeze()
	if s.DebugDump() != before {
		t.Fatal("committing an empty draft changed the store")
	}
}
