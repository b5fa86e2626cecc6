package xmldoc

import (
	"math/rand"
	"testing"

	"xqview/internal/flexkey"
)

// docsXML serializes every document r registers, in name order.
func docsXML(r Reader, docs []string) string {
	out := ""
	for _, doc := range docs {
		root, _ := r.Root(doc)
		out += doc + ":" + Serialize(r, root) + "\n"
	}
	return out
}

// TestSnapshotImmutableAcrossRounds pins the MVCC store contract: a version
// taken before a round of mutations keeps reading the pre-round state
// byte-identically, while the round's frozen draft reads the post-round
// state the draft showed.
func TestSnapshotImmutableAcrossRounds(t *testing.T) {
	s := draftTestStore(t)
	snap0 := s.Snap
	pre := snap0.DebugDump()

	rng := rand.New(rand.NewSource(7))
	d := NewDraft(s)
	for i := 0; i < 8; i++ {
		mutate(t, d, rng, i)
	}
	if d.Len() == 0 {
		t.Fatal("round touched nothing; test exercises nothing")
	}
	drafted := docsXML(d, s.Docs())
	s.Snap = d.Freeze()
	if s.DebugDump() == pre {
		t.Fatal("mutations were a no-op")
	}
	if got := snap0.DebugDump(); got != pre {
		t.Fatalf("pre-round snapshot changed under mutation:\n--- want ---\n%s--- got ---\n%s", pre, got)
	}
	if got := docsXML(s.Snap, s.Docs()); got != drafted {
		t.Fatalf("frozen version diverges from its draft:\n--- draft ---\n%s--- frozen ---\n%s", drafted, got)
	}
}

// TestSnapshotDeltaCopiesNotAliases verifies a version holds its own
// records: a later round writing the same node (its draft copies the record
// the earlier round froze) must not bleed into the earlier version.
func TestSnapshotDeltaCopiesNotAliases(t *testing.T) {
	s := draftTestStore(t)
	root, _ := s.RootElem("a.xml")
	texts := s.Children(s.Children(root)[0])
	textKey := s.Children(texts[0])[0]

	var snap1 *Snap
	for _, v := range []string{"round1", "round2"} {
		d := NewDraft(s)
		if err := d.ReplaceText(textKey, v); err != nil {
			t.Fatal(err)
		}
		s.Snap = d.Freeze()
		if v == "round1" {
			snap1 = s.Snap
		}
	}
	n, ok := snap1.Node(textKey)
	if !ok || n.Value != "round1" {
		t.Fatalf("snapshot node aliased live store: got %q want %q", n.Value, "round1")
	}
	if n, _ := s.Node(textKey); n.Value != "round2" {
		t.Fatalf("store reads %q after the second round", n.Value)
	}
}

// TestSnapshotEmptyDeltaSharesHandle pins the no-op optimization: freezing
// a draft nothing was written to returns the base version itself.
func TestSnapshotEmptyDeltaSharesHandle(t *testing.T) {
	s := draftTestStore(t)
	d := NewDraft(s)
	if d.Len() != 0 {
		t.Fatalf("no mutations but the draft holds %d records", d.Len())
	}
	if d.Freeze() != s.Snap {
		t.Fatal("an empty draft produced a new version")
	}
}

// TestSnapshotDocLifecycle covers document-level changes: a document loaded
// mid-stream appears only in versions from its round on.
func TestSnapshotDocLifecycle(t *testing.T) {
	s := draftTestStore(t)
	snap0 := s.Snap

	f, err := Parse(`<n><m>x</m></n>`)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDraft(s)
	if _, err := d.LoadFragment("new.xml", f); err != nil {
		t.Fatal(err)
	}
	s.Snap = d.Freeze()
	snap1 := s.Snap

	if _, ok := snap0.Root("new.xml"); ok {
		t.Fatal("pre-load snapshot sees the new document")
	}
	if _, ok := snap1.Root("new.xml"); !ok {
		t.Fatal("post-load snapshot misses the new document")
	}
	if got, want := len(snap1.Docs()), len(snap0.Docs())+1; got != want {
		t.Fatalf("Docs: got %d want %d", got, want)
	}
	if got, want := docsXML(snap1, snap0.Docs()), docsXML(snap0, snap0.Docs()); got != want {
		t.Fatalf("the load changed the other documents:\n--- before ---\n%s--- after ---\n%s", want, got)
	}
}

// TestSnapshotNeverResurrectsDeleted: re-inserting a bare fragment at a key
// an earlier round deleted, or one the same draft deleted, brings back none
// of the old node's attributes or children — not through the draft, not in
// its frozen version, and not in any later version, which keep the
// one-record shape throughout.
func TestSnapshotNeverResurrectsDeleted(t *testing.T) {
	s := draftTestStore(t)
	root, _ := s.RootElem("a.xml")
	b := s.Children(root)[0]
	d := NewDraft(s)
	if err := d.DeleteSubtree(b); err != nil {
		t.Fatal(err)
	}
	s.Snap = d.Freeze()

	d = NewDraft(s)
	if err := d.InsertFragmentWithKey(b, Elem("b")); err != nil {
		t.Fatal(err)
	}
	c := s.Children(root)[0]
	if err := d.DeleteSubtree(c); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertFragmentWithKey(c, Elem("b")); err != nil {
		t.Fatal(err)
	}
	reborn := []flexkey.Key{b, c}
	for _, k := range reborn {
		if len(d.Attrs(k)) != 0 || len(d.Children(k)) != 0 {
			t.Fatalf("the draft resurrected %s's content", k)
		}
	}
	s.Snap = d.Freeze()
	for round := 0; round < 20; round++ {
		for _, k := range reborn {
			if len(s.Attrs(k)) != 0 || len(s.Children(k)) != 0 {
				t.Fatalf("round %d: the store resurrected %s's content", round, k)
			}
		}
		checkShape(t, "store", s, storedKeys(s.Snap))
		// Filler rounds: later versions path-copy the same trie nodes.
		d = NewDraft(s)
		if _, err := d.InsertFragment(root, "", "", Elem("f")); err != nil {
			t.Fatal(err)
		}
		s.Snap = d.Freeze()
	}
}
