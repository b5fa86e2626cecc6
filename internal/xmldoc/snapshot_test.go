package xmldoc

import (
	"math/rand"
	"testing"

	"xqview/internal/flexkey"
)

// TestSnapshotImmutableAcrossRounds pins the MVCC store contract: a snapshot
// taken before a round of mutations keeps reading the pre-round state
// byte-identically, while Extend with the round's delta reads the post-round
// state byte-identically — both verified against live-store dumps.
func TestSnapshotImmutableAcrossRounds(t *testing.T) {
	s := draftTestStore(t)
	pre := s.DumpPrefix()
	snap0 := SnapOf(s)
	if got := snap0.DebugDump(); got != pre {
		t.Fatalf("fresh snapshot diverges from store:\n%s\nvs\n%s", pre, got)
	}

	rng := rand.New(rand.NewSource(7))
	d := NewDraft(s)
	for i := 0; i < 8; i++ {
		mutate(t, d, rng, i)
	}
	delta := d.Delta()
	if delta.Empty() {
		t.Fatal("round touched nothing; test exercises nothing")
	}
	s.Install(delta)
	post := s.DumpPrefix()
	if post == pre {
		t.Fatal("mutations were a no-op")
	}

	if got := snap0.DebugDump(); got != pre {
		t.Fatalf("pre-round snapshot changed under mutation:\n--- want ---\n%s--- got ---\n%s", pre, got)
	}
	snap1 := snap0.Extend(delta)
	if got := snap1.DebugDump(); got != post {
		t.Fatalf("extended snapshot diverges from post-round store:\n--- want ---\n%s--- got ---\n%s", post, got)
	}
	// And the old snapshot is still untouched after Extend.
	if got := snap0.DebugDump(); got != pre {
		t.Fatal("Extend mutated the base snapshot")
	}
}

// TestSnapshotDeltaCopiesNotAliases verifies a delta holds its own copies:
// a later round writing the same node (its draft copies the node the store
// got from this delta) must not bleed into an already-built snapshot.
func TestSnapshotDeltaCopiesNotAliases(t *testing.T) {
	s := draftTestStore(t)
	snap0 := SnapOf(s)
	root, _ := s.RootElem("a.xml")
	texts := s.Children(s.Children(root)[0])
	textKey := s.Children(texts[0])[0]

	for _, v := range []string{"round1", "round2"} {
		d := NewDraft(s)
		if err := d.ReplaceText(textKey, v); err != nil {
			t.Fatal(err)
		}
		s.Install(d.Delta())
		if v == "round1" {
			snap0 = snap0.Extend(d.Delta())
		}
	}
	n, ok := snap0.Node(textKey)
	if !ok || n.Value != "round1" {
		t.Fatalf("snapshot node aliased live store: got %q want %q", n.Value, "round1")
	}
	if n, _ := s.Node(textKey); n.Value != "round2" {
		t.Fatalf("store reads %q after the second round", n.Value)
	}
}

// TestSnapshotChainFlattens runs more rounds than maxDeltaChain and asserts
// the chain depth stays bounded while the newest snapshot still reads the
// live state byte-identically and old handles keep their frames.
func TestSnapshotChainFlattens(t *testing.T) {
	s := draftTestStore(t)
	snap := SnapOf(s)
	rng := rand.New(rand.NewSource(11))
	frames := []string{s.DumpPrefix()}
	snaps := []*Snap{snap}
	const rounds = 3*maxDeltaChain + 5
	for i := 0; i < rounds; i++ {
		d := NewDraft(s)
		mutate(t, d, rng, i)
		s.Install(d.Delta())
		snap = snap.Extend(d.Delta())
		if snap.Depth() > maxDeltaChain {
			t.Fatalf("round %d: chain depth %d exceeds bound %d", i, snap.Depth(), maxDeltaChain)
		}
		frames = append(frames, s.DumpPrefix())
		snaps = append(snaps, snap)
	}
	if got := snap.DebugDump(); got != frames[len(frames)-1] {
		t.Fatalf("final snapshot diverges from live store:\n--- want ---\n%s--- got ---\n%s",
			frames[len(frames)-1], got)
	}
	// Spot-check a handful of historical handles, including ones taken
	// before and after flattening kicked in.
	for _, i := range []int{0, 1, maxDeltaChain, maxDeltaChain + 1, 2 * maxDeltaChain, rounds} {
		if got := snaps[i].DebugDump(); got != frames[i] {
			t.Fatalf("snapshot %d lost its frame:\n--- want ---\n%s--- got ---\n%s", i, frames[i], got)
		}
	}
}

// TestSnapshotEmptyDeltaSharesHandle pins the no-op optimization: extending
// with an empty delta returns the same immutable snapshot.
func TestSnapshotEmptyDeltaSharesHandle(t *testing.T) {
	s := draftTestStore(t)
	snap := SnapOf(s)
	d := NewDraft(s).Delta()
	if !d.Empty() {
		t.Fatalf("no mutations but delta masks %d keys", d.Len())
	}
	if got := snap.Extend(d); got != snap {
		t.Fatal("empty delta produced a new snapshot")
	}
	if snap.Extend(nil) != snap {
		t.Fatal("nil delta produced a new snapshot")
	}
}

// TestSnapshotDocLifecycle covers document-level delta entries: a document
// loaded mid-stream appears only in snapshots extended past its round, and
// deleting a subtree masks the keys for newer snapshots only.
func TestSnapshotDocLifecycle(t *testing.T) {
	s := draftTestStore(t)
	snap0 := SnapOf(s)

	f, err := Parse(`<n><m>x</m></n>`)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDraft(s)
	if _, err := d.LoadFragment("new.xml", f); err != nil {
		t.Fatal(err)
	}
	s.Install(d.Delta())
	snap1 := snap0.Extend(d.Delta())

	if _, ok := snap0.Root("new.xml"); ok {
		t.Fatal("pre-load snapshot sees the new document")
	}
	if _, ok := snap1.Root("new.xml"); !ok {
		t.Fatal("post-load snapshot misses the new document")
	}
	if got, want := len(snap1.Docs()), len(snap0.Docs())+1; got != want {
		t.Fatalf("Docs: got %d want %d", got, want)
	}
	if got := snap1.DebugDump(); got != s.DumpPrefix() {
		t.Fatalf("post-load snapshot diverges:\n--- want ---\n%s--- got ---\n%s", s.DumpPrefix(), got)
	}
}

// TestSnapshotNeverResurrectsDeleted: re-inserting a bare fragment at a key
// an earlier round deleted, or one the same draft deleted, brings back none
// of the old node's attributes or children — not through the draft, not
// through the snapshot chain, not after the chain flattens, and not in the
// store, which keep the one-record shape throughout.
func TestSnapshotNeverResurrectsDeleted(t *testing.T) {
	s := draftTestStore(t)
	snap := SnapOf(s)
	root, _ := s.RootElem("a.xml")
	b := s.Children(root)[0]
	d := NewDraft(s)
	if err := d.DeleteSubtree(b); err != nil {
		t.Fatal(err)
	}
	s.Install(d.Delta())
	snap = snap.Extend(d.Delta())

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
	s.Install(d.Delta())
	snap = snap.Extend(d.Delta())
	for round := 0; ; round++ {
		for name, r := range map[string]Reader{"store": s, "snapshot": snap} {
			for _, k := range reborn {
				if len(r.Attrs(k)) != 0 || len(r.Children(k)) != 0 {
					t.Fatalf("round %d: %s resurrected %s's content", round, name, k)
				}
			}
		}
		checkShape(t, "store", s, storedKeys(&Snap{base: s}))
		checkShape(t, "snapshot", snap, storedKeys(snap))
		if got, want := snap.DebugDump(), s.DumpPrefix(); got != want {
			t.Fatalf("round %d: snapshot diverges from store:\n--- store ---\n%s--- snapshot ---\n%s", round, want, got)
		}
		if round > maxDeltaChain {
			return
		}
		// Filler rounds until the chain flattens.
		d = NewDraft(s)
		if _, err := d.InsertFragment(root, "", "", Elem("f")); err != nil {
			t.Fatal(err)
		}
		s.Install(d.Delta())
		snap = snap.Extend(d.Delta())
	}
}
