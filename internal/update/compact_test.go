package update

import (
	"reflect"
	"testing"

	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
)

// applySeq applies deep clones of prims to a draft of s and returns the
// serialized bib.xml — the sequential-application ground truth compaction
// must preserve.
func applySeq(t *testing.T, s *xmldoc.Store, prims []*Primitive) string {
	t.Helper()
	d := xmldoc.NewDraft(s)
	for _, p := range prims {
		cp := *p
		if p.Frag != nil {
			cp.Frag = p.Frag.Clone()
		}
		if err := ApplyToStore(d, &cp); err != nil {
			t.Fatalf("apply %v: %v", p, err)
		}
	}
	root, _ := s.RootElem("bib.xml")
	return xmldoc.Serialize(d, root)
}

func TestCompactCoalesceReplaceRuns(t *testing.T) {
	s := setup(t)
	root, _ := s.RootElem("bib.xml")
	books := xmldoc.ChildElems(s, root, "book")
	titles := xmldoc.ChildElems(s, books[0], "title")
	texts := xmldoc.TextChildren(s, titles[0])
	prims := []*Primitive{
		{Kind: Replace, Doc: "bib.xml", Key: texts[0], NewValue: "v1"},
		{Kind: Delete, Doc: "bib.xml", Key: books[1]},
		{Kind: Replace, Doc: "bib.xml", Key: texts[0], NewValue: "v2"},
		{Kind: Replace, Doc: "bib.xml", Key: texts[0], NewValue: "v3"},
	}
	kept, keptIdx, decs := CompactBatch(prims)
	if len(decs) != 1 || decs[0].Rule != "coalesce" || decs[0].Kept != 3 ||
		!reflect.DeepEqual(decs[0].Dropped, []int{0, 2}) {
		t.Fatalf("decision: %+v", decs)
	}
	if !reflect.DeepEqual(keptIdx, []int{1, 3}) {
		t.Fatalf("keptIdx: %v", keptIdx)
	}
	if applySeq(t, s, prims) != applySeq(t, s, kept) {
		t.Fatal("coalesced batch diverges from sequential application")
	}
}

// A delete of the replaced node (or an ancestor) in the same batch pins the
// replace run: order against the delete matters, so coalesce must not fire.
func TestCompactCoalesceDeleteGuard(t *testing.T) {
	s := setup(t)
	root, _ := s.RootElem("bib.xml")
	books := xmldoc.ChildElems(s, root, "book")
	titles := xmldoc.ChildElems(s, books[0], "title")
	texts := xmldoc.TextChildren(s, titles[0])
	prims := []*Primitive{
		{Kind: Replace, Doc: "bib.xml", Key: texts[0], NewValue: "v1"},
		{Kind: Replace, Doc: "bib.xml", Key: texts[0], NewValue: "v2"},
		{Kind: Delete, Doc: "bib.xml", Key: books[0]},
	}
	kept, keptIdx, decs := CompactBatch(prims)
	if len(decs) != 0 || len(keptIdx) != 0 || len(kept) != 3 {
		t.Fatalf("guarded run compacted anyway: %+v", decs)
	}
}

// A batch nothing applies to is returned as-is: same slice, no decisions —
// the common no-op path must not allocate a copy.
func TestCompactIdentityOnPlainBatch(t *testing.T) {
	s := setup(t)
	root, _ := s.RootElem("bib.xml")
	books := xmldoc.ChildElems(s, root, "book")
	prims := []*Primitive{
		{Kind: Insert, Doc: "bib.xml", Parent: root,
			Frag: xmldoc.Elem("book", xmldoc.Elem("title", xmldoc.TextF("New")))},
		{Kind: Delete, Doc: "bib.xml", Key: books[0]},
	}
	kept, keptIdx, decs := CompactBatch(prims)
	if len(decs) != 0 || keptIdx != nil {
		t.Fatalf("plain batch produced decisions: %+v", decs)
	}
	if &kept[0] != &prims[0] {
		t.Fatal("plain batch was copied instead of returned as-is")
	}
}

// Compaction is a pure function of the batch: a second run over the same
// (unmutated) input reaches identical decisions, which is what lets a failed
// round retry compaction deterministically.
func TestCompactDeterministic(t *testing.T) {
	s := setup(t)
	root, _ := s.RootElem("bib.xml")
	books := xmldoc.ChildElems(s, root, "book")
	titles := xmldoc.ChildElems(s, books[0], "title")
	texts := xmldoc.TextChildren(s, titles[0])
	k := flexkey.SiblingBetween(root, books[len(books)-1], "")
	prims := []*Primitive{
		{Kind: Replace, Doc: "bib.xml", Key: texts[0], NewValue: "v1"},
		{Kind: Insert, Doc: "bib.xml", Parent: root, Key: k,
			Frag: xmldoc.Elem("book", xmldoc.Elem("title", xmldoc.TextF("Grown")))},
		{Kind: Insert, Doc: "bib.xml", Parent: k,
			Frag: xmldoc.Elem("author", xmldoc.Elem("last", xmldoc.TextF("Late")))},
		{Kind: Replace, Doc: "bib.xml", Key: texts[0], NewValue: "v2"},
	}
	_, idx1, dec1 := CompactBatch(prims)
	_, idx2, dec2 := CompactBatch(prims)
	if !reflect.DeepEqual(dec1, dec2) || !reflect.DeepEqual(idx1, idx2) {
		t.Fatalf("compaction not deterministic:\n%+v %v\n%+v %v", dec1, idx1, dec2, idx2)
	}
}
