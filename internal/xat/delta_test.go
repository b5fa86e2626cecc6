package xat

import (
	"strings"
	"testing"

	"xqview/internal/flexkey"
	"xqview/internal/obs"
	"xqview/internal/xmldoc"
	"xqview/internal/xpath"
)

// deltaFixture builds a small plan (books → select year → <item>{title}</item>
// → Combine → <result>) plus a store, and returns everything needed to
// propagate primitive updates through it.
type deltaFixture struct {
	store *xmldoc.Store
	plan  *Plan
	root  flexkey.Key // <bib> element
}

func newDeltaFixture(t testing.TB, filterYear string) *deltaFixture {
	t.Helper()
	s := xmldoc.NewStore()
	root, err := s.Load("bib.xml", execBib)
	if err != nil {
		t.Fatal(err)
	}
	books := booksPipeline()
	cur := books
	if filterYear != "" {
		nav := &Op{Kind: OpNavCollection, InCol: "$b", OutCol: "$y",
			Path: xpath.MustParse("@year"), Inputs: []*Op{cur}}
		cur = &Op{Kind: OpSelect, Conds: []Cmp{{
			L: CmpOperand{Col: "$y"}, Op: "=", R: CmpOperand{Lit: filterYear, IsLit: true}}},
			Inputs: []*Op{nav}}
	}
	tc := &Op{Kind: OpNavCollection, InCol: "$b", OutCol: "$t",
		Path: xpath.MustParse("title"), Inputs: []*Op{cur}}
	tag := &Op{Kind: OpTagger, OutCol: "$x", Inputs: []*Op{tc},
		Pattern: &TagPattern{Name: "item", Content: []PatternPart{{Col: "$t", IsCol: true}}}}
	comb := &Op{Kind: OpCombine, InCol: "$x", Inputs: []*Op{tag}}
	res := &Op{Kind: OpTagger, OutCol: "$r", Inputs: []*Op{comb},
		Pattern: &TagPattern{Name: "result", Content: []PatternPart{{Col: "$x", IsCol: true}}}}
	plan, err := Analyze(&Op{Kind: OpExpose, InCol: "$r", Inputs: []*Op{res}})
	if err != nil {
		t.Fatal(err)
	}
	return &deltaFixture{store: s, plan: plan, root: root}
}

// propagate runs one region through the fixture's plan; an insert region
// inserts frag at its anchor.
func (f *deltaFixture) propagate(t testing.TB, r *Region, frag *xmldoc.Frag) []*VNode {
	t.Helper()
	d := xmldoc.NewDraft(f.store)
	var err error
	switch r.Mode {
	case RegionInsert:
		err = d.InsertFragmentWithKey(r.Anchor, frag)
	case RegionDelete:
		err = d.DeleteSubtree(r.Anchor)
	case RegionModify:
		err = d.ReplaceText(r.Anchor, r.NewValue)
	}
	if err != nil {
		t.Fatal(err)
	}
	roots, err := PropagateDelta(f.plan, &DeltaInput{
		Base: f.store, New: d,
		Regions: map[string][]*Region{"bib.xml": {r}},
	}, obs.Span{}, nil, NewStateCache(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return roots
}

func TestDeltaInsertProducesPositiveFragment(t *testing.T) {
	f := newDeltaFixture(t, "")
	books := xmldoc.ChildElems(f.store, f.root, "book")
	k := flexkey.SiblingBetween(f.root, books[len(books)-1], "")
	roots := f.propagate(t, &Region{Mode: RegionInsert, Anchor: k, Parent: f.root},
		xmldoc.Elem("book", xmldoc.Elem("title", xmldoc.TextF("NEW"))))
	if len(roots) != 1 {
		t.Fatalf("delta roots: %d", len(roots))
	}
	d := roots[0]
	if d.Count != 0 {
		t.Fatalf("pinned result root count: %d", d.Count)
	}
	if len(d.Children) != 1 || d.Children[0].Count != 1 {
		t.Fatalf("delta item: %s", d.Dump())
	}
	if !strings.Contains(d.Children[0].XML(), "NEW") {
		t.Fatalf("delta content: %s", d.Dump())
	}
}

func TestDeltaDeleteProducesNegativeFragment(t *testing.T) {
	f := newDeltaFixture(t, "")
	books := xmldoc.ChildElems(f.store, f.root, "book")
	roots := f.propagate(t, &Region{Mode: RegionDelete, Anchor: books[0]}, nil)
	if len(roots) != 1 || len(roots[0].Children) != 1 {
		t.Fatalf("delta roots: %d", len(roots))
	}
	c := roots[0].Children[0]
	if c.Count != -1 {
		t.Fatalf("delete delta count: %d", c.Count)
	}
	// The negative fragment carries the old content (for id matching).
	if !strings.Contains(c.Dump(), "B1") {
		t.Fatalf("delete delta content: %s", c.Dump())
	}
}

func TestDeltaModifyProducesPatchSpine(t *testing.T) {
	f := newDeltaFixture(t, "")
	books := xmldoc.ChildElems(f.store, f.root, "book")
	titles := xmldoc.ChildElems(f.store, books[0], "title")
	texts := xmldoc.TextChildren(f.store, titles[0])
	roots := f.propagate(t, &Region{Mode: RegionModify, Anchor: texts[0], NewValue: "PATCHED"}, nil)
	if len(roots) != 1 {
		t.Fatalf("delta roots: %d", len(roots))
	}
	// Every node on the spine has count 0; the leaf carries Mod.
	var mods int
	var walk func(n *VNode)
	walk = func(n *VNode) {
		if n.Count != 0 {
			t.Fatalf("patch spine node with count %d: %s", n.Count, n.ID)
		}
		if n.Mod {
			mods++
			if n.Value != "PATCHED" {
				t.Fatalf("mod value: %q", n.Value)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(roots[0])
	if mods != 1 {
		t.Fatalf("mod leaves: %d", mods)
	}
}

func TestDeltaSelectFiltersRegions(t *testing.T) {
	// A filtered view: only 1994 books. Inserting a 2000 book must produce
	// no visible delta content.
	f := newDeltaFixture(t, "1994")
	k := flexkey.SiblingBetween(f.root, "", "")
	roots := f.propagate(t, &Region{Mode: RegionInsert, Anchor: k, Parent: f.root}, xmldoc.Elem("book",
		xmldoc.AttrF("year", "2000"), xmldoc.Elem("title", xmldoc.TextF("Nope"))))
	for _, r := range roots {
		if strings.Contains(r.Dump(), "Nope") {
			t.Fatalf("filtered-out insert leaked: %s", r.Dump())
		}
	}
	// And a matching one must.
	roots = f.propagate(t, &Region{Mode: RegionInsert, Anchor: k, Parent: f.root}, xmldoc.Elem("book",
		xmldoc.AttrF("year", "1994"), xmldoc.Elem("title", xmldoc.TextF("Yep"))))
	found := false
	for _, r := range roots {
		if strings.Contains(r.Dump(), "Yep") {
			found = true
		}
	}
	if !found {
		t.Fatal("matching insert did not propagate")
	}
}

func TestDeltaIrrelevantDocUntouched(t *testing.T) {
	f := newDeltaFixture(t, "")
	// A region on a document the plan never reads yields no deltas.
	s2 := xmldoc.NewStore()
	other, err := s2.Load("other.xml", "<o><x/></o>")
	if err != nil {
		t.Fatal(err)
	}
	_ = other
	roots, err := PropagateDelta(f.plan, &DeltaInput{
		Base: f.store, New: xmldoc.NewDraft(f.store),
		Regions: map[string][]*Region{"other.xml": {{Mode: RegionDelete, Anchor: "zz"}}},
	}, obs.Span{}, nil, NewStateCache(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 0 {
		t.Fatalf("unrelated region produced %d deltas", len(roots))
	}
}
