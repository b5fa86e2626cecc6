package xat

import (
	"strings"
	"testing"

	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
	"xqview/internal/xpath"
)

const execBib = `
<bib>
  <book year="1994"><title>B1</title><price>10</price></book>
  <book year="2000"><title>B2</title><price>30</price></book>
  <book year="1994"><title>B3</title><price>20</price></book>
</bib>`

func execStore(t *testing.T) *xmldoc.Store {
	t.Helper()
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", execBib); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildPlan assembles and analyzes a plan from a root op.
func buildPlan(t *testing.T, root *Op) *Plan {
	t.Helper()
	p, err := Analyze(root)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func booksPipeline() *Op { return booksPipelineAs("$s", "$b") }

// booksPipelineAs is booksPipeline under the given source and book column
// names, so a plan can join two copies of it without a column clash.
func booksPipelineAs(s, b string) *Op {
	src := &Op{Kind: OpSource, Doc: "bib.xml", OutCol: s}
	return &Op{Kind: OpNavUnnest, InCol: s, OutCol: b,
		Path: xpath.MustParse("bib/book"), Inputs: []*Op{src}}
}

func runTable(t *testing.T, s *xmldoc.Store, root *Op) (*Table, *Env) {
	t.Helper()
	p := buildPlan(t, root)
	env := NewEnv(s)
	tbl, err := Execute(p, env)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, p.Dump())
	}
	return tbl, env
}

func TestSourceAndNavUnnest(t *testing.T) {
	s := execStore(t)
	tbl, _ := runTable(t, s, booksPipeline())
	if len(tbl.Tuples) != 3 {
		t.Fatalf("want 3 book tuples, got %d", len(tbl.Tuples))
	}
	// Order Schema must be the unnest column.
	p := buildPlan(t, booksPipeline())
	if os := p.Root.OrderSchema; len(os) != 1 || os[0] != "$b" {
		t.Fatalf("order schema: %v", os)
	}
}

func TestNavUnnestDocumentOrder(t *testing.T) {
	s := execStore(t)
	tbl, _ := runTable(t, s, booksPipeline())
	var prev Ord
	for i, tp := range tbl.Tuples {
		it := tp.Cells[tbl.Col("$b")][0]
		if i > 0 && CompareOrd(prev, it.ID.Order()) > 0 {
			t.Fatal("unnest lost document order")
		}
		prev = it.ID.Order()
	}
}

func TestSelectFilter(t *testing.T) {
	s := execStore(t)
	books := booksPipeline()
	nav := &Op{Kind: OpNavCollection, InCol: "$b", OutCol: "$y",
		Path: xpath.MustParse("@year"), Inputs: []*Op{books}}
	sel := &Op{Kind: OpSelect, Conds: []Cmp{{
		L: CmpOperand{Col: "$y"}, Op: "=", R: CmpOperand{Lit: "1994", IsLit: true}}},
		Inputs: []*Op{nav}}
	tbl, _ := runTable(t, s, sel)
	if len(tbl.Tuples) != 2 {
		t.Fatalf("want 2 tuples for 1994, got %d", len(tbl.Tuples))
	}
}

func TestDistinctCounts(t *testing.T) {
	s := execStore(t)
	books := booksPipeline()
	nav := &Op{Kind: OpNavUnnest, InCol: "$b", OutCol: "$y",
		Path: xpath.MustParse("@year"), Inputs: []*Op{books}}
	d := &Op{Kind: OpDistinct, InCol: "$y", Inputs: []*Op{nav}}
	tbl, _ := runTable(t, s, d)
	if len(tbl.Tuples) != 2 {
		t.Fatalf("want 2 distinct years, got %d", len(tbl.Tuples))
	}
	counts := map[string]int{}
	for _, tp := range tbl.Tuples {
		counts[tp.Cells[0][0].Val] = tp.Count
	}
	// Counting solution (Ch 6): 1994 derives from two books.
	if counts["1994"] != 2 || counts["2000"] != 1 {
		t.Fatalf("distinct derivation counts: %v", counts)
	}
}

func TestGroupByCombineOrder(t *testing.T) {
	s := execStore(t)
	books := booksPipeline()
	nav := &Op{Kind: OpNavUnnest, InCol: "$b", OutCol: "$y",
		Path: xpath.MustParse("@year"), Inputs: []*Op{books}}
	g := &Op{Kind: OpGroupBy, GroupCols: []string{"$y"}, InCol: "$b", Inputs: []*Op{nav}}
	tbl, _ := runTable(t, s, g)
	if len(tbl.Tuples) != 2 {
		t.Fatalf("want 2 groups, got %d", len(tbl.Tuples))
	}
	for _, tp := range tbl.Tuples {
		year := tp.Cells[tbl.Col("$y")][0].Val
		coll := tbl.Cell(tp, "$b")
		if year == "1994" {
			if len(coll) != 2 || tp.Count != 2 {
				t.Fatalf("1994 group: %d members count %d", len(coll), tp.Count)
			}
			// Members keep document order through their overriding order.
			if CompareOrd(coll[0].ID.Order(), coll[1].ID.Order()) > 0 {
				t.Fatal("group members out of document order")
			}
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	s := execStore(t)
	cases := []struct {
		agg  string
		y    string
		want string
	}{
		{"count", "1994", "2"}, {"count", "2000", "1"},
		{"sum", "1994", "30"}, {"avg", "1994", "15"},
		{"min", "1994", "10"}, {"max", "1994", "20"},
	}
	for _, c := range cases {
		books := booksPipeline()
		yn := &Op{Kind: OpNavUnnest, InCol: "$b", OutCol: "$y",
			Path: xpath.MustParse("@year"), Inputs: []*Op{books}}
		pn := &Op{Kind: OpNavCollection, InCol: "$b", OutCol: "$p",
			Path: xpath.MustParse("price"), Inputs: []*Op{yn}}
		g := &Op{Kind: OpGroupBy, GroupCols: []string{"$y"}, InCol: "$p",
			Agg: c.agg, Inputs: []*Op{pn}}
		tbl, _ := runTable(t, s, g)
		got := ""
		for _, tp := range tbl.Tuples {
			if tp.Cells[tbl.Col("$y")][0].Val == c.y {
				got = tbl.Cell(tp, "$p")[0].Val
			}
		}
		if got != c.want {
			t.Fatalf("%s(%s) = %q, want %q", c.agg, c.y, got, c.want)
		}
	}
}

func TestJoinHashAndNested(t *testing.T) {
	s := execStore(t)
	// Self join on @year: books joined with books.
	mk := func(s, b, y string) *Op {
		return &Op{Kind: OpNavCollection, InCol: b, OutCol: y,
			Path: xpath.MustParse("@year"), Inputs: []*Op{booksPipelineAs(s, b)}}
	}
	join := &Op{Kind: OpJoin,
		Conds:  []Cmp{{L: CmpOperand{Col: "$y1"}, Op: "=", R: CmpOperand{Col: "$y2"}}},
		Inputs: []*Op{mk("$s1", "$b1", "$y1"), mk("$s2", "$b2", "$y2")}}
	tbl, _ := runTable(t, s, join)
	// 1994 has 2 books (4 pairs), 2000 has 1 (1 pair) = 5.
	if len(tbl.Tuples) != 5 {
		t.Fatalf("self join pairs: %d", len(tbl.Tuples))
	}
}

func TestLOJPadding(t *testing.T) {
	s := execStore(t)
	left := booksPipeline()
	ly := &Op{Kind: OpNavCollection, InCol: "$b", OutCol: "$ly",
		Path: xpath.MustParse("@year"), Inputs: []*Op{left}}
	// Right side: books filtered to year 2000 only.
	right := &Op{Kind: OpNavUnnest, InCol: "$s2", OutCol: "$r",
		Path:   xpath.MustParse("bib/book[@year = '2000']"),
		Inputs: []*Op{{Kind: OpSource, Doc: "bib.xml", OutCol: "$s2"}}}
	ry := &Op{Kind: OpNavCollection, InCol: "$r", OutCol: "$ry",
		Path: xpath.MustParse("@year"), Inputs: []*Op{right}}
	loj := &Op{Kind: OpLOJ,
		Conds:  []Cmp{{L: CmpOperand{Col: "$ly"}, Op: "=", R: CmpOperand{Col: "$ry"}}},
		Inputs: []*Op{ly, ry}}
	tbl, _ := runTable(t, s, loj)
	pads := 0
	for _, tp := range tbl.Tuples {
		if tbl.Cell(tp, "$r") == nil {
			pads++
		}
	}
	// Two 1994 books have no match and must be padded; the 2000 book joins.
	if len(tbl.Tuples) != 3 || pads != 2 {
		t.Fatalf("tuples %d pads %d", len(tbl.Tuples), pads)
	}
}

func TestCombineAssignsOverridingOrder(t *testing.T) {
	s := execStore(t)
	books := booksPipeline()
	comb := &Op{Kind: OpCombine, InCol: "$b", Inputs: []*Op{books}}
	tbl, _ := runTable(t, s, comb)
	if len(tbl.Tuples) != 1 {
		t.Fatalf("combine must emit one tuple, got %d", len(tbl.Tuples))
	}
	coll := tbl.Tuples[0].Cells[0]
	if len(coll) != 3 {
		t.Fatalf("combined collection: %d", len(coll))
	}
	for i := 1; i < len(coll); i++ {
		if CompareOrd(coll[i-1].ID.Order(), coll[i].ID.Order()) > 0 {
			t.Fatal("combined members out of order")
		}
	}
	// Item counts reflect tuple counts.
	if coll[0].Count != 1 {
		t.Fatalf("item count: %d", coll[0].Count)
	}
}

func TestTaggerSemanticIDsReproducible(t *testing.T) {
	s := execStore(t)
	mk := func() Cell {
		books := booksPipeline()
		tc := &Op{Kind: OpNavCollection, InCol: "$b", OutCol: "$t",
			Path: xpath.MustParse("title"), Inputs: []*Op{books}}
		tag := &Op{Kind: OpTagger, OutCol: "$x", Inputs: []*Op{tc},
			Pattern: &TagPattern{Name: "item", Content: []PatternPart{{Col: "$t", IsCol: true}}}}
		tbl, _ := runTable(t, s, tag)
		var ids Cell
		for _, tp := range tbl.Tuples {
			ids = append(ids, tbl.Cell(tp, "$x")...)
		}
		return ids
	}
	a, b := mk(), mk()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("constructed: %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID.Key() != b[i].ID.Key() {
			t.Fatalf("semantic id not reproducible: %s vs %s", a[i].ID, b[i].ID)
		}
	}
	seen := map[string]bool{}
	for _, it := range a {
		if seen[it.ID.Key()] {
			t.Fatalf("duplicate semantic id %s", it.ID)
		}
		seen[it.ID.Key()] = true
	}
}

func TestXMLUnionColIDPrefixes(t *testing.T) {
	s := execStore(t)
	books := booksPipeline()
	tc := &Op{Kind: OpNavCollection, InCol: "$b", OutCol: "$t",
		Path: xpath.MustParse("title"), Inputs: []*Op{books}}
	pc := &Op{Kind: OpNavCollection, InCol: "$b", OutCol: "$p",
		Path: xpath.MustParse("price"), Inputs: []*Op{tc}}
	u := &Op{Kind: OpXMLUnion, OutCol: "$u", UnionCols: []string{"$p", "$t"}, Inputs: []*Op{pc}}
	tbl, _ := runTable(t, s, u)
	for _, tp := range tbl.Tuples {
		cell := tbl.Cell(tp, "$u")
		if len(cell) != 2 {
			t.Fatalf("union cell: %d", len(cell))
		}
		// Union order: price column first (despite document order), since
		// the ColID prefixes dominate.
		if CompareOrd(cell[0].ID.Order(), cell[1].ID.Order()) > 0 {
			t.Fatal("union lost column order")
		}
		n0, _ := s.Node(flexkey.Key(cell[0].ID.Body))
		if n0.Name != "price" {
			t.Fatalf("first union member is %s, want price", n0.Name)
		}
	}
}

func TestMaterializeSimple(t *testing.T) {
	s := execStore(t)
	books := booksPipeline()
	tc := &Op{Kind: OpNavCollection, InCol: "$b", OutCol: "$t",
		Path: xpath.MustParse("title"), Inputs: []*Op{books}}
	tag := &Op{Kind: OpTagger, OutCol: "$x", Inputs: []*Op{tc},
		Pattern: &TagPattern{Name: "item", Content: []PatternPart{{Col: "$t", IsCol: true}}}}
	comb := &Op{Kind: OpCombine, InCol: "$x", Inputs: []*Op{tag}}
	root := &Op{Kind: OpTagger, OutCol: "$r", Inputs: []*Op{comb},
		Pattern: &TagPattern{Name: "result", Content: []PatternPart{{Col: "$x", IsCol: true}}}}
	p := buildPlan(t, root)
	env := NewEnv(s)
	tbl, err := Execute(p, env)
	if err != nil {
		t.Fatal(err)
	}
	roots := MaterializeResult(env, tbl, "$r")
	if len(roots) != 1 {
		t.Fatalf("roots: %d", len(roots))
	}
	got := roots[0].XML()
	want := "<result><item><title>B1</title></item><item><title>B2</title></item><item><title>B3</title></item></result>"
	if got != want {
		t.Fatalf("got %s", got)
	}
	// The root over a combined collection is pinned.
	if !env.Cons[tblRootID(tbl, "$r")].Pinned {
		t.Fatal("result root should be pinned")
	}
}

func tblRootID(tbl *Table, col string) string {
	return tbl.Tuples[0].Cells[tbl.Col(col)][0].ID.Key()
}

func TestAnalyzeErrors(t *testing.T) {
	bad := &Op{Kind: OpNavUnnest, InCol: "$missing", OutCol: "$x",
		Path:   xpath.MustParse("a"),
		Inputs: []*Op{{Kind: OpSource, Doc: "d", OutCol: "$s"}}}
	if _, err := Analyze(bad); err == nil {
		t.Fatal("Analyze should reject unknown input column")
	}
	if !strings.Contains(Analyze2Err(bad), "$missing") {
		t.Fatal("error should name the column")
	}
}

func Analyze2Err(o *Op) string {
	_, err := Analyze(o)
	if err == nil {
		return ""
	}
	return err.Error()
}
