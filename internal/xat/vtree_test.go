package xat

import (
	"strings"
	"testing"

	"xqview/internal/xmldoc"
	"xqview/internal/xpath"
)

// fullPipeline builds books → <item>{title}</item> → Combine → <result>.
func fullPipeline() *Op {
	books := booksPipeline()
	tc := &Op{Kind: OpNavCollection, InCol: "$b", OutCol: "$t",
		Path: xpath.MustParse("title"), Inputs: []*Op{books}}
	tag := &Op{Kind: OpTagger, OutCol: "$x", Inputs: []*Op{tc},
		Pattern: &TagPattern{Name: "item", Content: []PatternPart{{Col: "$t", IsCol: true}}}}
	comb := &Op{Kind: OpCombine, InCol: "$x", Inputs: []*Op{tag}}
	return &Op{Kind: OpTagger, OutCol: "$r", Inputs: []*Op{comb},
		Pattern: &TagPattern{Name: "result", Content: []PatternPart{{Col: "$x", IsCol: true}}}}
}

func materialize(t *testing.T, s *xmldoc.Store, root *Op) ([]*VNode, *Env) {
	t.Helper()
	p := buildPlan(t, root)
	env := NewEnv(s)
	tbl, err := Execute(p, env)
	if err != nil {
		t.Fatal(err)
	}
	return MaterializeResult(env, tbl, root.OutCol), env
}

func TestVNodeCloneIndependent(t *testing.T) {
	s := execStore(t)
	roots, _ := materialize(t, s, fullPipeline())
	c := roots[0].Clone()
	c.Children[0].Count = 99
	c.Children[0].Children = nil
	if roots[0].Children[0].Count == 99 || len(roots[0].Children[0].Children) == 0 {
		t.Fatal("Clone shares structure with original")
	}
	if c.XML() == roots[0].XML() {
		t.Fatal("mutated clone should serialize differently")
	}
}

func TestVNodeNodeCount(t *testing.T) {
	s := execStore(t)
	roots, _ := materialize(t, s, fullPipeline())
	// result + 3×(item + title + text) = 10
	if got := roots[0].NodeCount(); got != 10 {
		t.Fatalf("NodeCount = %d", got)
	}
	roots[0].Children[0].Count = 0
	if got := roots[0].NodeCount(); got != 7 {
		t.Fatalf("NodeCount after kill = %d", got)
	}
}

func TestVNodeFragDropsDead(t *testing.T) {
	s := execStore(t)
	roots, _ := materialize(t, s, fullPipeline())
	roots[0].Children[1].Count = -1
	x := roots[0].XML()
	if strings.Contains(x, "B2") {
		t.Fatalf("dead fragment serialized: %s", x)
	}
	if !strings.Contains(x, "B1") || !strings.Contains(x, "B3") {
		t.Fatalf("live fragments missing: %s", x)
	}
}

func TestVNodeDumpShowsIDsAndCounts(t *testing.T) {
	s := execStore(t)
	roots, _ := materialize(t, s, fullPipeline())
	d := roots[0].Dump()
	for _, want := range []string{"<result>", "count=1", "<item>", "#text"} {
		if !strings.Contains(d, want) {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestMaterializedOrderFollowsDocument(t *testing.T) {
	s := execStore(t)
	roots, _ := materialize(t, s, fullPipeline())
	var titles []string
	for _, item := range roots[0].Children {
		titles = append(titles, item.Children[0].Children[0].Value)
	}
	if strings.Join(titles, ",") != "B1,B2,B3" {
		t.Fatalf("order: %v", titles)
	}
}

func TestPinnedRootSurvivesEmptyContent(t *testing.T) {
	// A result constructor over an empty combine still materializes.
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", "<bib></bib>"); err != nil {
		t.Fatal(err)
	}
	roots, env := materialize(t, s, fullPipeline())
	if len(roots) != 1 || roots[0].XML() != "<result/>" {
		t.Fatalf("got %d roots: %v", len(roots), roots)
	}
	_ = env
}
