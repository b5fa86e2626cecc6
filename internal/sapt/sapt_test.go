package sapt

import (
	"strings"
	"testing"

	"xqview/internal/compile"
	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

const query = `
<result>{
  FOR $y in distinct-values(doc("bib.xml")/bib/book/@year)
  ORDER BY $y
  RETURN <yGroup Y="{$y}"><books>
    FOR $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
    WHERE $y = $b/@year and $b/title = $e/b-title
    RETURN <entry>{$b/title} {$e/price}</entry>
  </books></yGroup>
}</result>`

const bibXML = `
<bib>
  <book year="1994"><title>T1</title><author><last>L</last><note>n</note></author></book>
</bib>`

const pricesXML = `<prices><entry><price>10</price><b-title>T1</b-title></entry></prices>`

func buildAll(t *testing.T) (*Tree, *xmldoc.Store) {
	t.Helper()
	plan, err := compile.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	tree := Build(plan)
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", pricesXML); err != nil {
		t.Fatal(err)
	}
	return tree, s
}

func TestBuildMarksUsage(t *testing.T) {
	tree, _ := buildAll(t)
	d := tree.Dump()
	for _, want := range []string{"doc bib.xml", "doc prices.xml", "/book for", "@year", "title value"} {
		if !strings.Contains(d, want) {
			t.Fatalf("SAPT missing %q:\n%s", want, d)
		}
	}
}

func classify(t *testing.T, tree *Tree, s *xmldoc.Store, script string) []Disposition {
	t.Helper()
	prims, err := update.ParseAndEvaluate(s, script)
	if err != nil {
		t.Fatal(err)
	}
	var out []Disposition
	for _, p := range prims {
		out = append(out, tree.Classify(s, p))
	}
	return out
}

func TestClassifyStructural(t *testing.T) {
	tree, s := buildAll(t)
	// Inserting/deleting a book hits a navigation anchor: Pass.
	got := classify(t, tree, s, `
for $b in document("bib.xml")/bib
update $b
insert <book year="1999"><title>X</title></book> into $b

for $b in document("bib.xml")/bib/book[1]
update $b
delete $b`)
	if got[0] != Pass || got[1] != Pass {
		t.Fatalf("structural: %v", got)
	}
}

func TestClassifyIrrelevant(t *testing.T) {
	tree, s := buildAll(t)
	// The author subtree is never navigated, exposed or compared.
	got := classify(t, tree, s, `
for $b in document("bib.xml")/bib/book[1]
update $b
insert <first>W</first> into $b/author

for $b in document("bib.xml")/bib/book[1]
update $b
delete $b/author/note`)
	if got[0] != Irrelevant || got[1] != Irrelevant {
		t.Fatalf("irrelevant: %v", got)
	}
}

func TestClassifyRewriteOnValuePaths(t *testing.T) {
	tree, s := buildAll(t)
	// Title feeds the join predicate; @year feeds distinct/correlation.
	got := classify(t, tree, s, `
for $b in document("bib.xml")/bib/book[1]
update $b
replace $b/title/text() with "New"

for $b in document("bib.xml")/bib/book[1]
update $b
replace $b/@year with "2001"`)
	if got[0] != Rewrite || got[1] != Rewrite {
		t.Fatalf("rewrite: %v", got)
	}
}

func TestClassifyModifyOnExposedPath(t *testing.T) {
	tree, s := buildAll(t)
	// Price is exposed content only: a genuine in-place modify.
	got := classify(t, tree, s, `
for $e in document("prices.xml")/prices/entry[1]
update $e
replace $e/price/text() with "20"`)
	if got[0] != Pass {
		t.Fatalf("exposed modify: %v", got)
	}
}

func TestClassifyUnknownDoc(t *testing.T) {
	tree, s := buildAll(t)
	s2 := xmldoc.NewStore()
	if _, err := s2.Load("other.xml", "<o><x/></o>"); err != nil {
		t.Fatal(err)
	}
	prims, err := update.ParseAndEvaluate(s2, `
for $x in document("other.xml")/o/x
update $x
delete $x`)
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Classify(s2, prims[0]); d != Irrelevant {
		t.Fatalf("other-doc update: %v", d)
	}
	_ = s
}

func TestIsForTargetPath(t *testing.T) {
	tree, _ := buildAll(t)
	if !tree.IsForTargetPath([]string{"bib", "book"}, "bib.xml") {
		t.Fatal("bib/book is a for target")
	}
	if tree.IsForTargetPath([]string{"bib"}, "bib.xml") {
		t.Fatal("bib is not a for target")
	}
	if !tree.IsForTargetPath([]string{"prices", "entry"}, "prices.xml") {
		t.Fatal("prices/entry is a for target")
	}
}

func TestDescendantAxisMatching(t *testing.T) {
	plan, err := compile.Compile(`<r>{ for $l in doc("bib.xml")/bib//last return $l }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	tree := Build(plan)
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	prims, err := update.ParseAndEvaluate(s, `
for $a in document("bib.xml")/bib/book/author
update $a
insert <last>Extra</last> into $a`)
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Classify(s, prims[0]); d == Irrelevant {
		t.Fatal("insert of //last-matching node must be relevant")
	}
}

// TestClassifyUsedBelowAndDescendants covers the classification paths that
// look past the matched trie node: an insert at a node whose descendants,
// not the node itself, are used (usedBelow), and a change strictly below a
// node whose descendant-axis edge leads to a used node (descUsed). Each
// change alters the view, so each must rewrite; a change beside every used
// path stays irrelevant.
func TestClassifyUsedBelowAndDescendants(t *testing.T) {
	const doc = `<bib><book year="1994"><title>T1</title>` +
		`<author><last>L</last></author>` +
		`<editors><author><last>E</last></author></editors></book></bib>`
	const each = `
for $b in document("bib.xml")/bib/book[1]
update $b
`
	for _, c := range []struct {
		name, ret, change string
		want              Disposition
	}{
		{"insert at a node whose child is used",
			`$b/author/last`, `insert <author><last>X</last></author> into $b`, Rewrite},
		{"insert at a node whose descendant edge is used",
			`$b/author//last`, `insert <author><x><last>X</last></x></author> into $b`, Rewrite},
		{"change below a descendant edge to a used node",
			`$b//last`, `delete $b/author`, Rewrite},
		{"change below a descendant edge whose child is used",
			`$b//author/last`, `delete $b/editors`, Rewrite},
		{"change beside every used path",
			`$b/author/last`, `delete $b/title`, Irrelevant},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan, err := compile.Compile(`<r>{ for $b in doc("bib.xml")/bib/book return <x>{` + c.ret + `}</x> }</r>`)
			if err != nil {
				t.Fatal(err)
			}
			s := xmldoc.NewStore()
			if _, err := s.Load("bib.xml", doc); err != nil {
				t.Fatal(err)
			}
			tree := Build(plan)
			if got := classify(t, tree, s, each+c.change); len(got) != 1 || got[0] != c.want {
				t.Fatalf("classified %v, want [%v]\n%s", got, c.want, tree.Dump())
			}
		})
	}
}
