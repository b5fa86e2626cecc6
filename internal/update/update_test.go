package update

import (
	"strings"
	"testing"

	"xqview/internal/xmldoc"
)

const bibXML = `
<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last></author></book>
  <book year="2000"><title>Data on the Web</title><author><last>Abiteboul</last></author></book>
</bib>`

const pricesXML = `
<prices>
  <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
  <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
</prices>`

func setup(t *testing.T) *xmldoc.Store {
	t.Helper()
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", pricesXML); err != nil {
		t.Fatal(err)
	}
	return s
}

// The three updates of dissertation Fig 1.3.
const fig13 = `
for $book in document("bib.xml")/bib/book[2]
update $book
insert <book year="1994"><title>Advanced programming in the Unix environment</title><author><last>Stevens</last><first>W.</first></author></book> after $book

for $book in document("bib.xml")/bib/book
where $book/title = "Data on the Web"
update $book
delete $book

for $entry in document("prices.xml")/prices/entry
where $entry/b-title = "TCP/IP Illustrated"
update $entry
replace $entry/price/text() with "70"
`

func TestParseFig13(t *testing.T) {
	s := setup(t)
	prims, err := ParseAndEvaluate(s, fig13)
	if err != nil {
		t.Fatal(err)
	}
	if len(prims) != 3 {
		t.Fatalf("got %d primitives: %v", len(prims), prims)
	}
	if prims[0].Kind != Insert || prims[0].Doc != "bib.xml" || prims[0].Frag.Name != "book" {
		t.Fatalf("insert prim: %+v", prims[0])
	}
	if prims[0].After == "" {
		t.Fatal("insert should be positioned after book[2]")
	}
	if prims[1].Kind != Delete {
		t.Fatalf("delete prim: %+v", prims[1])
	}
	if prims[2].Kind != Replace || prims[2].NewValue != "70" {
		t.Fatalf("replace prim: %+v", prims[2])
	}
	n, ok := s.Node(prims[2].Key)
	if !ok || n.Kind != xmldoc.Text || n.Value != "65.95" {
		t.Fatalf("replace target resolves to %+v", n)
	}
}

func TestApplyToStore(t *testing.T) {
	s := setup(t)
	prims, err := ParseAndEvaluate(s, fig13)
	if err != nil {
		t.Fatal(err)
	}
	d := xmldoc.NewDraft(s)
	for _, p := range prims {
		if err := ApplyToStore(d, p); err != nil {
			t.Fatalf("apply %v: %v", p, err)
		}
	}
	s.Install(d.Delta())
	root, _ := s.RootElem("bib.xml")
	books := xmldoc.ChildElems(s, root, "book")
	if len(books) != 2 {
		t.Fatalf("after insert+delete want 2 books, got %d", len(books))
	}
	// New book appended after old book[2] which was then deleted.
	if got := xmldoc.StringValue(s, books[1]); !strings.Contains(got, "Advanced programming") {
		t.Fatalf("second book = %q", got)
	}
	proot, _ := s.RootElem("prices.xml")
	if got := xmldoc.Serialize(s, proot); !strings.Contains(got, "<price>70</price>") {
		t.Fatalf("price not replaced: %s", got)
	}
}

func TestInsertPositions(t *testing.T) {
	s := setup(t)
	src := `
for $b in document("bib.xml")/bib/book[1]
update $b
insert <book><title>First</title></book> before $b

for $b in document("bib.xml")/bib
update $b
insert <book><title>Last</title></book> into $b
`
	prims, err := ParseAndEvaluate(s, src)
	if err != nil {
		t.Fatal(err)
	}
	d := xmldoc.NewDraft(s)
	for _, p := range prims {
		if err := ApplyToStore(d, p); err != nil {
			t.Fatal(err)
		}
	}
	s.Install(d.Delta())
	root, _ := s.RootElem("bib.xml")
	books := xmldoc.ChildElems(s, root, "book")
	if len(books) != 4 {
		t.Fatalf("want 4 books, got %d", len(books))
	}
	if got := xmldoc.StringValue(s, books[0]); got != "First" {
		t.Fatalf("first book = %q", got)
	}
	if got := xmldoc.StringValue(s, books[3]); got != "Last" {
		t.Fatalf("last book = %q", got)
	}
}

func TestPathNames(t *testing.T) {
	s := setup(t)
	root, _ := s.RootElem("bib.xml")
	books := xmldoc.ChildElems(s, root, "book")
	titles := xmldoc.ChildElems(s, books[0], "title")
	texts := xmldoc.TextChildren(s, titles[0])
	got := PathNames(s, texts[0])
	want := "bib/book/title/#text"
	if strings.Join(got, "/") != want {
		t.Fatalf("PathNames = %v", got)
	}
	ak, _ := xmldoc.Attribute(s, books[0], "year")
	got = PathNames(s, ak)
	if strings.Join(got, "/") != "bib/book/@year" {
		t.Fatalf("attr PathNames = %v", got)
	}
}

func TestTargetPath(t *testing.T) {
	s := setup(t)
	prims, err := ParseAndEvaluate(s, fig13)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(TargetPath(s, prims[0]), "/"); got != "bib/book" {
		t.Fatalf("insert target path = %s", got)
	}
	if got := strings.Join(TargetPath(s, prims[1]), "/"); got != "bib/book" {
		t.Fatalf("delete target path = %s", got)
	}
	if got := strings.Join(TargetPath(s, prims[2]), "/"); got != "prices/entry/price/#text" {
		t.Fatalf("replace target path = %s", got)
	}
}

func TestStatementErrors(t *testing.T) {
	s := setup(t)
	bad := []string{
		`delete $x`,
		`for $b in document("nope.xml")/a update $b delete $b`,
		`for $b in document("bib.xml")/bib/book update $x delete $x`,
		`for $b in document("bib.xml")/bib update $b insert <a/> sideways $b`,
	}
	for _, src := range bad {
		if _, err := ParseAndEvaluate(s, src); err == nil {
			t.Fatalf("ParseAndEvaluate(%q) should fail", src)
		}
	}
}
