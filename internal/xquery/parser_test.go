package xquery

import (
	"strings"
	"testing"
)

// RunningExample is the view query of dissertation Fig 1.2(a).
const RunningExample = `
<result>{
  FOR $y in distinct-values(doc("bib.xml")/bib/book/@year)
  ORDER BY $y
  RETURN
    <yGroup Y="{$y}">
      <books>
        FOR $b in doc("bib.xml")/bib/book,
            $e in doc("prices.xml")/prices/entry
        WHERE $y = $b/@year and $b/title = $e/b-title
        RETURN <entry>{$b/title} {$e/price}</entry>
      </books>
    </yGroup>
}</result>`

func TestParseRunningExample(t *testing.T) {
	e, err := Parse(RunningExample)
	if err != nil {
		t.Fatal(err)
	}
	root, ok := e.(*ElemCons)
	if !ok || root.Name != "result" {
		t.Fatalf("root = %T %v", e, e)
	}
	if len(root.Content) != 1 {
		t.Fatalf("result content = %d items", len(root.Content))
	}
	outer, ok := root.Content[0].(*FLWOR)
	if !ok {
		t.Fatalf("outer = %T", root.Content[0])
	}
	if len(outer.Bindings) != 1 || outer.Bindings[0].Var != "y" {
		t.Fatalf("outer bindings: %+v", outer.Bindings)
	}
	if _, ok := outer.Bindings[0].Src.(*FuncCall); !ok {
		t.Fatalf("outer src = %T", outer.Bindings[0].Src)
	}
	if len(outer.OrderBy) != 1 {
		t.Fatalf("order by missing")
	}
	yg, ok := outer.Return.(*ElemCons)
	if !ok || yg.Name != "yGroup" {
		t.Fatalf("return = %T", outer.Return)
	}
	if len(yg.Attrs) != 1 || yg.Attrs[0].Name != "Y" {
		t.Fatalf("yGroup attrs: %+v", yg.Attrs)
	}
	books, ok := yg.Content[0].(*ElemCons)
	if !ok || books.Name != "books" {
		t.Fatalf("books = %T", yg.Content[0])
	}
	inner, ok := books.Content[0].(*FLWOR)
	if !ok {
		t.Fatalf("inner = %T", books.Content[0])
	}
	if len(inner.Bindings) != 2 || inner.Bindings[0].Var != "b" || inner.Bindings[1].Var != "e" {
		t.Fatalf("inner bindings: %+v", inner.Bindings)
	}
	if inner.Where == nil || inner.Where.Op != "and" {
		t.Fatalf("inner where: %v", inner.Where)
	}
	cmps := inner.Where.Leaves(nil)
	if len(cmps) != 2 {
		t.Fatalf("want 2 comparisons, got %d", len(cmps))
	}
	entry, ok := inner.Return.(*ElemCons)
	if !ok || entry.Name != "entry" || len(entry.Content) != 2 {
		t.Fatalf("entry constructor: %+v", inner.Return)
	}
}

func TestParseSimplePath(t *testing.T) {
	e := MustParse(`doc("site.xml")/site/people/person`)
	p, ok := e.(*PathExpr)
	if !ok || p.Doc != "site.xml" || len(p.Path.Steps) != 3 {
		t.Fatalf("got %#v", e)
	}
}

func TestParseLet(t *testing.T) {
	e := MustParse(`for $b in doc("bib.xml")/bib/book let $t := $b/title return <r>{$t/text()}</r>`)
	f := e.(*FLWOR)
	if len(f.Bindings) != 2 || f.Bindings[1].Kind != LetBind {
		t.Fatalf("bindings: %+v", f.Bindings)
	}
}

func TestNormalizeInlinesLet(t *testing.T) {
	e := MustParse(`for $b in doc("bib.xml")/bib/book let $t := $b/title return <r>{$t/text()}</r>`)
	n, err := Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	f := n.(*FLWOR)
	if len(f.Bindings) != 1 {
		t.Fatalf("let not inlined: %+v", f.Bindings)
	}
	ret := f.Return.(*ElemCons)
	pe := ret.Content[0].(*PathExpr)
	if pe.Var != "b" || pe.Path.String() != "title/text()" {
		t.Fatalf("inlined path: %#v -> %s", pe, pe.Path)
	}
}

func TestNormalizeShadowing(t *testing.T) {
	e := MustParse(`let $x := doc("d")/a return for $x in doc("d")/b return $x`)
	// Outer FLWOR is just a let+return; inner for shadows $x.
	n, err := Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	// After inlining the outer let, the result is the inner FLWOR whose $x
	// binding is untouched.
	f, ok := n.(*FLWOR)
	if !ok {
		t.Fatalf("got %T", n)
	}
	if f.Bindings[0].Var != "x" {
		t.Fatalf("bindings: %+v", f.Bindings)
	}
	src := f.Bindings[0].Src.(*PathExpr)
	if src.Path.String() != "b" {
		t.Fatalf("shadowed binding rewritten: %s", src)
	}
	ret := f.Return.(*PathExpr)
	if ret.Var != "x" || ret.Path != nil {
		t.Fatalf("shadowed use rewritten: %#v", ret)
	}
}

func TestNormalizeLetOnlyFLWOR(t *testing.T) {
	// A FLWOR consisting solely of let bindings normalizes to its return.
	e := MustParse(`let $x := doc("d")/a/b return <r>{$x}</r>`)
	n, err := Normalize(e)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := n.(*ElemCons)
	if !ok {
		t.Fatalf("let-only FLWOR should collapse to its return, got %T", n)
	}
	pe := r.Content[0].(*PathExpr)
	if pe.Doc != "d" || pe.Path.String() != "a/b" {
		t.Fatalf("got %#v", pe)
	}
}

func TestParseMultiVarFor(t *testing.T) {
	e := MustParse(`for $a in doc("d")/x, $b in doc("d")/y return <r/>`)
	f := e.(*FLWOR)
	if len(f.Bindings) != 2 {
		t.Fatalf("bindings: %+v", f.Bindings)
	}
}

func TestParseWhereOr(t *testing.T) {
	e := MustParse(`for $a in doc("d")/x where $a/u = "1" or $a/v = "2" return $a`)
	f := e.(*FLWOR)
	if f.Where.Op != "or" {
		t.Fatalf("where: %v", f.Where)
	}
}

func TestParseAggregates(t *testing.T) {
	for _, fn := range []string{"count", "sum", "avg", "min", "max"} {
		q := `for $a in doc("d")/x return <r>{` + fn + `($a/y)}</r>`
		e := MustParse(q)
		f := e.(*FLWOR)
		r := f.Return.(*ElemCons)
		fc, ok := r.Content[0].(*FuncCall)
		if !ok || fc.Name != fn {
			t.Fatalf("%s: got %#v", fn, r.Content[0])
		}
	}
}

func TestParseSelfClosingAndSequence(t *testing.T) {
	e := MustParse(`<r>{ doc("d")/a, doc("d")/b }</r>`)
	r := e.(*ElemCons)
	if len(r.Content) != 2 {
		t.Fatalf("content: %d", len(r.Content))
	}
	e = MustParse(`<r/>`)
	if r := e.(*ElemCons); len(r.Content) != 0 || len(r.Attrs) != 0 {
		t.Fatalf("self-closing: %+v", r)
	}
}

func TestParseAttrMix(t *testing.T) {
	e := MustParse(`for $a in doc("d")/x return <r id="pre-{$a/@id}-post"/>`)
	f := e.(*FLWOR)
	r := f.Return.(*ElemCons)
	if len(r.Attrs) != 1 || len(r.Attrs[0].Parts) != 3 {
		t.Fatalf("attr parts: %+v", r.Attrs)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for $x return $x`,
		`for $x in doc("d")/a`,
		`<a><b></a>`,
		`<a>{$x</a>`,
		`for $x in doc("d")/a where $x/u return $x`, // missing comparison
		`unknownfn(doc("d")/a)`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("Parse(%q) should fail", q)
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := MustParse(RunningExample)
	s := e.String()
	for _, frag := range []string{"for $y", "order by $y", "<yGroup", "distinct-values"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendered query missing %q:\n%s", frag, s)
		}
	}
	// Rendered form must re-parse.
	if _, err := Parse(s); err != nil {
		t.Fatalf("re-parse of rendered query failed: %v\n%s", err, s)
	}
}

func TestCondCloneIndependence(t *testing.T) {
	e := MustParse(`for $a in doc("d")/x where $a/u = "1" and $a/v = "2" return $a`)
	f := e.(*FLWOR)
	c := f.Where.Clone()
	c.L.Cmp.Op = "!="
	if f.Where.L.Cmp.Op != "=" {
		t.Fatal("Clone shares comparison nodes")
	}
	if got := f.Where.String(); !strings.Contains(got, "and") {
		t.Fatalf("cond string: %s", got)
	}
	var nilCond *Cond
	if nilCond.Clone() != nil || nilCond.String() != "" {
		t.Fatal("nil cond handling")
	}
}

func TestSeqAndFuncStrings(t *testing.T) {
	e := MustParse(`<r>{ (doc("d")/a, doc("d")/b) }</r>`)
	r := e.(*ElemCons)
	s, ok := r.Content[0].(*Seq)
	if !ok || len(s.Items) != 2 {
		t.Fatalf("parenthesized sequence: %#v", r.Content[0])
	}
	if got := s.String(); !strings.Contains(got, ", ") {
		t.Fatalf("seq string: %s", got)
	}
	fc := &FuncCall{Name: "count", Args: []Expr{s.Items[0]}}
	if got := fc.String(); !strings.HasPrefix(got, "count(") {
		t.Fatalf("func string: %s", got)
	}
}

func TestParseUnordered(t *testing.T) {
	e := MustParse(`<r>{ unordered(for $a in doc("d")/x return $a) }</r>`)
	r := e.(*ElemCons)
	fc, ok := r.Content[0].(*FuncCall)
	if !ok || fc.Name != "unordered" {
		t.Fatalf("got %#v", r.Content[0])
	}
	if _, ok := fc.Args[0].(*FLWOR); !ok {
		t.Fatalf("unordered arg: %T", fc.Args[0])
	}
}
