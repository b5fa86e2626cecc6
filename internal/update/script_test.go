package update

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqview/internal/flexkey"
	"xqview/internal/xmldoc"
	"xqview/internal/xpath"
)

// evaluateReference is the evaluator ParseAndEvaluate used before scripts
// were evaluated as a unit: one statement at a time, its for-path evaluated
// and its where clause tested on every binding, nothing shared.
func (st *statement) evaluateReference(s *xmldoc.Store) ([]*Primitive, error) {
	docRoot, ok := s.Root(st.doc)
	if !ok {
		return nil, fmt.Errorf("update: document %q not loaded", st.doc)
	}
	var bindings []flexkey.Key
	if st.path == nil {
		bindings = []flexkey.Key{docRoot}
	} else {
		bindings = xpath.Eval(s, docRoot, st.path)
	}
	var prims []*Primitive
	for _, b := range bindings {
		if !st.condsHold(s, b, -1) {
			continue
		}
		targets := []flexkey.Key{b}
		if st.target != nil {
			targets = xpath.Eval(s, b, st.target)
		}
		for _, tgt := range targets {
			prim, err := st.primitiveFor(s, tgt)
			if err != nil {
				return nil, err
			}
			prims = append(prims, prim)
		}
	}
	return prims, nil
}

// parseAndEvaluateReference is ParseAndEvaluate over evaluateReference,
// without the conflict check.
func parseAndEvaluateReference(s *xmldoc.Store, src string) ([]*Primitive, error) {
	p := &uparser{src: src}
	var prims []*Primitive
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			break
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		ps, err := stmt.evaluateReference(s)
		if err != nil {
			return nil, err
		}
		prims = append(prims, ps...)
	}
	return prims, nil
}

// conflictReference finds, by comparing every pair, a delete or replace whose
// target an earlier delete of the batch removes.
func conflictReference(prims []*Primitive) bool {
	for i, p := range prims {
		if p.Kind == Insert {
			continue
		}
		for _, d := range prims[:i] {
			if d.Kind == Delete && flexkey.IsSelfOrAncestorOf(d.Key, p.Key) {
				return true
			}
		}
	}
	return false
}

// comparePrims requires two primitive lists to agree on everything a round
// reads: kind, document, target, position, fragment, new value and order.
func comparePrims(got, want []*Primitive) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d primitives, reference has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Kind != w.Kind || g.Doc != w.Doc || g.Key != w.Key || g.Parent != w.Parent ||
			g.After != w.After || g.Before != w.Before || g.NewValue != w.NewValue {
			return fmt.Errorf("primitive %d: %+v, reference %+v", i, *g, *w)
		}
		if (g.Frag == nil) != (w.Frag == nil) || g.Frag != nil && g.Frag.String() != w.Frag.String() {
			return fmt.Errorf("primitive %d: fragment %v, reference %v", i, g.Frag, w.Frag)
		}
	}
	return nil
}

// checkAgainstReference runs src through both evaluators on the same store
// (evaluation does not write it) and requires identical primitives and
// errors; a script the reference accepts is rejected exactly when its
// primitives hold a conflict. It reports which of the three happened.
func checkAgainstReference(s *xmldoc.Store, src string) (outcome string, err error) {
	got, err := ParseAndEvaluate(s, src)
	want, werr := parseAndEvaluateReference(s, src)
	switch {
	case werr != nil:
		if err == nil || err.Error() != werr.Error() {
			return "", fmt.Errorf("error %v, reference error %v", err, werr)
		}
		return "error", nil
	case conflictReference(want):
		if err == nil || !strings.Contains(err.Error(), "deletes") {
			return "", fmt.Errorf("conflicting script: error %v", err)
		}
		return "conflict", nil
	case err != nil:
		return "", fmt.Errorf("error %v, reference accepts", err)
	}
	return "accepted", comparePrims(got, want)
}

// diffStore is the differential's corpus: a 200-book bibliography whose
// prices spell ten in four ways, two books sharing a title, every tenth book
// with a mixed-content note (two text children) and every seventh with
// nested a elements, plus a price list in a second document.
func diffStore(t testing.TB, books int) *xmldoc.Store {
	t.Helper()
	var bib, prices strings.Builder
	bib.WriteString("<bib>")
	prices.WriteString("<prices>")
	tens := []string{"10", "10.0", " 10", "010", "9", "11", "abc", "-0", "0"}
	for i := 0; i < books; i++ {
		title := fmt.Sprintf("Title-%d", i)
		if i == 7 {
			title = "Title-3"
		}
		fmt.Fprintf(&bib, `<book year="%d" id="b%d"><title>%s</title><price>%s</price><author><last>L%d</last></author>`,
			1990+i%8, i, title, tens[i%len(tens)], i%13)
		if i%10 == 0 {
			bib.WriteString(`<note>see<ref/>also</note>`)
		}
		if i%7 == 0 {
			bib.WriteString(`<a><b>x</b><a><b>10</b></a></a>`)
		}
		if i%11 == 0 {
			bib.WriteString(`<title>Alias-` + fmt.Sprint(i%3) + `</title>`)
		}
		bib.WriteString("</book>")
		fmt.Fprintf(&prices, `<entry><price>%d.5</price><b-title>Title-%d</b-title></entry>`, i%40, i)
	}
	bib.WriteString("</bib>")
	prices.WriteString("</prices>")
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", bib.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", prices.String()); err != nil {
		t.Fatal(err)
	}
	return s
}

// randomScript draws n statements over diffStore's documents.
func randomScript(rng *rand.Rand, n, books int) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	var b strings.Builder
	for k := 0; k < n; k++ {
		doc, forPath := "bib.xml", pick("/bib/book", "/bib/book", "/bib/book", "//book", `/bib/book[@year = "1994"]`,
			"/bib/book[3]", "//a", "/bib/book/title", `/bib/book[price = "10"]`)
		if rng.Intn(5) == 0 {
			doc, forPath = "prices.xml", "/prices/entry"
		}
		if rng.Intn(300) == 0 {
			doc = "nope.xml"
		}
		fmt.Fprintf(&b, `for $v in document("%s")%s`, doc, forPath)
		for c, nc := 0, rng.Intn(3); c < nc; c++ {
			if c == 0 {
				b.WriteString(" where ")
			} else {
				b.WriteString(" and ")
			}
			path := pick("/title", "/title", "/price", "/@year", "/note", "/author/last", "/b-title", "/b", "", "/@id")
			op := pick("=", "=", "=", "=", "!=", "<", ">=")
			lit := pick("10", "10.0", " 10", "010", "abc", "", "1994", "zzz", "Alias-1", "seealso", "x", "-0",
				fmt.Sprintf("Title-%d", rng.Intn(books)), fmt.Sprintf("Title-%d", rng.Intn(12)), fmt.Sprintf("L%d", rng.Intn(13)))
			fmt.Fprintf(&b, `$v%s %s "%s"`, path, op, lit)
		}
		b.WriteString(" update $v ")
		switch a := rng.Intn(40); {
		case a == 0:
			b.WriteString(`delete $v`)
		case a == 1:
			b.WriteString(`delete $v/author`)
		case a == 2:
			b.WriteString(`replace $v/note with "two text children"`)
		case a < 9:
			b.WriteString(`replace $v/price with "12"`)
		case a < 15:
			b.WriteString(`replace $v/price/text() with "13"`)
		case a < 20:
			b.WriteString(`replace $v/@year with "2001"`)
		case a < 25:
			b.WriteString(`replace $v/author/last with "M"`)
		case a < 30:
			b.WriteString(`insert <x n="1">t</x> into $v`)
		case a < 35:
			b.WriteString(`insert <x/> after $v`)
		default:
			b.WriteString(`insert <x/> before $v/author`)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestScriptMatchesReference is the differential for script-scoped
// evaluation: shared binding lists, value probes from the second use of a
// column, and the conflict check against the per-statement evaluator.
func TestScriptMatchesReference(t *testing.T) {
	const books = 200
	s := diffStore(t, books)
	outcomes := map[string]int{}
	probed := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomScript(rng, 1+rng.Intn(80), books)
		outcome, err := checkAgainstReference(s, src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		outcomes[outcome]++
		if outcome == "accepted" && strings.Count(src, `$v/title = `) >= 2 {
			probed++
		}
	}
	// Non-vacuity: every outcome occurs, and accepted scripts probe columns.
	if probed < 30 || outcomes["conflict"] < 10 || outcomes["error"] < 10 {
		t.Fatalf("outcomes %v, %d accepted scripts probe a title column twice", outcomes, probed)
	}
	t.Logf("outcomes %v, %d accepted scripts probe a title column twice", outcomes, probed)
}

// Hand-picked shapes the random scripts may miss.
func TestScriptProbeEdgeCases(t *testing.T) {
	s := diffStore(t, 40)
	title := func(lit, action string) string {
		return fmt.Sprintf(`for $v in document("bib.xml")/bib/book where $v/title = "%s" update $v %s`+"\n", lit, action)
	}
	price := func(op, lit string) string {
		return fmt.Sprintf(`for $v in document("bib.xml")/bib/book where $v/price %s "%s" update $v replace $v/@year with "1"`+"\n", op, lit)
	}
	for _, src := range []string{
		// every spelling of ten, then values that are not numbers
		price("=", "10") + price("=", "10.0") + price("=", " 10") + price("=", "010") + price("=", "1e1") + price("=", "abc") + price("=", "") + price("=", "0") + price("=", "-0"),
		// other operators after the column was indexed
		price("=", "10") + price("=", "9") + price("<", "10") + price("!=", "10") + price(">=", "010"),
		// two books share Title-3; book 0, 11, 22, 33 have a second title
		title("Title-3", `insert <x/> after $v`) + title("Title-3", `replace $v/price with "1"`) + title("Alias-0", `insert <y/> into $v`) + title("Alias-2", `insert <y/> into $v`),
		// no match, three times
		title("none", "delete $v") + title("none", "delete $v") + title("none", "delete $v"),
		// first condition is not "=": the probe is the second
		`for $v in document("bib.xml")/bib/book where $v/@year != "1994" and $v/title = "Title-5" update $v insert <x/> into $v` + "\n" +
			`for $v in document("bib.xml")/bib/book where $v/@year >= "1990" and $v/title = "Title-6" and $v/price = "11" update $v insert <x/> into $v` + "\n" +
			`for $v in document("bib.xml")/bib/book where $v/@year < "1990" and $v/title = "Title-6" update $v insert <x/> into $v` + "\n",
		// the same where-path text over two for-paths and two documents is two columns
		title("Title-5", `insert <x/> into $v`) + `for $v in document("bib.xml")//book where $v/title = "Title-5" update $v insert <x/> into $v` + "\n" +
			`for $v in document("bib.xml")//book where $v/title = "Title-6" update $v insert <x/> into $v` + "\n" + title("Title-6", `insert <x/> into $v`),
		// a condition on the bound node itself, and no for-path at all
		`for $v in document("bib.xml")/bib/book/title where $v = "Title-3" update $v replace $v with "a"` + "\n" +
			`for $v in document("bib.xml")/bib/book/title where $v = "Title-4" update $v replace $v with "b"` + "\n" +
			`for $v in document("bib.xml") update $v insert <x/> into $v` + "\n" + `for $v in document("bib.xml") update $v insert <y/> into $v` + "\n",
		// an error in the third statement, after the index exists
		title("Title-1", "delete $v/author") + title("Title-2", "delete $v/author") + title("Title-0", `replace $v/note with "z"`),
		title("Title-1", "delete $v/author") + title("Title-2", "delete $v/author") + `for $v in document("nope.xml")/a update $v delete $v`,
	} {
		if _, err := checkAgainstReference(s, src); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
	}
}

// A script that deletes a node and then deletes or replaces it, or something
// inside it, is rejected before any round, naming both statements and the
// key; the orders that apply cleanly and inserts under a deleted node are
// accepted as before.
func TestScriptConflictRejected(t *testing.T) {
	s := diffStore(t, 20)
	del := func(title string) string {
		return fmt.Sprintf(`for $b in document("bib.xml")/bib/book where $b/title = "%s" update $b delete $b`+"\n", title)
	}
	replacePrice := `for $b in document("bib.xml")/bib/book where $b/title = "Title-1" update $b replace $b/price/text() with "1"` + "\n"
	insertInto := `for $b in document("bib.xml")/bib/book where $b/title = "Title-1" update $b insert <note/> into $b` + "\n"
	book1 := xpath.Eval(s, mustRoot(t, s, "bib.xml"), xpath.MustParse("bib/book"))[1]
	rejected := []struct{ name, src, want string }{
		{"same node deleted twice", del("Title-1") + del("Title-2") + del("Title-1"),
			fmt.Sprintf("update: statement 3 (offset %d) deletes %s, which statement 1 (offset 0) already deletes", len(del("Title-1")+del("Title-2")), book1)},
		{"nested bindings of one statement", `for $a in document("bib.xml")//a update $a delete $a`,
			"statement 1 (offset 0) deletes"},
		{"replace inside a deleted subtree", del("Title-1") + replacePrice,
			fmt.Sprintf("update: statement 2 (offset %d) replaces %s.", len(del("Title-1")), book1)},
	}
	for _, c := range rejected {
		prims, err := ParseAndEvaluate(s, c.src)
		if err == nil || prims != nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: prims %v, error %v; want error containing %q", c.name, prims, err, c.want)
		}
		if !strings.Contains(err.Error(), "statement 1 (offset 0)") || !strings.Contains(err.Error(), string(book1)[:3]) {
			t.Fatalf("%s: error %q does not name the first statement and the key", c.name, err)
		}
	}
	accepted := []struct {
		name, src string
		prims     int
	}{
		{"insert under a deleted node", del("Title-1") + insertInto, 2},
		{"insert, then delete around it", insertInto + del("Title-1"), 2},
		{"replace, then delete around it", replacePrice + del("Title-1"), 2},
		{"delete inside, then delete around it", `for $b in document("bib.xml")/bib/book where $b/title = "Title-1" update $b delete $b/author` + "\n" + del("Title-1"), 2},
		{"the same value replaced twice", replacePrice + replacePrice, 2},
		{"two different books deleted", del("Title-1") + del("Title-2"), 2},
	}
	for _, c := range accepted {
		prims, err := ParseAndEvaluate(s, c.src)
		if err != nil || len(prims) != c.prims {
			t.Fatalf("%s: %d prims, error %v", c.name, len(prims), err)
		}
	}
}

func mustRoot(t testing.TB, s *xmldoc.Store, doc string) flexkey.Key {
	t.Helper()
	k, ok := s.Root(doc)
	if !ok {
		t.Fatalf("document %s not loaded", doc)
	}
	return k
}

// feedBulkScript is the shape of the benchmark's bulk feed: 32 price
// replaces over 28 entries, 8 book inserts, 8 book deletes and 16 author
// replaces, every where clause an equality on a title.
func feedBulkScript(books int) string {
	var b strings.Builder
	title := func(n int) string { return fmt.Sprintf("Title-%d", (n*37+5)%books) }
	replacePrice := func(n int) {
		fmt.Fprintf(&b, `for $e in document("prices.xml")/prices/entry where $e/b-title = "%s" update $e replace $e/price/text() with "%d.25"`+"\n", title(n), n)
	}
	for j := 0; j < 28; j++ {
		replacePrice(j)
	}
	for j := 0; j < 8; j++ {
		fmt.Fprintf(&b, `for $r in document("bib.xml")/bib update $r insert <book year="1995"><title>Fresh-%d</title><author><last>Bench</last><first>Mark</first></author></book> into $r`+"\n", j)
	}
	for j := 0; j < 4; j++ {
		replacePrice(j)
	}
	for j := 0; j < 8; j++ {
		fmt.Fprintf(&b, `for $b in document("bib.xml")/bib/book where $b/title = "%s" update $b delete $b`+"\n", title(100+j))
	}
	for j := 0; j < 16; j++ {
		fmt.Fprintf(&b, `for $b in document("bib.xml")/bib/book where $b/title = "%s" update $b replace $b/author/last/text() with "L%d"`+"\n", title(200+j), j)
	}
	return b.String()
}

// TestScriptEvalAllocs is the allocation gate: a bulk script shares its
// binding lists and probes its two title columns, so it allocates at most a
// third of what statement-by-statement evaluation does; a single statement
// has nothing to share and must not pay for the machinery.
func TestScriptEvalAllocs(t *testing.T) {
	const books = 1000
	s := diffStore(t, books)
	measure := func(src string) (got, ref float64) {
		if _, err := checkAgainstReference(s, src); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		got = testing.AllocsPerRun(5, func() {
			if _, err := ParseAndEvaluate(s, src); err != nil {
				t.Fatal(err)
			}
		})
		ref = testing.AllocsPerRun(5, func() {
			if _, err := parseAndEvaluateReference(s, src); err != nil {
				t.Fatal(err)
			}
		})
		return got, ref
	}
	bulk := feedBulkScript(books)
	if n := strings.Count(bulk, "\n"); n != 64 {
		t.Fatalf("bulk script has %d statements", n)
	}
	got, ref := measure(bulk)
	t.Logf("64-statement script: %.0f allocs, reference %.0f (%.1fx)", got, ref, ref/got)
	if got > ref/3 {
		t.Errorf("64-statement script: %.0f allocs, more than a third of the reference's %.0f", got, ref)
	}
	for _, src := range []string{
		`for $e in document("prices.xml")/prices/entry where $e/b-title = "Title-5" update $e replace $e/price/text() with "1.25"`,
		`for $b in document("bib.xml")/bib/book where $b/title = "Title-5" update $b delete $b`,
		`for $b in document("bib.xml")/bib/book where $b/@year = "1994" update $b delete $b/author`,
		`for $r in document("bib.xml")/bib update $r insert <book year="1995"><title>Fresh</title></book> into $r`,
	} {
		got, ref := measure(src)
		t.Logf("%.0f allocs, reference %.0f: %s", got, ref, src)
		if got > ref {
			t.Errorf("single statement: %.0f allocs, reference %.0f: %s", got, ref, src)
		}
	}
}
