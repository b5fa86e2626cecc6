package validate

import (
	"strings"
	"testing"

	"xqview/internal/compile"
	"xqview/internal/flexkey"
	"xqview/internal/sapt"
	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

const query = `
<result>{
  FOR $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
  WHERE $b/title = $e/b-title
  RETURN <pair>{$b/title} {$e/price}</pair>
}</result>`

const bibXML = `<bib>
  <book year="1994"><title>T1</title><author><last>L1</last></author></book>
  <book year="2000"><title>T2</title><author><last>L2</last></author></book>
</bib>`

const pricesXML = `<prices><entry><price>10</price><b-title>T1</b-title></entry></prices>`

func setup(t *testing.T) (*xmldoc.Store, *sapt.Tree) {
	t.Helper()
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", pricesXML); err != nil {
		t.Fatal(err)
	}
	plan, err := compile.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	return s, sapt.Build(plan)
}

func TestValidateDropsIrrelevant(t *testing.T) {
	s, tree := setup(t)
	prims, err := update.ParseAndEvaluate(s, `
for $b in document("bib.xml")/bib/book[1]
update $b
insert <first>W</first> into $b/author`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValidateRec(s, tree, prims, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.Irrelevant != 1 || len(b.Prims()) != 0 {
		t.Fatalf("stats: %+v, prims %d", b.Stats, len(b.Prims()))
	}
}

func TestValidateAssignsInsertKeys(t *testing.T) {
	s, tree := setup(t)
	prims, err := update.ParseAndEvaluate(s, `
for $b in document("bib.xml")/bib
update $b
insert <book><title>N1</title></book> into $b

for $b in document("bib.xml")/bib
update $b
insert <book><title>N2</title></book> into $b`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValidateRec(s, tree, prims, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := b.ByDoc["bib.xml"]
	if len(ps) != 2 {
		t.Fatalf("batched prims: %d", len(ps))
	}
	k1, k2 := ps[0].Key, ps[1].Key
	if k1 == "" || k2 == "" || k1 == k2 {
		t.Fatalf("keys not distinct: %q %q", k1, k2)
	}
	if !flexkey.Less(k1, k2) {
		t.Fatalf("appended inserts out of order: %q !< %q", k1, k2)
	}
	// Refreshing a draft with the batch lands the fragments at those keys.
	d := xmldoc.NewDraft(s)
	for _, p := range b.Refresh {
		if err := update.ApplyToStore(d, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := xmldoc.StringValue(d, k1); got != "N1" {
		t.Fatalf("refreshed content: %q", got)
	}
}

// TestValidateKeepsIrrelevantForRefresh: an update no view reads stays out
// of propagation but is still batched for source refresh, with its insert
// key assigned in the same loop as the relevant ones (statement order at a
// shared position).
func TestValidateKeepsIrrelevantForRefresh(t *testing.T) {
	s, tree := setup(t)
	prims, err := update.ParseAndEvaluate(s, `
for $b in document("bib.xml")/bib
update $b
insert <note>n</note> into $b

for $b in document("bib.xml")/bib
update $b
insert <book><title>T9</title></book> into $b`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValidateRec(s, tree, prims, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.Irrelevant != 1 || len(b.Prims()) != 1 || len(b.Refresh) != 2 {
		t.Fatalf("stats %+v, propagated %d, refreshed %d", b.Stats, len(b.Prims()), len(b.Refresh))
	}
	note, book := b.Refresh[0], b.Refresh[1]
	if note.Frag.Name != "note" || note.Key == "" || !flexkey.Less(note.Key, book.Key) {
		t.Fatalf("refresh order or keys: %v, %v", note, book)
	}
	if b.Prims()[0] != book {
		t.Fatalf("propagated %v, want the book insert", b.Prims()[0])
	}
}

func TestValidateRewritesTitleReplace(t *testing.T) {
	s, tree := setup(t)
	prims, err := update.ParseAndEvaluate(s, `
for $b in document("bib.xml")/bib/book[1]
update $b
replace $b/title/text() with "Renamed"`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValidateRec(s, tree, prims, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.Rewritten != 1 {
		t.Fatalf("stats: %+v", b.Stats)
	}
	ps := b.ByDoc["bib.xml"]
	if len(ps) != 2 {
		t.Fatalf("rewrite should emit delete+insert, got %d prims", len(ps))
	}
	var del, ins *update.Primitive
	for _, p := range ps {
		switch p.Kind {
		case update.Delete:
			del = p
		case update.Insert:
			ins = p
		}
	}
	if del == nil || ins == nil {
		t.Fatalf("prims: %v", ps)
	}
	// The replacement fragment carries the new title and the untouched
	// author subtree.
	out := ins.Frag.String()
	if !strings.Contains(out, "Renamed") || !strings.Contains(out, "<last>L1</last>") {
		t.Fatalf("rewritten fragment: %s", out)
	}
	// The new fragment lands at the old book's position: between the old
	// book (being deleted) and its next sibling.
	if !(ins.Key > del.Key) {
		t.Fatalf("insert key %q should follow deleted anchor %q", ins.Key, del.Key)
	}
}

func TestValidateFoldsInnerPrimsIntoRewrite(t *testing.T) {
	s, tree := setup(t)
	// Replace the title (rewrite) and insert into the same book (irrelevant
	// alone).
	prims, err := update.ParseAndEvaluate(s, `
for $b in document("bib.xml")/bib/book[1]
update $b
replace $b/title/text() with "Renamed"

for $b in document("bib.xml")/bib/book[1]
update $b
insert <extra>e</extra> into $b`)
	if err != nil {
		t.Fatal(err)
	}
	// With this query the bare <extra> insert is irrelevant; inside the
	// rewritten book it folds into the rewrite as a pass-class one would.
	b, err := ValidateRec(s, tree, prims, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := b.ByDoc["bib.xml"]
	if len(ps) != 2 || len(b.Refresh) != 2 {
		t.Fatalf("prims: %v, refresh: %v", ps, b.Refresh)
	}
	// The irrelevant insert reaches the store through the rewrite's
	// replacement fragment.
	for _, p := range ps {
		if p.Kind == update.Insert && !strings.Contains(p.Frag.String(), "<extra>e</extra>") {
			t.Fatalf("rewrite dropped the folded insert: %s", p.Frag)
		}
	}
}

func TestValidateSufficiencyErrors(t *testing.T) {
	s, tree := setup(t)
	bad := []*update.Primitive{
		{Kind: update.Insert, Doc: "bib.xml", Parent: "zz.zz"},
		{Kind: update.Delete, Doc: "bib.xml", Key: "zz.zz"},
		{Kind: update.Replace, Doc: "bib.xml", Key: "zz.zz", NewValue: "x"},
	}
	for _, p := range bad {
		if p.Kind == update.Insert {
			p.Frag = xmldoc.Elem("x")
		}
		if _, err := ValidateRec(s, tree, []*update.Primitive{p}, nil); err == nil {
			t.Fatalf("Validate(%v) should fail", p)
		}
	}
}

func TestValidateBatchesPerDocument(t *testing.T) {
	s, tree := setup(t)
	prims, err := update.ParseAndEvaluate(s, `
for $b in document("bib.xml")/bib/book[2]
update $b
delete $b`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValidateRec(s, tree, prims, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps := b.ByDoc["bib.xml"]; len(ps) != 1 || ps[0].Kind != update.Delete || len(b.ByDoc) != 1 {
		t.Fatalf("batch: %v", b.ByDoc)
	}
}

// TestValidateRewriteKeepsItsPlace: a rewritten anchor's re-insert is keyed
// before an insert the same script places after that anchor, so the script's
// node lands after the rewritten one, as applying the statements in turn
// would place it.
func TestValidateRewriteKeepsItsPlace(t *testing.T) {
	s, tree := setup(t)
	prims, err := update.ParseAndEvaluate(s, `
for $b in document("bib.xml")/bib/book[1]
update $b
replace $b/title/text() with "A2"

for $b in document("bib.xml")/bib/book[1]
update $b
insert <book year="1999"><title>X</title></book> after $b`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValidateRec(s, tree, prims, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rewritten, inserted *update.Primitive
	for _, p := range b.Refresh {
		if p.Kind != update.Insert {
			continue
		}
		if strings.Contains(p.Frag.String(), "A2") {
			rewritten = p
		} else {
			inserted = p
		}
	}
	if rewritten == nil || inserted == nil {
		t.Fatalf("refresh: %v", b.Refresh)
	}
	books := xmldoc.ChildElems(s, rewritten.Parent, "book")
	if !flexkey.Less(rewritten.Key, inserted.Key) || !flexkey.Less(inserted.Key, books[1]) {
		t.Fatalf("keys: rewritten %s, inserted %s, next book %s", rewritten.Key, inserted.Key, books[1])
	}
}
