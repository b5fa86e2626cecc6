package core

import (
	"strings"
	"testing"

	"xqview/internal/journal"
	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// journaledQuery has a selective predicate so the explain chain contains a
// Select operator between the navigation and the construction.
const journaledQuery = `<r>{
  FOR $b in doc("bib.xml")/bib/book
  WHERE $b/@year = "1994"
  RETURN $b/title
}</r>`

func TestMaintainAllJournalsRound(t *testing.T) {
	defer journal.SetEnabled(journal.SetEnabled(false))
	journal.Default.Reset()
	defer journal.Default.Reset()

	s := bibStore(t)
	v, err := NewView(s, journaledQuery)
	if err != nil {
		t.Fatal(err)
	}
	journal.SetEnabled(true)

	bib, _ := s.RootElem("bib.xml")
	ins := &update.Primitive{Kind: update.Insert, Doc: "bib.xml", Parent: bib,
		Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1994"),
			xmldoc.Elem("title", xmldoc.TextF("Provenance Illustrated")))}
	// An irrelevant update rides along: prices.xml is outside this view's
	// SAPT, so its verdict must be a prune.
	prices, _ := s.RootElem("prices.xml")
	noise := &update.Primitive{Kind: update.Insert, Doc: "prices.xml", Parent: prices,
		Frag: xmldoc.Elem("entry", xmldoc.Elem("price", xmldoc.TextF("1.00")))}
	if _, err := MaintainAll(mustSet(t, s, []*View{v}), []*update.Primitive{ins, noise}, 0, Options{}); err != nil {
		t.Fatal(err)
	}

	rounds := journal.Default.Rounds()
	if len(rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(rounds))
	}
	r := rounds[0]
	if r.Error != "" {
		t.Fatalf("round marked failed: %s", r.Error)
	}
	if len(r.Prims) != 2 || r.Prims[0].Key == "" {
		t.Fatalf("prims not snapshotted with assigned keys: %+v", r.Prims)
	}
	verdicts := map[int]string{}
	for _, vd := range r.Verdicts {
		verdicts[vd.Prim] = vd.Action
	}
	if verdicts[0] != "accept" {
		t.Fatalf("relevant insert verdict = %q, want accept (all: %+v)", verdicts[0], r.Verdicts)
	}
	if verdicts[1] != "prune" {
		t.Fatalf("irrelevant insert verdict = %q, want prune (all: %+v)", verdicts[1], r.Verdicts)
	}
	if len(r.PerView) != 1 || len(r.PerView[0].Ops) == 0 {
		t.Fatalf("no operator lineage recorded: %+v", r.PerView)
	}
	kinds := map[string]bool{}
	for _, op := range r.PerView[0].Ops {
		kinds[op.Kind] = true
	}
	for _, want := range []string{"Source", "NavUnnest", "Select", "Tagger"} {
		if !kinds[want] {
			t.Fatalf("lineage missing operator %s; have %v", want, kinds)
		}
	}
	if len(r.PerView[0].Fusions) == 0 {
		t.Fatal("no fusion records")
	}

	// The explain chain must name the originating primitive, its verdict,
	// at least one intermediate XAT operator, and the fusion.
	text, err := journal.Default.Explain("view-0", string(ins.Key))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"primitive #0", "insert <book>", "verdict: accept",
		"Select(", "propagation:", "fused into view node"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain missing %q:\n%s", want, text)
		}
	}
}

func TestMaintainAllJournalDisabledRecordsNothing(t *testing.T) {
	defer journal.SetEnabled(journal.SetEnabled(false))
	journal.Default.Reset()
	defer journal.Default.Reset()

	s := bibStore(t)
	v, err := NewView(s, journaledQuery)
	if err != nil {
		t.Fatal(err)
	}
	bib, _ := s.RootElem("bib.xml")
	ins := &update.Primitive{Kind: update.Insert, Doc: "bib.xml", Parent: bib,
		Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1994"),
			xmldoc.Elem("title", xmldoc.TextF("Silent")))}
	if _, err := MaintainAll(mustSet(t, s, []*View{v}), []*update.Primitive{ins}, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := journal.Default.Len(); n != 0 {
		t.Fatalf("disabled journal recorded %d round(s)", n)
	}
}

func TestMaintainAllJournalsFailedRound(t *testing.T) {
	defer journal.SetEnabled(journal.SetEnabled(false))
	journal.Default.Reset()
	defer journal.Default.Reset()

	s := bibStore(t)
	v, err := NewView(s, journaledQuery)
	if err != nil {
		t.Fatal(err)
	}
	journal.SetEnabled(true)
	// A delete of an unknown node fails sufficiency checking; the round must
	// still be committed, carrying the reject verdict and the error.
	bad := &update.Primitive{Kind: update.Delete, Doc: "bib.xml", Key: "zz.zz"}
	if _, err := MaintainAll(mustSet(t, s, []*View{v}), []*update.Primitive{bad}, 0, Options{}); err == nil {
		t.Fatal("expected validation error")
	}
	rounds := journal.Default.Rounds()
	if len(rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(rounds))
	}
	r := rounds[0]
	if r.Error == "" {
		t.Fatal("failed round not marked with error")
	}
	if len(r.Verdicts) != 1 || r.Verdicts[0].Action != "reject" {
		t.Fatalf("verdicts = %+v, want one reject", r.Verdicts)
	}
}
