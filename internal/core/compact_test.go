package core

import (
	"fmt"
	"math/rand"
	"testing"

	"xqview/internal/flexkey"
	"xqview/internal/update"
	"xqview/internal/validate"
	"xqview/internal/xmldoc"
)

// Delta-batch compaction must be invisible in results and truthful in the
// journal. The randomized oracle's dup-replaces family covers both on whole
// rounds; the tests here pin the batches compaction admits.

// compactArmQueries are the oracle's dup-replaces family; the join keeps the
// replace-heavy prices side involved.
var compactArmQueries = []string{
	RunningExample,
	`<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`,
	`<result>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</result>`,
}

// dupReplaceBatch builds a conflict-free random batch and extends the run of
// one replace primitive with extra writes to the same node, so coalesce has
// something to do.
func dupReplaceBatch(t *testing.T, rng *rand.Rand, s *xmldoc.Store) []*update.Primitive {
	t.Helper()
	for tries := 0; tries < 50; tries++ {
		prims := randomBatch(t, rng, s, 1+rng.Intn(3))
		if !conflictFree(prims) {
			continue
		}
		var rep *update.Primitive
		for _, p := range prims {
			if p.Kind == update.Replace {
				rep = p
				break
			}
		}
		if rep == nil {
			continue
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			prims = append(prims, &update.Primitive{
				Kind: update.Replace, Doc: rep.Doc, Key: rep.Key,
				NewValue: fmt.Sprintf("dup-%d", rng.Intn(1000)),
			})
		}
		return prims
	}
	t.Fatal("no duplicate-replace batch generated in 50 tries")
	return nil
}

// TestCompactionWidensBatchLanguage pins the FLUX-style composition payoff:
// merge and cancel admit batches that reference in-batch inserted nodes,
// which validation alone would reject (the parent is not in the base store),
// and the compacted result matches sequential application.
func TestCompactionWidensBatchLanguage(t *testing.T) {
	mkArm := func(t *testing.T) (*xmldoc.Store, *View) {
		s := xmldoc.NewStore()
		if _, err := s.Load("bib.xml", `<bib><book year="1994"><title>Base</title></book></bib>`); err != nil {
			t.Fatal(err)
		}
		v, err := NewView(s, `<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`)
		if err != nil {
			t.Fatal(err)
		}
		return s, v
	}

	t.Run("merge", func(t *testing.T) {
		s, v := mkArm(t)
		root, _ := s.RootElem("bib.xml")
		books := xmldoc.ChildElems(s, root, "book")
		k := flexkey.SiblingBetween(root, books[len(books)-1], "")
		prims := func() []*update.Primitive {
			return []*update.Primitive{
				{Kind: update.Insert, Doc: "bib.xml", Parent: root, Key: k,
					Frag: xmldoc.Elem("book", xmldoc.Elem("title", xmldoc.TextF("Grown")))},
				{Kind: update.Insert, Doc: "bib.xml", Parent: k,
					Frag: xmldoc.Elem("extra", xmldoc.TextF("tail"))},
			}
		}
		want, err := Recompute(s, v.Query, prims())
		if err != nil {
			t.Fatalf("sequential ground truth rejected the batch: %v", err)
		}
		if _, err := validate.Validate(s, v.SAPT, prims()); err == nil {
			t.Fatal("validation alone accepts an in-batch parent reference; merge rule is vacuous")
		}
		if _, err := MaintainAll(s, []*View{v}, prims(), 0, Options{Parallelism: 1}); err != nil {
			t.Fatalf("merged batch rejected: %v", err)
		}
		if got := v.XML(); got != want {
			t.Fatalf("merged batch diverges from sequential application\ngot:  %s\nwant: %s", got, want)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		s, v := mkArm(t)
		before := v.XML()
		root, _ := s.RootElem("bib.xml")
		books := xmldoc.ChildElems(s, root, "book")
		k := flexkey.SiblingBetween(root, books[len(books)-1], "")
		prims := func() []*update.Primitive {
			return []*update.Primitive{
				{Kind: update.Insert, Doc: "bib.xml", Parent: root, Key: k,
					Frag: xmldoc.Elem("book", xmldoc.Elem("title", xmldoc.TextF("Ephemeral")))},
				{Kind: update.Delete, Doc: "bib.xml", Key: k},
			}
		}
		if _, err := validate.Validate(s, v.SAPT, prims()); err == nil {
			t.Fatal("validation alone accepts an in-batch delete target; cancel rule is vacuous")
		}
		if _, err := MaintainAll(s, []*View{v}, prims(), 0, Options{Parallelism: 1}); err != nil {
			t.Fatalf("annihilating batch rejected: %v", err)
		}
		if got := v.XML(); got != before {
			t.Fatalf("annihilated batch changed the extent\ngot:    %s\nbefore: %s", got, before)
		}
	})
}
