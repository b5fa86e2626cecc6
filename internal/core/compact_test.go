package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqview/internal/flexkey"
	"xqview/internal/journal"
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

// TestCompactionWidensBatchLanguage pins what compaction does not do: it
// never rewrites a batch into one validation accepts. A batch that inserts
// under, or deletes, a node another primitive of the same batch inserts
// cannot come from an update script (every statement sees the pre-script
// store), so no rule splices or cancels such pairs and validation rejects
// them. The round aborts before touching anything: store, extents and state
// cache stay byte-identical, the journal's earlier rounds are unchanged, and
// the only new record is the aborted round, with no compaction decision.
func TestCompactionWidensBatchLanguage(t *testing.T) {
	defer journal.SetEnabled(journal.SetEnabled(true))
	defer journal.Default.Reset()
	// inserted builds a hand-made batch's first primitive: a new book with
	// its key already assigned, so a second primitive can name it.
	inserted := func(s *xmldoc.Store) (*update.Primitive, flexkey.Key) {
		root, _ := s.RootElem("bib.xml")
		books := xmldoc.ChildElems(s, root, "book")
		k := flexkey.SiblingBetween(root, books[len(books)-1], "")
		return &update.Primitive{Kind: update.Insert, Doc: "bib.xml", Parent: root, Key: k,
			Frag: xmldoc.Elem("book", xmldoc.Elem("title", xmldoc.TextF("Grown")))}, k
	}
	cases := map[string]func(s *xmldoc.Store) []*update.Primitive{
		"merge": func(s *xmldoc.Store) []*update.Primitive {
			ins, k := inserted(s)
			return []*update.Primitive{ins,
				{Kind: update.Insert, Doc: "bib.xml", Parent: k, Frag: xmldoc.Elem("extra", xmldoc.TextF("tail"))}}
		},
		"cancel": func(s *xmldoc.Store) []*update.Primitive {
			ins, k := inserted(s)
			return []*update.Primitive{ins, {Kind: update.Delete, Doc: "bib.xml", Key: k}}
		},
	}
	for name, batch := range cases {
		t.Run(name, func(t *testing.T) {
			journal.Default.Reset()
			s := xmldoc.NewStore()
			if _, err := s.Load("bib.xml", `<bib><book year="1994"><title>Base</title></book></bib>`); err != nil {
				t.Fatal(err)
			}
			v, err := NewView(s, `<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`)
			if err != nil {
				t.Fatal(err)
			}
			// One committed round first, so cache and journal hold state.
			warm, err := update.ParseAndEvaluate(s, `for $b in document("bib.xml")/bib/book update $b replace $b/title/text() with "Warm"`)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := MaintainAll(mustSet(t, s, []*View{v}), warm, 0, Options{}); err != nil {
				t.Fatal(err)
			}
			state := func() string {
				var b strings.Builder
				b.WriteString(s.DebugDump())
				for _, r := range v.Extent {
					b.WriteString(r.Dump())
				}
				b.WriteString(v.cache.Fingerprint())
				return b.String()
			}
			pre, preJournal := state(), journalJSON(t, journal.Default.Rounds())

			prims := batch(s)
			if _, _, decs := update.CompactBatch(prims); decs != nil {
				t.Fatalf("compaction rewrote the batch: %+v", decs)
			}
			if _, err := validate.ValidateRec(s, v.SAPT, prims, nil); err == nil {
				t.Fatal("validation accepts an in-batch reference to an inserted node")
			}
			if _, err := MaintainAll(mustSet(t, s, []*View{v}), prims, 0, Options{}); err == nil || !strings.Contains(err.Error(), "validate") {
				t.Fatalf("round over the %s-shaped batch: err = %v, want a validation error", name, err)
			}
			if got := state(); got != pre {
				t.Fatalf("rejected round changed store, extent or cache:\n--- before ---\n%s\n--- after ---\n%s", pre, got)
			}
			rounds := journal.Default.Rounds()
			if got := journalJSON(t, rounds[:len(rounds)-1]); got != preJournal {
				t.Fatalf("rejected round changed earlier journal rounds:\n%s\nwant:\n%s", got, preJournal)
			}
			if last := rounds[len(rounds)-1]; !last.Aborted || len(last.Compactions) != 0 {
				t.Fatalf("rejected round journaled as aborted=%v with compactions %+v", last.Aborted, last.Compactions)
			}
		})
	}
}

func journalJSON(t *testing.T, rounds []*journal.Round) string {
	t.Helper()
	b, err := json.Marshal(rounds)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
