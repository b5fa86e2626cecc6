package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqview/internal/faultinject"
	"xqview/internal/journal"
	"xqview/internal/obs"
	"xqview/internal/update"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// Shared sub-plan maintenance must be invisible in results: a view maintained
// inside a family that shares its prefix produces the same extent, journal
// lineage and Explain output as the same view maintained alone, while the
// shared frontier turns per-view subtree propagations into one propagation
// per distinct prefix.

// sharedFamilies are three view families with overlapping prefixes: the
// book family shares Source→Navigate over bib.xml, the price family the
// same over prices.xml, and the join family a whole two-source join
// subtree. Within each family only the construction suffix differs, so the
// DAG must factor each family's prefix into one shared group.
var sharedFamilies = []string{
	// Family 1: bib book prefix.
	`<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`,
	`<result>{ for $b in doc("bib.xml")/bib/book return <u>{$b/title}</u> }</result>`,
	`<result>{ for $b in doc("bib.xml")/bib/book where $b/@year = "1995" return <hit>{$b/title}</hit> }</result>`,
	// Family 2: prices entry prefix.
	`<result>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</result>`,
	`<result>{ for $e in doc("prices.xml")/prices/entry return <q>{$e/price}</q> }</result>`,
	// Family 3: two-source join prefix.
	`<result>{
		for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
		where $b/title = $e/b-title
		return <pair>{$b/title} {$e/price}</pair> }</result>`,
	`<result>{
		for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
		where $b/title = $e/b-title
		return <deal>{$e/price}</deal> }</result>`,
}

// TestSharedDAGGrouping pins the DAG construction itself: the three
// families must factor into at least three shared groups, every group needs
// two distinct subscribing views, and a single view shares nothing.
func TestSharedDAGGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0DA6))
	store, views := newArm(t, randomBib(rng, 3), randomPrices(rng, 3), sharedFamilies)
	dag := mustSet(t, store, views).dag
	if len(dag.Groups) < 3 {
		t.Fatalf("expected >=3 shared groups across the families, got %d", len(dag.Groups))
	}
	subscribed := map[int]bool{}
	for gi, g := range dag.Groups {
		views := map[int]bool{}
		for _, m := range g.Members {
			views[m.View] = true
			subscribed[m.View] = true
			if len(m.Ops) != len(g.Rep) {
				t.Fatalf("group %d: member subtree size %d != rep size %d", gi, len(m.Ops), len(g.Rep))
			}
		}
		if len(views) < 2 {
			t.Fatalf("group %d has %d distinct views, want >=2", gi, len(views))
		}
		if len(g.Rep) < 2 {
			t.Fatalf("group %d rep subtree has %d ops, want >=2", gi, len(g.Rep))
		}
		if !g.Frontier().Shareable() {
			t.Fatalf("group %d frontier not shareable", gi)
		}
	}
	// The maximal-first greedy may leave a view whose only overlap is a
	// fragment of an already-accepted larger group unsubscribed (the
	// filtered book view); every family's unfiltered members must subscribe.
	for _, vi := range []int{0, 1, 3, 4, 5, 6} {
		if !subscribed[vi] {
			t.Errorf("view %d subscribes to no group", vi)
		}
	}
	if d := mustSet(t, store, views[:1]).dag; len(d.Groups) != 0 {
		t.Errorf("single view formed %d shared groups, want 0", len(d.Groups))
	}
}

// explainAll renders Explain for every view at each primitive's anchor key.
// A no-lineage error is part of the rendered output: every arm must produce
// it for the same (view, key) pairs.
func explainAll(views []*View, prims []*update.Primitive) string {
	var b strings.Builder
	for _, v := range views {
		for _, p := range prims {
			if len(p.Key) == 0 {
				continue
			}
			text, err := journal.Default.Explain(v.Name, string(p.Key))
			if err != nil {
				text = "error: " + err.Error()
			}
			b.WriteString(text)
			b.WriteString("\n---\n")
		}
	}
	return b.String()
}

// lineageFamilies are view sets whose members differ ONLY in constructor
// tags: each member reads the same source paths, so the family's merged SAPT
// classifies every primitive exactly as each member's own SAPT does, and the
// validated batch a member sees is the same whether it is maintained inside
// the family or alone.
var lineageFamilies = map[string][]string{
	"books": {
		`<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`,
		`<result>{ for $b in doc("bib.xml")/bib/book return <u>{$b/title}</u> }</result>`,
	},
	"prices": {
		`<result>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</result>`,
		`<result>{ for $e in doc("prices.xml")/prices/entry return <q>{$e/price}</q> }</result>`,
	},
	"joins": {
		`<result>{
			for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
			where $b/title = $e/b-title
			return <pair>{$b/title} {$e/price}</pair> }</result>`,
		`<result>{
			for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
			where $b/title = $e/b-title
			return <deal>{$b/title} {$e/price}</deal> }</result>`,
		`<result>{
			for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
			where $b/title = $e/b-title
			return <offer>{$b/title} {$e/price}</offer> }</result>`,
	},
}

// viewRecord is everything one arm recorded about one view in one round.
type viewRecord struct {
	extent, lineage, explain string
}

// recordRound maintains one journaled round and returns, per view, its
// canonical extent, its marshalled journal lineage and its Explain output at
// every primitive's anchor key, plus the round's verdicts and how many shared
// prefixes were seeded into the views.
func recordRound(t *testing.T, set *ViewSet, prims []*update.Primitive) (recs []viewRecord, verdicts string, seeded int) {
	t.Helper()
	journal.Default.Reset()
	views := set.Views
	stats, err := MaintainAll(set, prims, 0, Options{})
	if err != nil {
		t.Fatalf("maintain: %v", err)
	}
	jr := journal.Default.Rounds()[0]
	recs = make([]viewRecord, len(views))
	for i, v := range views {
		lineage, err := json.Marshal(jr.PerView[i])
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = viewRecord{CanonicalXML(v.Extent), string(lineage), explainAll(views[i:i+1], prims)}
		seeded += stats[i].SharedPrefixes
	}
	return recs, fmt.Sprint(jr.Verdicts), seeded
}

// TestSharedTogetherMatchesAlone is the byte-identity backstop of the shared
// frontier. A view maintained alone forms no shared group by construction
// (BuildSharedDAG needs two subscribers), so each family runs as one
// together arm plus one alone arm per member over twin stores: after every
// randomized round each member's extent, journal lineage and Explain output
// in the together arm — where its prefix was propagated once and seeded —
// must equal what the same view recorded alone.
func TestSharedTogetherMatchesAlone(t *testing.T) {
	defer journal.SetEnabled(journal.SetEnabled(true))
	defer journal.Default.Reset()
	for name, queries := range lineageFamilies {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x54A12E))
			bibXML, pricesXML := randomBib(rng, 6), randomPrices(rng, 5)
			store, views := newArm(t, bibXML, pricesXML, queries)
			set := mustSet(t, store, views)
			if len(set.dag.Groups) == 0 {
				t.Fatal("family forms no shared group; the comparison is vacuous")
			}
			alone := make([]*ViewSet, len(views))
			for i, v := range views {
				s, vs := newArm(t, bibXML, pricesXML, queries[i:i+1])
				vs[0].Name = v.Name
				alone[i] = mustSet(t, s, vs)
			}
			rounds := 25
			if testing.Short() {
				rounds = 8
			}
			seeded := 0
			for round := 0; round < rounds; round++ {
				prims := randomBatch(t, rng, store, 1+rng.Intn(3))
				if !conflictFree(prims) {
					continue
				}
				// Validation assigns insert keys on the primitives it is
				// handed, so every arm gets its own copy of the batch.
				together, verdicts, n := recordRound(t, set, deepClonePrims(prims))
				seeded += n
				for i, a := range alone {
					solo, soloVerdicts, _ := recordRound(t, a, deepClonePrims(prims))
					if soloVerdicts != verdicts {
						t.Fatalf("round %d view %d: verdicts differ alone vs together; family premise broken\nalone:    %s\ntogether: %s",
							round, i, soloVerdicts, verdicts)
					}
					if solo[0] != together[i] {
						t.Fatalf("round %d view %d: together diverges from alone\n--- together ---\n%+v\n--- alone ---\n%+v",
							round, i, together[i], solo[0])
					}
				}
			}
			if seeded == 0 {
				t.Fatal("together arm never seeded a shared prefix; comparison is vacuous")
			}
		})
	}
}

// sharedCrashSnapshot extends the PR 5 rollback snapshot with the shared
// DAG's cache partitions: a rolled-back round must leave them byte-identical
// too.
func sharedCrashSnapshot(a *crashArm, dag *xat.SharedDAG) string {
	s := a.snapshot()
	var b strings.Builder
	b.WriteString(s.store)
	for i := range s.extents {
		b.WriteString(s.extents[i])
		b.WriteString(s.caches[i])
	}
	for _, g := range dag.Groups {
		b.WriteString(g.Cache.Fingerprint())
	}
	return b.String()
}

// TestSharedCrashConsistencyEverySite reruns the PR 5 fault sweep holding a
// warm shared DAG: a fault at any site — including the shared groups' own
// propagate and prepare steps — must roll back store, extents, private
// caches AND shared cache partitions byte-identical, and the retry must
// match a fault-free twin.
func TestSharedCrashConsistencyEverySite(t *testing.T) {
	sites := FaultSites()
	for _, site := range sites {
		for _, mode := range []faultinject.Mode{faultinject.ModeError, faultinject.ModePanic} {
			t.Run(site+"/"+mode.String(), func(t *testing.T) {
				defer faultinject.Reset()
				rng := rand.New(rand.NewSource(0x54A12E))
				bib, prices := randomBib(rng, 6), randomPrices(rng, 5)
				a := newCrashArm(t, bib, prices)
				b := newCrashArm(t, bib, prices)
				dagA, dagB := a.set.dag, b.set.dag
				if len(dagA.Groups) == 0 {
					t.Fatal("crash queries share no prefixes; sweep is vacuous")
				}
				optsA, optsB := a.opts(), b.opts()

				warm := randomBatch(t, rng, a.store, 2)
				if _, err := MaintainAll(a.set, deepClonePrims(warm), 0, optsA); err != nil {
					t.Fatalf("warmup: %v", err)
				}
				if _, err := MaintainAll(b.set, deepClonePrims(warm), 0, optsB); err != nil {
					t.Fatalf("twin warmup: %v", err)
				}
				pre := sharedCrashSnapshot(a, dagA)
				prims := randomBatch(t, rng, a.store, 3)
				primsA, primsB := deepClonePrims(prims), deepClonePrims(prims)

				if err := faultinject.Arm(site, mode, 1); err != nil {
					t.Fatal(err)
				}
				_, err := MaintainAll(a.set, primsA, 0, optsA)
				if err == nil {
					t.Fatalf("armed %s did not fail the round", site)
				}
				if !faultinject.Fired(site) {
					t.Fatalf("round failed but site %s never fired: %v", site, err)
				}
				var f *faultinject.Fault
				if mode == faultinject.ModeError && !errors.As(err, &f) {
					t.Fatalf("injected error not traceable to the fault: %v", err)
				}
				if post := sharedCrashSnapshot(a, dagA); post != pre {
					t.Fatalf("rollback after %s (%s) not byte-identical under sharing:\n--- pre ---\n%s\n--- post ---\n%s",
						site, mode, pre, post)
				}

				if _, err := MaintainAll(a.set, primsA, 0, optsA); err != nil {
					t.Fatalf("retry after %s: %v", site, err)
				}
				if _, err := MaintainAll(b.set, primsB, 0, optsB); err != nil {
					t.Fatalf("twin round: %v", err)
				}
				if got, want := sharedCrashSnapshot(a, dagA), sharedCrashSnapshot(b, dagB); got != want {
					t.Fatalf("retried shared round diverged from fault-free twin:\n--- a ---\n%s\n--- b ---\n%s", got, want)
				}
			})
		}
	}
}

// TestSharedSkipAccounting pins the skip contract of the shared frontier: a
// view skipped by the relevance filter counts as skipped (MaintStats and
// the xqview_views_skipped_total counter) even when a shared prefix it
// subscribes to ran for other, live views — and the skipped view receives
// no seeds. Over several rounds, one of them aborted by a fault, the round
// samples are the only record: every registry series folded from them moves
// by exactly the sum of its sample field, and each sample's cache fields
// count the shared prefix's partition next to the views' caches.
func TestSharedSkipAccounting(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(0x5C1B))
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", randomBib(rng, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", randomPrices(rng, 3)); err != nil {
		t.Fatal(err)
	}
	// All views share the bib book prefix; the two join views also read
	// prices.xml and share the whole join, whose base tables the shared
	// partition caches.
	bibOnly, err := NewView(s, `<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	const join = `for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
		where $b/title = $e/b-title`
	joined, err := NewView(s, `<result>{ `+join+` return <pair>{$b/title} {$e/price}</pair> }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	priced, err := NewView(s, `<result>{ `+join+` return <priced>{$e/price}</priced> }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	views := []*View{bibOnly, joined, priced}
	set := mustSet(t, s, views)
	dag := set.dag
	if len(dag.Groups) == 0 {
		t.Fatal("views share no prefix; test is vacuous")
	}
	opts := Options{Parallelism: 1}

	// folded lists every counter the round series folds, with the sample
	// field it folds from.
	folded := []struct {
		name, rule string
		field      func(obs.RoundSample) int64
	}{
		{"xqview_maintain_runs_total", "", func(s obs.RoundSample) int64 { return b2i(!s.Aborted) }},
		{"xqview_round_rollbacks_total", "", func(s obs.RoundSample) int64 { return b2i(s.Aborted) }},
		{"xqview_rollback_restored_total", "", func(s obs.RoundSample) int64 { return int64(s.RollbackRestored) }},
		{"xqview_views_skipped_total", "", func(s obs.RoundSample) int64 { return int64(s.Skipped) }},
		{"deepunion_nodes_merged_total", "", func(s obs.RoundSample) int64 { return int64(s.Merged) }},
		{"deepunion_subtrees_inserted_total", "", func(s obs.RoundSample) int64 { return int64(s.Inserted) }},
		{"deepunion_fragments_removed_total", "", func(s obs.RoundSample) int64 { return int64(s.Removed) }},
		{"deepunion_values_modified_total", "", func(s obs.RoundSample) int64 { return int64(s.Modified) }},
		{"xat_state_cache_hits_total", "", func(s obs.RoundSample) int64 { return int64(s.CacheHits) }},
		{"xat_state_cache_misses_total", "", func(s obs.RoundSample) int64 { return int64(s.CacheMisses) }},
		{"xat_state_cache_folds_total", "", func(s obs.RoundSample) int64 { return int64(s.CacheFolds) }},
		{"xat_shared_prefix_groups_total", "", func(s obs.RoundSample) int64 { return int64(s.SharedGroups) }},
		{"xat_shared_prefix_fanout_total", "", func(s obs.RoundSample) int64 { return int64(s.SharedFanout) }},
		{"xat_shared_prefix_hits_total", "", func(s obs.RoundSample) int64 { return int64(s.SharedHits) }},
		{"xat_delta_rows_total", "", func(s obs.RoundSample) int64 { return int64(s.DeltaRoots) }},
		{"update_compact_batches_total", "", func(s obs.RoundSample) int64 { return b2i(s.PrimsOut < s.PrimsIn) }},
		{"update_compact_prims_dropped_total", "all", func(s obs.RoundSample) int64 { return int64(s.PrimsIn - s.PrimsOut) }},
		{"update_compact_prims_dropped_total", "coalesce", func(s obs.RoundSample) int64 { return int64(s.PrimsIn - s.PrimsOut) }},
	}
	counter := func(name, rule string) *obs.Counter {
		if rule == "" {
			return obs.Default.CounterOf(name, "")
		}
		return obs.Default.CounterOf(name, "", "rule", rule)
	}
	before := make([]int64, len(folded))
	for i, f := range folded {
		before[i] = counter(f.name, f.rule).Value()
	}
	seq := obs.Rounds.Total()

	// cacheWork sums hits+misses over the views' caches and over the shared
	// partitions.
	cacheWork := func() (viewWork, sharedWork int) {
		for _, v := range views {
			cs := v.CacheStats()
			viewWork += cs.Hits + cs.Misses
		}
		for _, g := range dag.Groups {
			cs := g.Cache.Stats()
			sharedWork += cs.Hits + cs.Misses
		}
		return viewWork, sharedWork
	}
	// maintain runs one round; a committed round's sample must count the
	// cache work of the views and of the shared partitions, and the shared
	// partitions must have done some.
	maintain := func(prims []*update.Primitive) ([]*MaintStats, error) {
		t.Helper()
		v0, s0 := cacheWork()
		stats, err := MaintainAll(set, prims, 0, opts)
		if err != nil {
			return nil, err
		}
		v1, s1 := cacheWork()
		sm, _ := obs.Rounds.Last()
		if got := int(sm.CacheHits + sm.CacheMisses); got <= 0 || got != (v1-v0)+(s1-s0) || s1 == s0 {
			t.Errorf("sample counts %d cache lookups; views did %d, shared partitions %d",
				got, v1-v0, s1-s0)
		}
		return stats, nil
	}

	// The batch touches prices.xml only: the bib-only view must skip even
	// though its shared bib prefix runs on behalf of the join view.
	bibBefore := bibOnly.XML()
	priRoot, _ := s.RootElem("prices.xml")
	prims := []*update.Primitive{{
		Kind: update.Insert, Doc: "prices.xml", Parent: priRoot,
		Frag: xmldoc.Elem("entry",
			xmldoc.Elem("price", xmldoc.TextF("5.00")),
			xmldoc.Elem("b-title", xmldoc.TextF(titlesPool[0]))),
	}}
	want, err := Recompute(s, joined.Query, deepClonePrims(prims))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := maintain(prims)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Skipped != 1 {
		t.Errorf("bib-only view not counted skipped: Skipped=%d", stats[0].Skipped)
	}
	if stats[0].SharedPrefixes != 0 {
		t.Errorf("skipped view received %d shared seeds, want 0", stats[0].SharedPrefixes)
	}
	if stats[1].Skipped != 0 || stats[2].Skipped != 0 {
		t.Error("join view wrongly skipped")
	}
	if got := counter("xqview_views_skipped_total", "").Value() - before[3]; got != 1 {
		t.Errorf("xqview_views_skipped_total moved by %d, want 1", got)
	}
	if got := bibOnly.XML(); got != bibBefore {
		t.Errorf("skipped view's extent changed:\nbefore: %s\nafter:  %s", bibBefore, got)
	}
	if got := joined.XML(); got != want {
		t.Errorf("join view diverged from recompute:\ngot:  %s\nwant: %s", got, want)
	}

	// A round aborted in the apply phase, after the shared prefix ran, then
	// rounds that insert into both documents and coalesce duplicate replaces.
	bibRoot, _ := s.RootElem("bib.xml")
	insertBook := func() []*update.Primitive {
		return []*update.Primitive{{Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot,
			Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1999"),
				xmldoc.Elem("title", xmldoc.TextF(titlesPool[0])))}}
	}
	if err := faultinject.Arm("deepunion.apply", faultinject.ModeError, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := MaintainAll(set, insertBook(), 0, opts); err == nil {
		t.Fatal("armed deepunion.apply did not fail the round")
	}
	faultinject.Reset()
	for i := 0; i < 3; i++ {
		batch := insertBook()
		if i > 0 {
			batch = dupReplaceBatch(t, rng, s)
		}
		if _, err := maintain(batch); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}

	var window []obs.RoundSample
	for _, sm := range obs.Rounds.Snapshot() {
		if sm.Seq > seq {
			window = append(window, sm)
		}
	}
	if len(window) != 5 {
		t.Fatalf("ring holds %d new samples, want 5", len(window))
	}
	for i, f := range folded {
		var sum int64
		for _, sm := range window {
			sum += f.field(sm)
		}
		if got := counter(f.name, f.rule).Value() - before[i]; got != sum {
			t.Errorf("%s{rule=%q} moved by %d, its sample field sums to %d", f.name, f.rule, got, sum)
		}
	}
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestSharedDisjointFastPath pins the PR 4 disjoint fast path under
// sharing: when EVERY subscriber of a shared prefix is skipped, the prefix
// must not run at all — no view is seeded, the round sample reports zero
// shared groups, and both views keep their skip accounting. A shared prefix
// must never force work on behalf of skipped views alone.
func TestSharedDisjointFastPath(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	rng := rand.New(rand.NewSource(0xD15))
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", randomBib(rng, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("other.xml", "<other><item><name>x</name></item></other>"); err != nil {
		t.Fatal(err)
	}
	v1, err := NewView(s, `<result>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewView(s, `<result>{ for $b in doc("bib.xml")/bib/book return <u>{$b/title}</u> }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	views := []*View{v1, v2}
	set := mustSet(t, s, views)
	if len(set.dag.Groups) == 0 {
		t.Fatal("views share no prefix; test is vacuous")
	}
	opts := Options{Parallelism: 1}

	// The batch touches other.xml only: both subscribers skip, so the
	// shared prefix must not propagate.
	otherRoot, _ := s.RootElem("other.xml")
	prims := []*update.Primitive{{
		Kind: update.Insert, Doc: "other.xml", Parent: otherRoot,
		Frag: xmldoc.Elem("item", xmldoc.Elem("name", xmldoc.TextF("y"))),
	}}
	stats, err := MaintainAll(set, prims, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range stats {
		if ms.Skipped != 1 {
			t.Errorf("view %d not skipped: Skipped=%d", i, ms.Skipped)
		}
		if ms.SharedPrefixes != 0 {
			t.Errorf("view %d seeded with %d shared prefixes on an all-skipped round", i, ms.SharedPrefixes)
		}
	}
	last, ok := obs.Rounds.Last()
	if !ok {
		t.Fatal("no round sample recorded")
	}
	if last.SharedGroups != 0 || last.SharedFanout != 0 {
		t.Errorf("all-skipped round ran shared groups: groups=%d fanout=%d",
			last.SharedGroups, last.SharedFanout)
	}
	if last.Skipped != 2 {
		t.Errorf("round sample skipped=%d, want 2", last.Skipped)
	}

	// A touched round afterwards must seed both views and report the group.
	bibRoot, _ := s.RootElem("bib.xml")
	prims = []*update.Primitive{{
		Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot,
		Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1995"),
			xmldoc.Elem("title", xmldoc.TextF("Shared"))),
	}}
	want1, err := Recompute(s, v1.Query, deepClonePrims(prims))
	if err != nil {
		t.Fatal(err)
	}
	stats, err = MaintainAll(set, prims, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range stats {
		if ms.SharedPrefixes == 0 {
			t.Errorf("view %d got no shared seeds on a touched round", i)
		}
	}
	last, _ = obs.Rounds.Last()
	if last.SharedGroups == 0 || last.SharedFanout < 2 || last.SharedHits < 1 {
		t.Errorf("touched round sample: groups=%d fanout=%d hits=%d",
			last.SharedGroups, last.SharedFanout, last.SharedHits)
	}
	if got := v1.XML(); got != want1 {
		t.Errorf("seeded view diverged from recompute:\ngot:  %s\nwant: %s", got, want1)
	}
}

// TestSkippedRoundKeepsSharedTables pins the zero-live-subscribers rule: a
// round that touches a shared group's documents while every subscriber
// skips runs no shared propagation and leaves the group's partition as it
// is — its tables are sub-plans of plans the batch is independent of, so
// they still describe the store. Later rounds fold into those tables and
// must still match recomputation.
func TestSkippedRoundKeepsSharedTables(t *testing.T) {
	rng := rand.New(rand.NewSource(0x57A1E))
	s := xmldoc.NewStore()
	if _, err := s.Load("bib.xml", randomBib(rng, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("prices.xml", randomPrices(rng, 3)); err != nil {
		t.Fatal(err)
	}
	// Two join views sharing a join group over both documents, and a view
	// of the authors outside the group. An author insert is SAPT-irrelevant
	// to the join views (skip) but not to the authors view, so the round
	// carries a bib.xml region while the group has no live subscriber.
	queries := []string{
		`<result>{
			for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
			where $b/title = $e/b-title
			return <pair>{$b/title} {$e/price}</pair> }</result>`,
		`<result>{
			for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
			where $b/title = $e/b-title
			return <deal>{$e/price}</deal> }</result>`,
		`<result>{ for $a in doc("bib.xml")/bib/book/author return $a }</result>`,
	}
	views := make([]*View, len(queries))
	for i, q := range queries {
		v, err := NewView(s, q)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	set := mustSet(t, s, views)
	dag := set.dag
	if len(dag.Groups) == 0 {
		t.Fatal("join views share no group; test is vacuous")
	}
	opts := Options{Parallelism: 1}
	bibRoot, _ := s.RootElem("bib.xml")
	priRoot, _ := s.RootElem("prices.xml")

	step := func(name string, prims []*update.Primitive) []*MaintStats {
		t.Helper()
		wants, err := RecomputeAll(s, queries, deepClonePrims(prims))
		if err != nil {
			t.Fatalf("%s recompute: %v", name, err)
		}
		stats, err := MaintainAll(set, prims, 0, opts)
		if err != nil {
			t.Fatalf("%s maintain: %v", name, err)
		}
		for i, v := range views {
			if got := v.XML(); got != wants[i] {
				t.Fatalf("%s view %d diverged:\ngot:  %s\nwant: %s", name, i, got, wants[i])
			}
		}
		return stats
	}

	// Warm the shared cache with relevant rounds on either side of the
	// join, so the partition holds tables over both documents.
	step("warm-bib", []*update.Primitive{{
		Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot,
		Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1994"),
			xmldoc.Elem("title", xmldoc.TextF(titlesPool[1]))),
	}})
	step("warm-prices", []*update.Primitive{{
		Kind: update.Insert, Doc: "prices.xml", Parent: priRoot,
		Frag: xmldoc.Elem("entry", xmldoc.Elem("price", xmldoc.TextF("12.00")),
			xmldoc.Elem("b-title", xmldoc.TextF(titlesPool[1]))),
	}})
	partition := func() (entries, evictions int) {
		for _, g := range dag.Groups {
			st := g.Cache.Stats()
			entries += st.Entries
			evictions += st.Evictions
		}
		return entries, evictions
	}
	entries, evictions := partition()
	if entries == 0 {
		t.Fatal("the warm rounds cached no shared table; test is vacuous")
	}

	// An author insert under an existing book changes bib.xml without
	// affecting either join view.
	books := xmldoc.ChildElems(s, bibRoot, "book")
	stats := step("irrelevant-touch", []*update.Primitive{{
		Kind: update.Insert, Doc: "bib.xml", Parent: books[0],
		Frag: xmldoc.Elem("author", xmldoc.Elem("last", xmldoc.TextF("Stale"))),
	}})
	if stats[0].Skipped != 1 || stats[1].Skipped != 1 || stats[2].Skipped != 0 {
		t.Fatalf("skips on the author round: %d %d %d, want 1 1 0",
			stats[0].Skipped, stats[1].Skipped, stats[2].Skipped)
	}
	if e, ev := partition(); e != entries || ev != evictions {
		t.Fatalf("skipped round changed the shared partition: entries %d → %d, evictions %d → %d",
			entries, e, evictions, ev)
	}

	// Relevant rounds afterwards fold into the kept tables and must still
	// match recomputation.
	for r := 0; r < 3; r++ {
		step(fmt.Sprintf("post-%d", r), []*update.Primitive{{
			Kind: update.Insert, Doc: "bib.xml", Parent: bibRoot,
			Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1996"),
				xmldoc.Elem("title", xmldoc.TextF(titlesPool[(r+2)%len(titlesPool)]))),
		}})
	}
}
