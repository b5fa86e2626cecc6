package xqview

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xqview/internal/core"
	"xqview/internal/journal"
	"xqview/internal/obs"
)

const bibXML = `
<bib>
  <book year="1994"><title>TCP/IP Illustrated</title></book>
  <book year="2000"><title>Data on the Web</title></book>
</bib>`

func TestQuickstartFlow(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	v, err := db.CreateView(`<result>{ for $b in doc("bib.xml")/bib/book return $b/title }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	want := `<result><title>TCP/IP Illustrated</title><title>Data on the Web</title></result>`
	if got := v.XML(); got != want {
		t.Fatalf("initial: %s", got)
	}
	rep, err := v.ApplyUpdates(`
for $b in document("bib.xml")/bib/book
where $b/title = "Data on the Web"
update $b
delete $b`)
	if err != nil {
		t.Fatal(err)
	}
	want = `<result><title>TCP/IP Illustrated</title></result>`
	if got := v.XML(); got != want {
		t.Fatalf("after delete: %s", got)
	}
	if rep.UpdatesTotal != 1 || rep.FragmentsRemoved == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "updates=1") {
		t.Fatalf("report string: %s", rep)
	}
	// Source refreshed too.
	doc, err := db.DocumentXML("bib.xml")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(doc, "Data on the Web") {
		t.Fatalf("source not refreshed: %s", doc)
	}
}

func TestOneShotQuery(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(`<years>{ for $y in distinct-values(doc("bib.xml")/bib/book/@year) order by $y return <y v="{$y}"/> }</years>`)
	if err != nil {
		t.Fatal(err)
	}
	if got != `<years><y v="1994"/><y v="2000"/></years>` {
		t.Fatalf("got %s", got)
	}
}

func TestDocumentsAndErrors(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("a.xml", "<a/>"); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDocument("a.xml", "<a/>"); err == nil {
		t.Fatal("double load should fail")
	}
	if _, err := db.DocumentXML("missing"); err == nil {
		t.Fatal("missing doc should fail")
	}
	if got := db.Documents(); len(got) != 1 || got[0] != "a.xml" {
		t.Fatalf("documents: %v", got)
	}
	if _, err := db.CreateView("not a query"); err == nil {
		t.Fatal("bad query should fail")
	}
	if _, err := db.Query(`<r>{ for $x in doc("missing")/a return $x }</r>`); err == nil {
		t.Fatal("query over missing doc should fail")
	}
}

func TestViewIntrospection(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	v, err := db.CreateView(`<r>{ for $b in doc("bib.xml")/bib/book where $b/@year = "1994" return $b/title }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.PlanString(), "Select") {
		t.Fatalf("plan: %s", v.PlanString())
	}
	if !strings.Contains(v.SAPTString(), "@year") {
		t.Fatalf("sapt: %s", v.SAPTString())
	}
	if v.Query() == "" {
		t.Fatal("query lost")
	}
	if err := v.Recompute(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfMaintainableAPI(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	simple, err := db.CreateView(`<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if !simple.SelfMaintainable() {
		t.Fatal("path view should be self-maintainable")
	}
	if err := db.LoadDocument("prices.xml", `<prices><entry><b-title>TCP/IP Illustrated</b-title></entry></prices>`); err != nil {
		t.Fatal(err)
	}
	join, err := db.CreateView(`<r>{
		for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
		where $b/title = $e/b-title
		return <p>{$b/title}</p> }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if join.SelfMaintainable() {
		t.Fatal("join view should not be self-maintainable")
	}
}

func TestDatabaseMaintainsAllViews(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	v1, err := db.CreateView(`<titles>{ for $b in doc("bib.xml")/bib/book return $b/title }</titles>`)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := db.CreateView(`<years>{ for $y in distinct-values(doc("bib.xml")/bib/book/@year) order by $y return <y v="{$y}"/> }</years>`)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := db.ApplyUpdates(`
for $b in document("bib.xml")/bib
update $b
insert <book year="2010"><title>New Book</title></book> into $b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports: %d", len(reports))
	}
	if got := v1.XML(); !strings.Contains(got, "New Book") {
		t.Fatalf("v1 stale: %s", got)
	}
	if got := v2.XML(); !strings.Contains(got, `v="2010"`) {
		t.Fatalf("v2 stale: %s", got)
	}
}

func TestXMLIndent(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	v, err := db.CreateView(`<r>{ for $b in doc("bib.xml")/bib/book return <i>{$b/title}</i> }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	got := v.XMLIndent()
	if !strings.Contains(got, "\n  <i>\n") {
		t.Fatalf("not indented:\n%s", got)
	}
	// Indented form must re-parse to the same content.
	flat, err := db.Query(v.Query())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(strings.Fields(strings.ReplaceAll(got, ">", "> ")), "") !=
		strings.Join(strings.Fields(strings.ReplaceAll(flat, ">", "> ")), "") {
		t.Fatalf("indent changed content:\n%s\nvs\n%s", got, flat)
	}
}

func TestConcurrentReadsDuringUpdates(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	v, err := db.CreateView(`<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			script := `for $b in document("bib.xml")/bib
update $b
insert <book year="2020"><title>C` + string(rune('a'+i%26)) + `</title></book> into $b`
			if _, err := db.ApplyUpdates(script); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			if got := v.XML(); !strings.Contains(got, "<title>") {
				t.Fatalf("final view: %s", got)
			}
			return
		default:
			_ = v.XML()
			_, _ = db.DocumentXML("bib.xml")
		}
	}
}

// TestZeroOptionsIsProduction pins that there is one maintenance path and
// the zero value selects it: a fresh NewDatabase with no setter called shows,
// in the round telemetry of a few ApplyUpdates calls over a shared-join
// family, a private join and one disjoint view, state-cache hits, shared-prefix hits, a
// relevance skip, arena traffic and a compacted batch. The reflect check
// keeps core.Options free of behaviour switches.
func TestZeroOptionsIsProduction(t *testing.T) {
	for ot, i := reflect.TypeFor[core.Options](), 0; i < ot.NumField(); i++ {
		if f := ot.Field(i); f.Type.Kind() == reflect.Bool {
			t.Errorf("core.Options.%s is a bool: maintenance has one path, add no switch", f.Name)
		}
	}

	defer obs.SetEnabled(obs.SetEnabled(true))
	obs.Rounds.Reset()
	defer obs.Rounds.Reset()
	db := NewDatabase()
	docs := map[string]string{
		"bib.xml": bibXML,
		"prices.xml": `<prices>
			<entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
			<entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
		</prices>`,
		"other.xml": `<other><item><name>x</name></item></other>`,
	}
	for name, xml := range docs {
		if err := db.LoadDocument(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	for _, tag := range []string{"pair", "deal", "offer"} {
		if _, err := db.CreateView(fmt.Sprintf(`<result>{
			for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
			where $b/title = $e/b-title
			return <%s>{$b/title} {$e/price}</%s> }</result>`, tag, tag)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		// A join of its own beside the family: its base tables are private
		// state-cache entries, where the family's live in the shared partition.
		`<result>{
			for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
			where $b/title = $e/b-title and $b/@year = "2000"
			return <recent>{$e/price}</recent> }</result>`,
		// Disjoint from every update below.
		`<result>{ for $i in doc("other.xml")/other/item return $i/name }</result>`,
	} {
		if _, err := db.CreateView(q); err != nil {
			t.Fatal(err)
		}
	}
	replace := func(price string) string {
		return `
for $e in document("prices.xml")/prices/entry
where $e/b-title = "Data on the Web"
update $e
replace $e/price/text() with "` + price + `"`
	}
	for _, script := range []string{
		replace("41.00"),
		replace("42.00") + replace("43.00"), // the second write wins before validation
		replace("44.00"),
	} {
		if _, err := db.ApplyUpdates(script); err != nil {
			t.Fatal(err)
		}
	}

	var sum obs.RoundSample
	compacted := false
	for _, r := range obs.Rounds.Snapshot() {
		sum.CacheHits += r.CacheHits
		sum.SharedHits += r.SharedHits
		sum.Skipped += r.Skipped
		sum.ArenaBytes += r.ArenaBytes
		compacted = compacted || r.PrimsOut < r.PrimsIn
	}
	if sum.CacheHits == 0 || sum.SharedHits == 0 || sum.Skipped == 0 || sum.ArenaBytes == 0 || !compacted {
		t.Fatalf("default database is not on the production path: cache hits %d, shared hits %d, skipped views %d, arena bytes %d, compacted %v",
			sum.CacheHits, sum.SharedHits, sum.Skipped, sum.ArenaBytes, compacted)
	}
}

// A script is evaluated before its round and the round's telemetry says how
// long that took: eval_ns in the round sample, outside total_ns, and a
// ParseEvaluate span on the round's track, ahead of MaintainAll. A script
// whose statements collide (here: a book deleted twice) is rejected by the
// evaluation — no round starts, so there is no sample, no journal record
// and nothing to roll back — and the database takes the next script as if
// the rejected one had never been sent.
func TestScriptEvaluationPrecedesRound(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	defer journal.SetEnabled(journal.SetEnabled(true))
	obs.Rounds.Reset()
	defer obs.Rounds.Reset()
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", bibXML); err != nil {
		t.Fatal(err)
	}
	v, err := db.CreateView(`<result>{ for $b in doc("bib.xml")/bib/book return $b/title }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	db.SetTracer(tr)
	del := `for $b in document("bib.xml")/bib/book where $b/title = "Data on the Web" update $b delete $b` + "\n"

	before, rounds := v.XML(), journal.Default.Len()
	_, err = db.ApplyUpdates(del + del)
	if err == nil || !strings.Contains(err.Error(), "statement 2 (offset "+fmt.Sprint(len(del))+") deletes") ||
		!strings.Contains(err.Error(), "statement 1 (offset 0) already deletes") {
		t.Fatalf("double delete: error %v", err)
	}
	if obs.Rounds.Total() != 0 || journal.Default.Len() != rounds || tr.Len() != 0 || v.XML() != before {
		t.Fatalf("rejected script left a trace: %d samples, %d journal rounds (was %d), %d trace events, extent %s",
			obs.Rounds.Total(), journal.Default.Len(), rounds, tr.Len(), v.XML())
	}

	reps, err := db.ApplyUpdates(del)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.XML(), `<result><title>TCP/IP Illustrated</title></result>`; got != want {
		t.Fatalf("after delete: %s", got)
	}
	sm, _ := obs.Rounds.Last()
	if sm.EvalNS <= 0 || sm.TotalNS != reps[0].Total.Nanoseconds() {
		t.Fatalf("sample eval_ns %d total_ns %d, report total %d", sm.EvalNS, sm.TotalNS, reps[0].Total.Nanoseconds())
	}
	var names []string
	tids := map[int64]bool{}
	for _, ev := range tr.Events() {
		if ev.Ph == "X" && (ev.Name == "ParseEvaluate" || ev.Name == "MaintainAll") {
			names = append(names, ev.Name)
			tids[ev.TID] = true
		}
	}
	if !reflect.DeepEqual(names, []string{"ParseEvaluate", "MaintainAll"}) || len(tids) != 1 {
		t.Fatalf("trace has %v on %d tracks, want ParseEvaluate then MaintainAll on one", names, len(tids))
	}
}

// An update no view reads still reaches the store: with only a price view
// registered, an author replace is irrelevant to every view — it does not
// propagate — yet the published documents, an ad-hoc query and a view
// created afterwards all see it.
func TestIrrelevantUpdateReachesStore(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", `<bib>
		<book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last></author></book>
		<book year="2000"><title>Data on the Web</title><author><last>Abiteboul</last></author></book>
	</bib>`); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDocument("prices.xml", `<prices><entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry></prices>`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView(`<result>{ for $e in doc("prices.xml")/prices/entry return <p>{$e/price}</p> }</result>`); err != nil {
		t.Fatal(err)
	}
	reps, err := db.ApplyUpdates(`for $b in document("bib.xml")/bib/book where $b/title = "Data on the Web" update $b replace $b/author/last/text() with "Suciu"`)
	if err != nil {
		t.Fatal(err)
	}
	if r := reps[0]; r.UpdatesIrrelevant != 1 || !r.Skipped {
		t.Fatalf("the author replace should be irrelevant to the price view: %s", r)
	}

	snap := db.Snapshot()
	defer snap.Release()
	if doc, err := snap.DocumentXML("bib.xml"); err != nil || !strings.Contains(doc, "<last>Suciu</last>") {
		t.Fatalf("DocumentXML misses the replace (err %v): %s", err, doc)
	}
	if got, err := snap.Query(`<r>{ for $b in doc("bib.xml")/bib/book return $b/author/last }</r>`); err != nil ||
		got != `<r><last>Stevens</last><last>Suciu</last></r>` {
		t.Fatalf("Query misses the replace (err %v): %s", err, got)
	}
	v, err := db.CreateView(`<result>{ for $b in doc("bib.xml")/bib/book return $b/author/last }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.XML(); got != `<result><last>Stevens</last><last>Suciu</last></result>` {
		t.Fatalf("a view created afterwards misses the replace: %s", got)
	}
}

// TestRewriteKeepsItsPlace: one script rewrites a book a join view reads
// (a title replace becomes a delete and re-insert of the book) and inserts
// a book after it. The rewritten book keeps its place and the new one
// follows it, in the stored document and in a view listing the titles,
// exactly as applying the two statements in turn would order them.
func TestRewriteKeepsItsPlace(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", `<bib><book year="1994"><title>A</title></book><book year="2000"><title>B</title></book></bib>`); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDocument("prices.xml", `<prices><entry><price>10</price><b-title>A</b-title></entry></prices>`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView(`<result>{
		for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
		where $b/title = $e/b-title
		return <pair>{$b/title} {$e/price}</pair> }</result>`); err != nil {
		t.Fatal(err)
	}
	titles, err := db.CreateView(`<result>{ for $b in doc("bib.xml")/bib/book return $b/title }</result>`)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := db.ApplyUpdates(`
for $b in document("bib.xml")/bib/book[1]
update $b
replace $b/title/text() with "A2"

for $b in document("bib.xml")/bib/book[1]
update $b
insert <book year="1999"><title>X</title></book> after $b`)
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].UpdatesRewritten != 1 {
		t.Fatalf("the title replace should be rewritten: %s", reps[0])
	}
	doc, err := db.DocumentXML("bib.xml")
	if err != nil {
		t.Fatal(err)
	}
	if want := `<bib><book year="1994"><title>A2</title></book><book year="1999"><title>X</title></book><book year="2000"><title>B</title></book></bib>`; doc != want {
		t.Fatalf("document:\n got %s\nwant %s", doc, want)
	}
	if got, want := titles.XML(), `<result><title>A2</title><title>X</title><title>B</title></result>`; got != want {
		t.Fatalf("titles view:\n got %s\nwant %s", got, want)
	}
}

// TestFailedLoadPublishesNothing loads a duplicate name and malformed XML:
// each load fails, and neither publishes a version.
func TestFailedLoadPublishesNothing(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", `<bib><book><title>A</title></book></bib>`); err != nil {
		t.Fatal(err)
	}
	epoch := func() uint64 {
		snap := db.Snapshot()
		defer snap.Release()
		return snap.Epoch()
	}
	before := epoch()
	for _, c := range []struct{ name, src string }{
		{"bib.xml", `<bib/>`},             // already loaded
		{"prices.xml", `<prices><entry>`}, // malformed
	} {
		if err := db.LoadDocument(c.name, c.src); err == nil {
			t.Fatalf("loading %s %q succeeded", c.name, c.src)
		}
		if got := epoch(); got != before {
			t.Fatalf("failed load of %s published epoch %d over %d", c.name, got, before)
		}
	}
	if docs := db.Documents(); len(docs) != 1 {
		t.Fatalf("documents after failed loads: %v", docs)
	}
}

// TestLoadAfterWarmRoundKeepsSharedAnswers runs a round between two views
// that share a join over bib.xml and prices.xml, so the shared partition
// holds the prices side, then loads a document and runs a round whose
// insert joins. Each view must read as a fresh query of its text, and the
// load must keep the shared group and its cached tables: the round after it
// is still served by one shared join, from tables the warm round cached.
func TestLoadAfterWarmRoundKeepsSharedAnswers(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	obs.Rounds.Reset()
	defer obs.Rounds.Reset()
	db := NewDatabase()
	if err := db.LoadDocument("bib.xml", `<bib><book><title>A</title></book></bib>`); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDocument("prices.xml", `<prices>`+
		`<entry><b-title>A</b-title><price>1</price></entry>`+
		`<entry><b-title>C</b-title><price>3</price></entry></prices>`); err != nil {
		t.Fatal(err)
	}
	const join = `for $b in doc("bib.xml")/bib/book, $e in doc("prices.xml")/prices/entry
	where $b/title = $e/b-title`
	queries := []string{
		`<result>{ ` + join + ` return <pair>{$b/title} {$e/price}</pair> }</result>`,
		`<result>{ ` + join + ` return <deal>{$e/price}</deal> }</result>`,
	}
	var views []*View
	for _, q := range queries {
		v, err := db.CreateView(q)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	insert := func(title string) string {
		return `for $x in document("bib.xml")/bib update $x insert <book><title>` + title + `</title></book> into $x`
	}
	round := func(name, script string) obs.RoundSample {
		t.Helper()
		if _, err := db.ApplyUpdates(script); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, v := range views {
			want, err := db.Query(queries[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := v.XML(); got != want {
				t.Fatalf("%s: view %d\n%s\nquery\n%s", name, i, got, want)
			}
		}
		s, _ := obs.Rounds.Last()
		if s.SharedGroups != 1 || s.SharedHits != 1 {
			t.Fatalf("%s: shared groups %d, hits %d; want one group serving both views", name, s.SharedGroups, s.SharedHits)
		}
		return s
	}
	round("warm", insert("B"))
	if err := db.LoadDocument("reviews.xml", `<reviews><review><b-title>C</b-title></review></reviews>`); err != nil {
		t.Fatal(err)
	}
	if s := round("after-load", insert("C")); s.CacheHits == 0 {
		t.Fatalf("after-load: no cache hit; the load emptied the caches (misses %d)", s.CacheMisses)
	}
	if got := views[0].XML(); !strings.Contains(got, "<price>3</price>") {
		t.Fatalf("the joining insert found no price: %s", got)
	}
}
