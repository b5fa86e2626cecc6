package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"xqview/internal/xmark"
	"xqview/internal/xmldoc"
)

// View queries owned by the benchmark (copies of the dissertation's Ch 9
// Query 1 / Query 2 and of the shared-join family), so a later change to the
// figure harness cannot move these numbers.
const (
	// queryQ1 is Ch 9 "Query 1": flat construction over one source.
	queryQ1 = `<result>{
	for $b in doc("bib.xml")/bib/book
	return <item>{$b/title}</item>
}</result>`

	// queryQ2 is Ch 9 "Query 2": distinct-values + join + order-by.
	queryQ2 = `<result>{
	for $y in distinct-values(doc("bib.xml")/bib/book/@year)
	order by $y
	return <yGroup Y="{$y}"><books>{
		for $b in doc("bib.xml")/bib/book,
		    $e in doc("prices.xml")/prices/entry
		where $y = $b/@year and $b/title = $e/b-title
		return <entry>{$b/title} {$e/price}</entry>
	}</books></yGroup>
}</result>`

	// queryAdhoc is the ad-hoc read of the mixed read load: a selective FLWOR
	// over bib.xml (one of eight publication years).
	queryAdhoc = `<hits>{
	for $b in doc("bib.xml")/bib/book
	where $b/@year = "1993"
	return $b/title
}</hits>`
)

// joinView is member i of the shared-prefix family: every member computes the
// same bib⋈prices title join and differs only in its private tagger suffix.
func joinView(i int) string {
	return fmt.Sprintf(`<result>{
	for $b in doc("bib.xml")/bib/book,
	    $e in doc("prices.xml")/prices/entry
	where $b/title = $e/b-title
	return <r%d>{$b/title} {$e/price}</r%d>
}</result>`, i, i)
}

// peopleView is member i of the flat family over site.xml.
func peopleView(i int) string {
	return fmt.Sprintf(`<result>{
	for $p in doc("site.xml")/site/people/person
	return <p%d>{$p/name}</p%d>
}</result>`, i, i)
}

// opKind labels a generated script for the per-kind latency split.
type opKind uint8

const (
	opInsert opKind = iota
	opReplace
	opDelete
	opBulk
	opViewRead
	opQueryRead
)

// op is one generated writer operation.
type op struct {
	script string
	kind   opKind
}

// doc is one generated source document.
type doc struct{ name, xml string }

// workload describes one traffic mix. Sizes are constants: the only inputs
// that vary between runs are the seed and the measured duration.
type workload struct {
	name string
	why  string

	books   int // bib.xml / prices.xml size
	persons int // site.xml size; 0 = no site document
	views   []string
	warm    int // warm-up rounds, part of set-up

	// rate is the nominal round rate. A run measures rate × seconds rounds:
	// a fixed amount of work, sized so the window lasts about --seconds on
	// the 2-core reference box. State that grows with the round count (live
	// heap, overlay chains) is thereby compared at equal counts, however
	// fast the code under test is; a time cap only guards a stalled run.
	rate float64

	// paced makes the writer open-loop at rate, beside an open-loop reader
	// issuing readsPerRound reads per round. Otherwise the writer is
	// closed-loop and alone, and an idle closed-loop read phase follows,
	// taking readShare of the measured seconds.
	paced         bool
	readsPerRound int
	readShare     float64

	// readView indexes the view the reader serializes.
	readView int

	gen func(rng *rand.Rand, w *workload) func(i int) op
}

// freshTitles is the size of the pool of titles inserted books cycle
// through. Every pool title has a prices.xml entry, so an inserted book joins;
// every inserted book is deleted two rounds later, so the pool never wraps
// onto a live book.
const freshTitles = 64

func freshTitle(n int) string { return fmt.Sprintf("Fresh-%d", n%freshTitles) }

var workloads = []*workload{
	{
		name:  "feed-small",
		why:   "Ch 9 steady state: single-statement insert/replace/delete rounds over Q2+Q1; propagation and state cache dominate, no concurrent reads",
		books: 1000, views: []string{queryQ2, queryQ1}, warm: 30,
		rate: 180, readShare: 0.2, readView: 1, gen: genFeedSmall,
	},
	{
		name:  "feed-bulk",
		why:   "same database, 64-statement scripts: parse+target evaluation, compaction, validate and per-primitive refresh dominate, propagation is minor",
		books: 1000, views: []string{queryQ2, queryQ1}, warm: 10,
		rate: 16, readShare: 0.2, readView: 1, gen: genFeedBulk,
	},
	{
		name:  "fanout",
		why:   "48 shared-join views + 8 flat site views; every round skips one family and fans out over the other: orchestration, sharing, skip filter, 56-frame publish",
		books: 500, persons: 300, views: fanoutViews(), warm: 48,
		rate: 640, readShare: 0.2, readView: 0, gen: genFanout,
	},
	{
		name:  "serve-mixed",
		why:   "feed-small database; open-loop writer at 25 rounds/s (price ticks, some book churn) beside an open-loop reader at 100 reads/s (4:1 view:query): frame serialization and snapshot queries dominate",
		books: 1000, views: []string{queryQ2, queryQ1}, warm: 30,
		rate: 25, paced: true, readsPerRound: 4, readView: 1, gen: genTicks,
	},
}

func fanoutViews() []string {
	var vs []string
	for i := 0; i < 48; i++ {
		vs = append(vs, joinView(i))
	}
	for i := 0; i < 8; i++ {
		vs = append(vs, peopleView(i))
	}
	return vs
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// idleReadRate is the nominal rate of the idle read phase, reads per second.
const idleReadRate = 500

// limit is the fixed amount of work one window measures.
type limit struct {
	rounds int           // writer rounds
	reads  int           // idle reads after the write part (closed-loop workloads)
	cap    time.Duration // time cap on each part, for a stalled run
}

// plan sizes a window of the given nominal length.
func (w *workload) plan(seconds int) limit {
	s := float64(seconds)
	lim := limit{cap: time.Duration(2*seconds) * time.Second}
	if w.paced {
		lim.rounds = int(w.rate * s)
	} else {
		lim.rounds = int(w.rate * s * (1 - w.readShare))
		lim.reads = int(idleReadRate * s * w.readShare)
	}
	return lim
}

// documents generates the workload's source documents from the seed. The
// engine only ever sees these XML strings.
func (w *workload) documents(seed int64) []doc {
	cfg := xmark.BibConfig{Books: w.books, Years: 8, Selectivity: 1, Seed: seed}
	prices := xmark.Prices(cfg)
	rng := rand.New(rand.NewSource(seed + 2))
	for n := 0; n < freshTitles; n++ {
		prices.Children = append(prices.Children, xmldoc.Elem("entry",
			xmldoc.Elem("price", xmldoc.TextF(price(rng))),
			xmldoc.Elem("b-title", xmldoc.TextF(freshTitle(n)))))
	}
	docs := []doc{
		{"bib.xml", xmark.Bib(cfg).String()},
		{"prices.xml", prices.String()},
	}
	if w.persons > 0 {
		site := xmark.Site(xmark.SiteConfig{Persons: w.persons,
			ClosedAuctions: w.persons / 2, OpenAuctions: w.persons / 2, Seed: seed})
		docs = append(docs, doc{"site.xml", site.String()})
	}
	return docs
}

// generator returns the workload's script generator for a seed; calling it
// with 0, 1, 2, … yields the run's scripts in order.
func (w *workload) generator(seed int64) func(i int) op {
	return w.gen(rand.New(rand.NewSource(seed+3)), w)
}

func price(rng *rand.Rand) string {
	return fmt.Sprintf("%d.%02d", 10+rng.Intn(90), rng.Intn(100))
}

func year(rng *rand.Rand) int { return 1990 + rng.Intn(8) }

func insertBook(title string, yr int) string {
	return fmt.Sprintf(`for $r in document("bib.xml")/bib update $r insert <book year="%d"><title>%s</title><author><last>Bench</last><first>Mark</first></author></book> into $r`, yr, title)
}

func deleteBook(title string) string {
	return fmt.Sprintf(`for $b in document("bib.xml")/bib/book where $b/title = "%s" update $b delete $b`, title)
}

func replacePrice(title, value string) string {
	return fmt.Sprintf(`for $e in document("prices.xml")/prices/entry where $e/b-title = "%s" update $e replace $e/price/text() with "%s"`, title, value)
}

func replaceAuthor(title, last string) string {
	return fmt.Sprintf(`for $b in document("bib.xml")/bib/book where $b/title = "%s" update $b replace $b/author/last/text() with "%s"`, title, last)
}

// entryCycle returns the title of the n-th book (or price entry) a generator
// touches: a walk over all of them from a seeded start. Which nodes were
// written last decides which copy-on-write slabs stay reachable, so a walk
// whose shape is the same for every seed keeps live_heap_mb comparable
// between seeds; the seed still picks the start, the values and the documents.
func entryCycle(rng *rand.Rand, books, stride int) func(n int) string {
	start := rng.Intn(books)
	return func(n int) string { return fmt.Sprintf("Title-%d", (start+n*stride)%books) }
}

// genFeedSmall cycles insert book / replace one price / delete the book
// inserted two rounds earlier.
func genFeedSmall(rng *rand.Rand, w *workload) func(int) op {
	entry := entryCycle(rng, w.books, 37)
	return func(i int) op {
		switch i % 3 {
		case 0:
			return op{insertBook(freshTitle(i/3), year(rng)), opInsert}
		case 1:
			return op{replacePrice(entry(i/3), price(rng)), opReplace}
		default:
			return op{deleteBook(freshTitle(i / 3)), opDelete}
		}
	}
}

// genTicks is a price feed with occasional book churn: of every ten rounds
// eight replace one price, one inserts a book and one deletes the book
// inserted five rounds earlier. Four rounds in five cost the same, so the
// median round under concurrent reads sits inside one mode and holds still;
// the inserts and deletes keep extents, frames and retired versions turning
// over and show in the tail.
func genTicks(rng *rand.Rand, w *workload) func(int) op {
	entry := entryCycle(rng, w.books, 37)
	return func(i int) op {
		switch i % 10 {
		case 0:
			return op{insertBook(freshTitle(i/10), year(rng)), opInsert}
		case 5:
			return op{deleteBook(freshTitle(i / 10)), opDelete}
		default:
			return op{replacePrice(entry(i), price(rng)), opReplace}
		}
	}
}

// genFeedBulk emits one 64-statement script per round: 32 price replaces
// over 28 entries (4 entries written twice, so compaction coalesces them),
// 8 book inserts, 8 deletes of the books inserted two rounds earlier, and 16
// author replaces that no view reads. Insert+delete pairs that annihilate
// inside one batch cannot be written in the update language (every statement
// is evaluated against the pre-round store), so they are not part of the mix.
func genFeedBulk(rng *rand.Rand, w *workload) func(int) op {
	entry, authored := entryCycle(rng, w.books, 37), entryCycle(rng, w.books, 41)
	return func(r int) op {
		var b strings.Builder
		stmt := func(s string) { b.WriteString(s); b.WriteByte('\n') }
		for j := 0; j < 28; j++ {
			stmt(replacePrice(entry(r*28+j), price(rng)))
		}
		for j := 0; j < 8; j++ {
			stmt(insertBook(freshTitle(r*8+j), year(rng)))
		}
		for j := 0; j < 4; j++ {
			stmt(replacePrice(entry(r*28+j), price(rng)))
		}
		if r >= 2 {
			for j := 0; j < 8; j++ {
				stmt(deleteBook(freshTitle((r-2)*8 + j)))
			}
		}
		for j := 0; j < 16; j++ {
			stmt(replaceAuthor(authored(r*16+j), fmt.Sprintf("L%d", rng.Intn(1000))))
		}
		return op{b.String(), opBulk}
	}
}

// genFanout alternates a bib insert/delete with a site person insert/delete,
// so every round is disjoint from one view family and hits all of the other.
func genFanout(rng *rand.Rand, w *workload) func(int) op {
	return func(i int) op {
		n := i / 4
		person := fmt.Sprintf("bench%d", n%freshTitles)
		switch i % 4 {
		case 0:
			return op{insertBook(freshTitle(n), year(rng)), opInsert}
		case 1:
			return op{fmt.Sprintf(`for $r in document("site.xml")/site/people update $r insert <person id="%s"><name>Bench Mark %d</name><address><city>Worcester</city></address></person> into $r`, person, rng.Intn(1000)), opInsert}
		case 2:
			return op{deleteBook(freshTitle(n)), opDelete}
		default:
			return op{fmt.Sprintf(`for $p in document("site.xml")/site/people/person where $p/@id = "%s" update $p delete $p`, person), opDelete}
		}
	}
}
