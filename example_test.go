package xqview_test

import (
	"fmt"
	"log"

	"xqview"
	"xqview/internal/xmark"
)

// counts renders a maintenance report's counters: what the round did,
// without the timings that differ from run to run.
func counts(r *xqview.MaintenanceReport) string {
	return fmt.Sprintf("updates=%d irrelevant=%d deltas=%d merged=%d inserted=%d removed=%d modified=%d",
		r.UpdatesTotal, r.UpdatesIrrelevant, r.DeltaTrees, r.NodesMerged,
		r.NodesInserted, r.FragmentsRemoved, r.ValuesModified)
}

// Define a materialized XQuery view, update a source document, and watch the
// view refresh incrementally.
func Example_quickstart() {
	db := xqview.NewDatabase()
	if err := db.LoadDocument("catalog.xml", `
<catalog>
  <product dept="tools"><name>Hammer</name><price>9.50</price></product>
  <product dept="tools"><name>Saw</name><price>14.00</price></product>
  <product dept="garden"><name>Rake</name><price>7.25</price></product>
</catalog>`); err != nil {
		log.Fatal(err)
	}

	// A view listing tool names, ordered by name.
	view, err := db.CreateView(`
<tools>{
  for $p in doc("catalog.xml")/catalog/product
  where $p/@dept = "tools"
  order by $p/name
  return <tool>{$p/name/text()}</tool>
}</tools>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("initial view:", view.XML())

	// Insert a product and delete another; the view is refreshed by
	// propagating just these two updates — not by re-running the query.
	report, err := view.ApplyUpdates(`
for $c in document("catalog.xml")/catalog
update $c
insert <product dept="tools"><name>Chisel</name><price>5.00</price></product> into $c

for $p in document("catalog.xml")/catalog/product
where $p/name = "Saw"
update $p
delete $p`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after updates:", view.XML())
	fmt.Println("maintenance:", counts(report))
	// Output:
	// initial view: <tools><tool>Hammer</tool><tool>Saw</tool></tools>
	// after updates: <tools><tool>Chisel</tool><tool>Hammer</tool></tools>
	// maintenance: updates=2 irrelevant=0 deltas=2 merged=4 inserted=1 removed=1 modified=0
}

// The dissertation's running example end to end: the two source documents of
// Fig 1.1, the grouping/join view of Fig 1.2(a) and the three heterogeneous
// updates of Fig 1.3, maintained incrementally into the extent of Fig 1.4.
func Example_bibprices() {
	const bibXML = `
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
  </book>
</bib>`
	const pricesXML = `
<prices>
  <entry><price>39.95</price><b-title>Data on the Web</b-title></entry>
  <entry><price>65.95</price><b-title>TCP/IP Illustrated</b-title></entry>
  <entry><price>69.99</price><b-title>Advanced programming in the Unix environment</b-title></entry>
</prices>`
	// The view of Fig 1.2(a): books grouped by year, joined with their prices.
	const viewQuery = `
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
	// The three updates of Fig 1.3: an insert, a delete and a value replace
	// — a heterogeneous batch over both documents.
	const updates = `
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
	db := xqview.NewDatabase()
	if err := db.LoadDocument("bib.xml", bibXML); err != nil {
		log.Fatal(err)
	}
	if err := db.LoadDocument("prices.xml", pricesXML); err != nil {
		log.Fatal(err)
	}
	view, err := db.CreateView(viewQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Fig 1.2(b):", view.XML())

	report, err := view.ApplyUpdates(updates)
	if err != nil {
		log.Fatal(err)
	}
	// In the refreshed extent the 2000 group vanished as a whole fragment
	// (its only book died), the new 1994 entry appeared in source-document
	// order, and the price 65.95 was replaced by 70 in place.
	fmt.Println("Fig 1.4:", view.XML())
	fmt.Println("maintenance:", counts(report))
	// Output:
	// Fig 1.2(b): <result><yGroup Y="1994"><books><entry><title>TCP/IP Illustrated</title><price>65.95</price></entry></books></yGroup><yGroup Y="2000"><books><entry><title>Data on the Web</title><price>39.95</price></entry></books></yGroup></result>
	// Fig 1.4: <result><yGroup Y="1994"><books><entry><title>TCP/IP Illustrated</title><price>70</price></entry><entry><title>Advanced programming in the Unix environment</title><price>69.99</price></entry></books></yGroup></result>
	// maintenance: updates=3 irrelevant=0 deltas=7 merged=49 inserted=1 removed=1 modified=1
}

// The incremental-fusion use case of Ch 4.1: source data arrives as a stream
// of units (sensor readings appended to a log document), and each unit is
// propagated into a running aggregate view whose constructed nodes are fused
// by semantic identifier — the view is never recomputed.
func Example_streaming() {
	db := xqview.NewDatabase()
	if err := db.LoadDocument("log.xml", `<log></log>`); err != nil {
		log.Fatal(err)
	}

	// Readings grouped by sensor.
	view, err := db.CreateView(`
<summary>{
  for $s in distinct-values(doc("log.xml")/log/reading/@sensor)
  order by $s
  return <sensor id="{$s}">{
    for $r in doc("log.xml")/log/reading
    where $s = $r/@sensor
    return <v>{$r/value/text()}</v>
  }</sensor>
}</summary>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("empty view:", view.XML())

	// Stream units arrive one at a time; each is a single insert that the
	// VPA pipeline fuses into the extent.
	units := []struct{ sensor, value string }{
		{"a", "10"}, {"b", "20"}, {"a", "15"}, {"c", "5"}, {"b", "25"}, {"a", "12"},
	}
	for i, u := range units {
		rep, err := view.ApplyUpdates(fmt.Sprintf(`
for $l in document("log.xml")/log
update $l
insert <reading sensor=%q><value>%s</value></reading> into $l`, u.sensor, u.value))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("unit %d (%s=%s, %d deltas): %s\n", i+1, u.sensor, u.value, rep.DeltaTrees, view.XML())
	}

	// Late corrections also stream in: replace a value in place.
	if _, err := view.ApplyUpdates(`
for $r in document("log.xml")/log/reading
where $r/@sensor = "c"
update $r
replace $r/value/text() with "7"`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after correction:", view.XML())
	// Output:
	// empty view: <summary/>
	// unit 1 (a=10, 1 deltas): <summary><sensor id="a"><v>10</v></sensor></summary>
	// unit 2 (b=20, 1 deltas): <summary><sensor id="a"><v>10</v></sensor><sensor id="b"><v>20</v></sensor></summary>
	// unit 3 (a=15, 3 deltas): <summary><sensor id="a"><v>10</v><v>15</v></sensor><sensor id="b"><v>20</v></sensor></summary>
	// unit 4 (c=5, 1 deltas): <summary><sensor id="a"><v>10</v><v>15</v></sensor><sensor id="b"><v>20</v></sensor><sensor id="c"><v>5</v></sensor></summary>
	// unit 5 (b=25, 3 deltas): <summary><sensor id="a"><v>10</v><v>15</v></sensor><sensor id="b"><v>20</v><v>25</v></sensor><sensor id="c"><v>5</v></sensor></summary>
	// unit 6 (a=12, 4 deltas): <summary><sensor id="a"><v>10</v><v>15</v><v>12</v></sensor><sensor id="b"><v>20</v><v>25</v></sensor><sensor id="c"><v>5</v></sensor></summary>
	// after correction: <summary><sensor id="a"><v>10</v><v>15</v><v>12</v></sensor><sensor id="b"><v>20</v><v>25</v></sensor><sensor id="c"><v>7</v></sensor></summary>
}

// Content-management style views over an XMark-like auction site (the
// dissertation's experimental workload, Fig 3.5): a per-city directory of
// members and a seller-activity report, kept fresh as persons register and
// leave and as auctions close. Database-level maintenance refreshes both
// views from one batch.
func Example_auctions() {
	db := xqview.NewDatabase()
	site := xmark.Site(xmark.SiteConfig{Persons: 12, ClosedAuctions: 8, OpenAuctions: 4, Seed: 3})
	if err := db.LoadDocument("site.xml", site.String()); err != nil {
		log.Fatal(err)
	}

	// View 1: members grouped by city (nested grouping with query order).
	directory, err := db.CreateView(`
<directory>{
  for $c in distinct-values(doc("site.xml")/site/people/person/address/city)
  order by $c
  return <city name="{$c}">{
    for $p in doc("site.xml")/site/people/person
    where $c = $p/address/city
    return <member>{$p/name/text()}</member>
  }</city>
}</directory>`)
	if err != nil {
		log.Fatal(err)
	}

	// View 2: closed-auction dates per seller (a join view).
	activity, err := db.CreateView(`
<activity>{
  for $p in doc("site.xml")/site/people/person,
      $a in doc("site.xml")/site/closed_auctions/closed_auction
  where $p/@id = $a/seller/@person
  return <sale seller="{$p/name}">{$a/date}</sale>
}</activity>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("directory:", directory.XML())
	fmt.Println("activity:", activity.XML())

	// A new person registers in Worcester and an auction closes. The
	// updates are validated once against the union of the views' access
	// patterns and propagated through each view's maintenance plan.
	reports, err := db.ApplyUpdates(`
for $people in document("site.xml")/site/people
update $people
insert <person id="person999"><name>Grace Hopper</name><address><street>1 Elm</street><city>Worcester</city><country>United States</country></address><profile><gender>female</gender><business>Yes</business></profile></person> into $people

for $ca in document("site.xml")/site/closed_auctions
update $ca
insert <closed_auction><seller person="person999"/><buyer person="person0"/><date>01/02/2006</date></closed_auction> into $ca
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("directory after registration:", directory.XML())
	fmt.Println("directory maintenance:", counts(reports[0]))
	fmt.Println("activity after the new sale:", activity.XML())
	fmt.Println("activity maintenance:", counts(reports[1]))

	// A person leaves; again both views refresh incrementally.
	if _, err := db.ApplyUpdates(`
for $p in document("site.xml")/site/people/person
where $p/@id = "person0"
update $p
delete $p`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("activity after person0 left:", activity.XML())
	// Output:
	// directory: <directory><city name="Boston"><member>Ling Wang</member><member>Bin Shanmugasundaram</member><member>Bin ElSayed</member></city><city name="Kyoto"><member>Bin Rundensteiner</member></city><city name="Lagos"><member>Ling Rundensteiner</member></city><city name="Lisbon"><member>Jayavel Ruiz</member><member>Maged Shanmugasundaram</member></city><city name="Tampa"><member>Song Zhang</member><member>Xin Rundensteiner</member></city><city name="Worcester"><member>Ling Rundensteiner</member><member>Song Zhang</member><member>Jayavel ElSayed</member></city></directory>
	// activity: <activity><sale seller="Ling Rundensteiner"><date>01/08/2003</date></sale><sale seller="Song Zhang"><date>05/14/1998</date></sale><sale seller="Song Zhang"><date>12/03/2001</date></sale><sale seller="Song Zhang"><date>04/08/1999</date></sale><sale seller="Bin Rundensteiner"><date>03/16/1999</date></sale><sale seller="Ling Rundensteiner"><date>03/28/2001</date></sale><sale seller="Ling Rundensteiner"><date>02/24/2003</date></sale><sale seller="Jayavel Ruiz"><date>09/21/2004</date></sale></activity>
	// directory after registration: <directory><city name="Boston"><member>Ling Wang</member><member>Bin Shanmugasundaram</member><member>Bin ElSayed</member></city><city name="Kyoto"><member>Bin Rundensteiner</member></city><city name="Lagos"><member>Ling Rundensteiner</member></city><city name="Lisbon"><member>Jayavel Ruiz</member><member>Maged Shanmugasundaram</member></city><city name="Tampa"><member>Song Zhang</member><member>Xin Rundensteiner</member></city><city name="Worcester"><member>Ling Rundensteiner</member><member>Song Zhang</member><member>Jayavel ElSayed</member><member>Grace Hopper</member></city></directory>
	// directory maintenance: updates=2 irrelevant=0 deltas=5 merged=18 inserted=1 removed=0 modified=0
	// activity after the new sale: <activity><sale seller="Ling Rundensteiner"><date>01/08/2003</date></sale><sale seller="Song Zhang"><date>05/14/1998</date></sale><sale seller="Song Zhang"><date>12/03/2001</date></sale><sale seller="Song Zhang"><date>04/08/1999</date></sale><sale seller="Bin Rundensteiner"><date>03/16/1999</date></sale><sale seller="Ling Rundensteiner"><date>03/28/2001</date></sale><sale seller="Ling Rundensteiner"><date>02/24/2003</date></sale><sale seller="Jayavel Ruiz"><date>09/21/2004</date></sale><sale seller="Grace Hopper"><date>01/02/2006</date></sale></activity>
	// activity maintenance: updates=2 irrelevant=0 deltas=1 merged=1 inserted=1 removed=0 modified=0
	// activity after person0 left: <activity><sale seller="Song Zhang"><date>05/14/1998</date></sale><sale seller="Song Zhang"><date>12/03/2001</date></sale><sale seller="Song Zhang"><date>04/08/1999</date></sale><sale seller="Bin Rundensteiner"><date>03/16/1999</date></sale><sale seller="Ling Rundensteiner"><date>03/28/2001</date></sale><sale seller="Ling Rundensteiner"><date>02/24/2003</date></sale><sale seller="Jayavel Ruiz"><date>09/21/2004</date></sale><sale seller="Grace Hopper"><date>01/02/2006</date></sale></activity>
}
