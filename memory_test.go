package xqview

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
)

// liveHeap returns the live heap after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestHeapTracksLiveData runs a stationary churn over a 100-book document:
// every round inserts 16 notes across the books and deletes the 16 inserted
// four rounds earlier, so the documents hold the same number of nodes after
// every round. The one view reads prices.xml, which the churn never
// touches, so what the heap holds for the churn is the store's: its live
// heap after 400 rounds must stay within 1.2× of its live heap after 100.
func TestHeapTracksLiveData(t *testing.T) {
	var bib strings.Builder
	bib.WriteString("<bib>")
	for i := 1; i <= 100; i++ {
		fmt.Fprintf(&bib, `<book year="%d"><title>T%d</title><author>A%d</author></book>`, 1990+i%30, i, i)
	}
	bib.WriteString("</bib>")
	db := NewDatabase()
	for name, src := range map[string]string{"bib.xml": bib.String(), "prices.xml": valuePricesXML} {
		if err := db.LoadDocument(name, src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateView(`<p>{ for $e in doc("prices.xml")/prices/entry return $e/price }</p>`); err != nil {
		t.Fatal(err)
	}
	const notes = 16
	var readings []uint64
	for round := 0; round < 400; round++ {
		var script strings.Builder
		for i := 0; i < notes; i++ {
			k := round*notes + i
			fmt.Fprintf(&script, `for $b in document("bib.xml")/bib/book[%d] update $b insert <note><t>N%d</t><a>1</a><b>2</b><c>3</c></note> into $b
`, k%97+1, k)
			if round >= 4 {
				fmt.Fprintf(&script, `for $n in document("bib.xml")/bib/book/note where $n/t = "N%d" update $n delete $n
`, k-4*notes)
			}
		}
		if _, err := db.ApplyUpdates(script.String()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 99 || round == 399 {
			readings = append(readings, liveHeap())
		}
	}
	runtime.KeepAlive(db)
	if got, err := db.Query(`count(doc("bib.xml")//note)`); err != nil || got != "64" {
		t.Fatalf("notes held = %s (%v), want 64", got, err)
	}
	t.Logf("live heap %d → %d bytes", readings[0], readings[1])
	if float64(readings[1]) > 1.2*float64(readings[0]) {
		t.Fatalf("live heap grew %.2f× from round 100 to round 400 (%d → %d bytes)",
			float64(readings[1])/float64(readings[0]), readings[0], readings[1])
	}
}
