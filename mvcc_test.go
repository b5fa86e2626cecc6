package xqview

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// MVCC linearizability battery: concurrent readers snapshotting while
// maintenance rounds commit must each observe exactly one published version
// — byte-identical to the state the writer recorded for that epoch, never a
// torn mix of pre- and post-round bytes. The workload is randomized per
// seed (inserts, deletes, qty replaces over a tracked item population) and
// the whole battery runs under check.sh's -race pass with arena poison on,
// so a published extent aliasing round-arena memory fails loudly here.

// mvccFingerprint renders everything a snapshot serves — epoch, documents,
// view extents — into one comparable string.
func mvccFingerprint(s *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d\n", s.Epoch())
	for _, d := range s.Documents() {
		xml, err := s.DocumentXML(d)
		if err != nil {
			fmt.Fprintf(&b, "doc %s ERR %v\n", d, err)
			continue
		}
		fmt.Fprintf(&b, "doc %s %s\n", d, xml)
	}
	for _, v := range s.Views() {
		xml, err := s.ViewXML(v)
		if err != nil {
			fmt.Fprintf(&b, "view %s ERR %v\n", v, err)
			continue
		}
		fmt.Fprintf(&b, "view %s %s\n", v, xml)
	}
	return b.String()
}

// mvccWorkload generates one randomized round script over the tracked item
// population: an insert of a fresh id, a delete of a live one, or a qty
// replace — always matching by construction, so every round publishes.
type mvccWorkload struct {
	rng    *rand.Rand
	nextID int
	live   []int
}

func newMvccWorkload(seed int64) *mvccWorkload {
	return &mvccWorkload{rng: rand.New(rand.NewSource(seed)), nextID: 4, live: []int{1, 2, 3}}
}

func (w *mvccWorkload) next() string {
	op := w.rng.Intn(3)
	if len(w.live) <= 1 {
		op = 0 // population floor: keep at least one item for delete/replace
	}
	switch op {
	case 0: // insert a fresh item
		id := w.nextID
		w.nextID++
		w.live = append(w.live, id)
		return fmt.Sprintf(`for $i in document("inv.xml")/inv update $i
insert <item id="%d"><qty>%d</qty></item> into $i`, id, w.rng.Intn(90)+1)
	case 1: // delete a live item
		k := w.rng.Intn(len(w.live))
		id := w.live[k]
		w.live = append(w.live[:k], w.live[k+1:]...)
		return fmt.Sprintf(`for $i in document("inv.xml")/inv/item where $i/@id = "%d" update $i
delete $i`, id)
	default: // replace a live item's qty
		id := w.live[w.rng.Intn(len(w.live))]
		return fmt.Sprintf(`for $i in document("inv.xml")/inv/item where $i/@id = "%d" update $i
replace $i/qty/text() with "%d"`, id, w.rng.Intn(90)+1)
	}
}

// mvccObs is one reader observation: which epoch it acquired and what bytes
// that snapshot served.
type mvccObs struct {
	epoch uint64
	fp    string
}

// TestSnapshotLinearizability runs the randomized differential battery:
// per seed, K reader goroutines snapshot continuously while the writer
// applies rounds; every observation must byte-match the canonical
// fingerprint the writer recorded for that epoch, and re-reading within one
// snapshot must be stable even after later rounds committed.
func TestSnapshotLinearizability(t *testing.T) {
	const (
		readers = 3
		rounds  = 20
	)
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := NewDatabase()
			if err := db.LoadDocument("inv.xml",
				`<inv><item id="1"><qty>5</qty></item><item id="2"><qty>7</qty></item><item id="3"><qty>2</qty></item></inv>`); err != nil {
				t.Fatal(err)
			}
			if _, err := db.CreateView(`<qtys>{ for $i in doc("inv.xml")/inv/item return $i/qty }</qtys>`); err != nil {
				t.Fatal(err)
			}
			if _, err := db.CreateView(`<ids>{ for $i in doc("inv.xml")/inv/item return <i v="{$i/@id}"/> }</ids>`); err != nil {
				t.Fatal(err)
			}

			// Canonical state per epoch. Only the writer goroutine writes it,
			// always after the epoch it describes was published; readers never
			// touch it — they verify against it after the join.
			canonical := map[uint64]string{}
			record := func() {
				snap := db.Snapshot()
				canonical[snap.Epoch()] = mvccFingerprint(snap)
				snap.Release()
			}
			record() // the pre-round state readers may legally observe

			var (
				stop sync.WaitGroup // readers run until the writer closes done
				done = make(chan struct{})
				obs  = make([][]mvccObs, readers)
			)
			for r := 0; r < readers; r++ {
				stop.Add(1)
				go func(r int) {
					defer stop.Done()
					for {
						snap := db.Snapshot()
						fp := mvccFingerprint(snap)
						if again := mvccFingerprint(snap); again != fp {
							// A snapshot's bytes changed underneath the reader.
							obs[r] = append(obs[r], mvccObs{snap.Epoch(), "UNSTABLE:\n" + fp + "---\n" + again})
							snap.Release()
							return
						}
						obs[r] = append(obs[r], mvccObs{snap.Epoch(), fp})
						snap.Release()
						select {
						case <-done:
							return
						default:
						}
					}
				}(r)
			}

			w := newMvccWorkload(seed)
			for i := 0; i < rounds; i++ {
				if _, err := db.ApplyUpdates(w.next()); err != nil {
					close(done)
					stop.Wait()
					t.Fatalf("round %d: %v", i, err)
				}
				record()
			}
			close(done)
			stop.Wait()

			total := 0
			for r := 0; r < readers; r++ {
				for _, o := range obs[r] {
					total++
					want, ok := canonical[o.epoch]
					if !ok {
						t.Fatalf("reader %d observed epoch %d the writer never published", r, o.epoch)
					}
					if o.fp != want {
						t.Fatalf("reader %d tore epoch %d:\ngot:\n%s\nwant:\n%s", r, o.epoch, o.fp, want)
					}
				}
			}
			if total < readers {
				t.Fatalf("only %d observations from %d readers", total, readers)
			}
		})
	}
}

// TestFrameBodySharedAcrossVersions pins the read path's memo: a frame's
// extent is serialized by its first reader, every later reader of that
// version gets the same bytes, a successor version whose round (or rename)
// left the extent alone serves them too, and any change of the extent
// serves a fresh body equal to evaluating the view's query on the snapshot.
func TestFrameBodySharedAcrossVersions(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("inv.xml", `<inv><item id="1"><qty>5</qty></item><item id="2"><qty>7</qty></item></inv>`); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDocument("log.xml", `<log><e>boot</e></log>`); err != nil {
		t.Fatal(err)
	}
	qtys, err := db.CreateView(`<qtys>{ for $i in doc("inv.xml")/inv/item return $i/qty }</qtys>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView(`<es>{ for $e in doc("log.xml")/log/e return $e }</es>`); err != nil {
		t.Fatal(err)
	}
	name := qtys.Name()
	// read serves the view from a fresh snapshot and checks it against the
	// view's own query evaluated on that snapshot.
	read := func() string {
		t.Helper()
		snap := db.Snapshot()
		defer snap.Release()
		got, err := snap.ViewXML(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := snap.Query(qtys.Query())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("epoch %d: ViewXML = %s, Query = %s", snap.Epoch(), got, want)
		}
		return got
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	apply := func(script string, wantSkipped bool) {
		t.Helper()
		reports, err := db.ApplyUpdates(script)
		if err != nil {
			t.Fatal(err)
		}
		if reports[0].Skipped != wantSkipped {
			t.Fatalf("qtys skipped = %v, want %v", reports[0].Skipped, wantSkipped)
		}
	}

	first := read()
	if again := read(); !same(first, again) {
		t.Fatal("two reads of one epoch serialized the extent twice")
	}
	apply(`for $l in document("log.xml")/log update $l insert <e>tick</e> into $l`, true)
	if skipped := read(); !same(first, skipped) {
		t.Fatal("a round that skipped the view re-serialized its extent")
	}
	apply(`for $i in document("inv.xml")/inv/item where $i/@id = "1" update $i replace $i/qty/text() with "6"`, false)
	touched := read()
	if touched == first || same(touched, first) {
		t.Fatalf("a round that changed the view still serves %s", touched)
	}
	if err := qtys.Recompute(); err != nil {
		t.Fatal(err)
	}
	recomputed := read()
	if recomputed != touched || same(recomputed, touched) {
		t.Fatal("Recompute must serve an equal body serialized from the new extent")
	}
	qtys.SetName("renamed")
	name = "renamed"
	if renamed := read(); !same(renamed, recomputed) {
		t.Fatal("SetName re-serialized an unchanged extent")
	}

	// Readers racing the first read of a fresh epoch all end up with the one
	// body the frame kept, and reading it again allocates nothing.
	apply(`for $i in document("inv.xml")/inv update $i insert <item id="3"><qty>1</qty></item> into $i`, false)
	snap := db.Snapshot()
	defer snap.Release()
	const racers = 8
	bodies := make([]string, racers)
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bodies[r], _ = snap.ViewXML(name)
		}(r)
	}
	wg.Wait()
	kept := read()
	for r, b := range bodies {
		if !same(b, kept) {
			t.Fatalf("racer %d got its own body %q, frame kept %q", r, b, kept)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = snap.ViewXML(name) }); allocs != 0 {
		t.Fatalf("ViewXML on a served snapshot allocates %v times per call", allocs)
	}
}

// TestFrameOnlyPublishSharesStore pins which paths capture the store: view
// creation, renaming and recomputation publish new frames over the store
// snapshot already published (no O(store) clone, same answers), a document
// load captures the store anew.
func TestFrameOnlyPublishSharesStore(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadDocument("inv.xml", `<inv><item id="1"><qty>5</qty></item></inv>`); err != nil {
		t.Fatal(err)
	}
	before := db.Snapshot()
	defer before.Release()
	const q = `doc("inv.xml")/inv/item/qty`
	check := func(step string, wantShared bool) {
		t.Helper()
		after := db.Snapshot()
		defer after.Release()
		if after.Epoch() <= before.Epoch() {
			t.Fatalf("%s published nothing", step)
		}
		if shared := after.v.Store == before.v.Store; shared != wantShared {
			t.Fatalf("%s: store snapshot shared = %v, want %v", step, shared, wantShared)
		}
		for _, read := range []func(*Snapshot) (string, error){
			func(s *Snapshot) (string, error) { return s.Query(q) },
			func(s *Snapshot) (string, error) { return s.DocumentXML("inv.xml") },
		} {
			want, err := read(before)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := read(after); err != nil || got != want {
				t.Fatalf("%s: snapshot answers %q (%v), previous one %q", step, got, err, want)
			}
		}
	}
	v, err := db.CreateView(`<qtys>{ for $i in doc("inv.xml")/inv/item return $i/qty }</qtys>`)
	if err != nil {
		t.Fatal(err)
	}
	check("CreateView", true)
	v.SetName("q")
	check("SetName", true)
	if err := v.Recompute(); err != nil {
		t.Fatal(err)
	}
	check("Recompute", true)
	if err := db.LoadDocument("other.xml", `<o/>`); err != nil {
		t.Fatal(err)
	}
	check("LoadDocument", false)
}
