package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// TestSnapRegLifecycle pins the registry's contract on one goroutine: an
// empty registry acquires nil, a held handle keeps serving its version after
// a publish swaps it out, and the reader count follows Acquire and Release.
func TestSnapRegLifecycle(t *testing.T) {
	reg := NewSnapReg()
	if reg.Acquire() != nil {
		t.Fatal("empty registry handed out a version")
	}
	if reg.Epoch() != 0 || reg.readers.Load() != 0 {
		t.Fatalf("empty registry epoch/readers = %d/%d", reg.Epoch(), reg.readers.Load())
	}
	s := xmldoc.NewStore()
	if _, err := s.Load("a.xml", "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	reg.PublishLive(s, nil)
	v1 := reg.Acquire()
	if v1 == nil || v1.Seq != 1 {
		t.Fatalf("acquire after publish = %+v", v1)
	}
	reg.PublishLive(s, nil)
	if reg.Epoch() != 2 {
		t.Fatalf("epoch after second publish = %d", reg.Epoch())
	}
	if n := reg.readers.Load(); n != 1 {
		t.Fatalf("readers with v1 held = %d, want 1", n)
	}
	// The held handle still serves version-1 bytes after the swap.
	if _, ok := v1.Store.Root("a.xml"); !ok {
		t.Fatal("held version lost its store")
	}
	v1.Release()
	if n := reg.readers.Load(); n != 0 {
		t.Fatalf("readers after release = %d, want 0", n)
	}
	// Releasing the only handle must not unpublish the current version.
	v2 := reg.Acquire()
	if v2 == nil || v2.Seq != 2 {
		t.Fatalf("current version gone after release: %+v", v2)
	}
	v2.Release()
}

// TestDroppedHandleDoesNotPin checks that version lifetime belongs to the
// collector alone: a handle dropped without Release, once a later publish
// has swapped its version out, leaves nothing pointing at the version, so
// its finalizer runs. The reader count stays one too high — the only trace
// a leaked handle leaves.
func TestDroppedHandleDoesNotPin(t *testing.T) {
	reg := NewSnapReg()
	s := xmldoc.NewStore()
	if _, err := s.Load("a.xml", "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	reg.PublishLive(s, nil)
	var freed atomic.Bool
	func() {
		h := reg.Acquire()
		runtime.SetFinalizer(h, func(*Version) { freed.Store(true) })
	}() // the handle goes out of scope unreleased
	reg.PublishLive(s, nil)

	deadline := time.Now().Add(5 * time.Second)
	for !freed.Load() && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("a dropped, swapped-out version was never collected")
	}
	if n := reg.readers.Load(); n != 1 {
		t.Fatalf("readers after a dropped handle = %d, want 1", n)
	}
}

// TestSnapshotEpochReclamation is the leak battery: a thousand maintenance
// rounds with reader goroutines churning acquire/release the whole time.
// Once the readers stop, the reader count must be back at zero and the heap
// must come back down — a registry that silently retained version chains
// would hold every round's delta alive and fail the final delta check.
// Every round's serialized frame body is tracked with a finalizer: once the
// readers have let go, only the published version's may still be reachable.
func TestSnapshotEpochReclamation(t *testing.T) {
	const (
		rounds  = 1000
		readers = 4
	)
	s := xmldoc.NewStore()
	if _, err := s.Load("inv.xml",
		`<inv><item><qty>1</qty></item><item><qty>2</qty></item></inv>`); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, `<qtys>{ for $i in doc("inv.xml")/inv/item return $i/qty }</qtys>`)
	if err != nil {
		t.Fatal(err)
	}
	views := []*View{v}
	reg := NewSnapReg()
	reg.PublishLive(s, views)
	opt := Options{Snapshots: reg}
	set := mustSet(t, s, views)

	var (
		done  atomic.Bool
		wg    sync.WaitGroup
		reads atomic.Int64
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				h := reg.Acquire()
				if len(h.Frames) > 0 {
					_ = h.Frames[0].XML()
				}
				h.Release()
				reads.Add(1)
			}
		}()
	}

	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// bodies counts the distinct frame bodies the writer saw filled, freed
	// the ones the collector has since reclaimed. Each round rewrites every
	// qty, so each version has a body of its own.
	var bodies, freed atomic.Int64
	var lastBody *string
	trackBody := func() {
		h := reg.Acquire()
		defer h.Release()
		_ = h.Frames[0].XML()
		if p := h.Frames[0].body.Load(); p != lastBody {
			lastBody = p
			bodies.Add(1)
			runtime.SetFinalizer(p, func(*string) { freed.Add(1) })
		}
	}

	for i := 0; i < rounds; i++ {
		prims, err := update.ParseAndEvaluate(s, fmt.Sprintf(`
for $i in document("inv.xml")/inv/item update $i
replace $i/qty/text() with "%d"`, i%97))
		if err != nil {
			done.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		if _, err := MaintainAll(set, prims, 0, opt); err != nil {
			done.Store(true)
			wg.Wait()
			t.Fatalf("round %d: %v", i, err)
		}
		trackBody()
	}
	done.Store(true)
	wg.Wait()
	lastBody = nil

	if n := reg.readers.Load(); n != 0 {
		t.Fatalf("readers after all readers drained = %d, want 0", n)
	}
	if reg.Epoch() != rounds+1 {
		t.Fatalf("epoch = %d, want %d (full publish + one per round)", reg.Epoch(), rounds+1)
	}
	if reads.Load() < readers {
		t.Fatalf("reader churn never ran: %d reads", reads.Load())
	}

	// Finalizers run on their own goroutine after a collection finds the
	// object unreachable: collect until all but the live body are gone.
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < bodies.Load()-1 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if b, f := bodies.Load(), freed.Load(); b < rounds || f < b-1 {
		t.Fatalf("%d frame bodies filled over %d rounds, %d reclaimed after drain; want all but the published one", b, rounds, f)
	}

	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// The store is tiny; a thousand drained rounds must not accumulate heap.
	// A leaked version chain retains every round's delta overlay and store
	// frames, which clears this allowance within a few hundred rounds.
	const heapAllowance = 4 << 20
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > heapAllowance {
		t.Fatalf("heap grew %d bytes across %d drained rounds (allowance %d)", growth, rounds, heapAllowance)
	}
}
