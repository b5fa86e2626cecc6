package arena

import "testing"

func TestMakeZeroedAndDisjoint(t *testing.T) {
	var p Pool[int]
	a := p.Make(3, 3)
	b := p.Make(2, 4)
	for i := range a {
		if a[i] != 0 {
			t.Fatalf("a[%d] = %d, want 0", i, a[i])
		}
	}
	a[0], a[1], a[2] = 1, 2, 3
	b[0], b[1] = 9, 9
	if a[0] != 1 || a[2] != 3 {
		t.Fatalf("overlapping allocations: a = %v", a)
	}
	// b was reserved with capacity 4; appends within that capacity must not
	// touch later allocations.
	c := p.Make(1, 1)
	b = append(b, 8, 8)
	if c[0] != 0 {
		t.Fatalf("append into reserved cap clobbered later allocation: c[0] = %d", c[0])
	}
}

func TestMakeCapOverflowFallsBack(t *testing.T) {
	var p Pool[byte]
	s := p.Make(0, 4)
	for i := 0; i < 100; i++ {
		s = append(s, byte(i)) // overflows the reservation, moves to heap
	}
	if len(s) != 100 || s[99] != 99 {
		t.Fatalf("heap fallback lost data: len=%d", len(s))
	}
}

// TestOutgrownChunkGrows pins the sizing rule: a request that does not fit
// starts a chunk of max(2×current, request), Reset keeps only that chunk,
// and the next identical round fits in it without allocating.
func TestOutgrownChunkGrows(t *testing.T) {
	if Poisoning() {
		t.Skip("poison mode drops the chunk at Reset, so rounds re-allocate by design")
	}
	var p Pool[int]
	round := func() {
		p.Make(4, 4)
		p.Make(3, 3)   // outgrows the 4-chunk: 2×4 = 8
		p.Make(20, 20) // outgrows the 8-chunk: the request, 20
		p.Reset(false)
	}
	p.Make(4, 4)
	if got := p.Retained(); got != 4 {
		t.Fatalf("first chunk holds %d elements, want the request's 4", got)
	}
	p.Reset(false)
	round()
	if got := p.Retained(); got != 20 {
		t.Fatalf("retained %d elements after the outgrowing round, want 20", got)
	}
	round() // 4+3 fit in the 20-chunk; 20 more grow it to 40
	if got := p.Retained(); got != 40 {
		t.Fatalf("retained %d elements, want 40", got)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round that fits its chunk allocates: %.1f allocs/run", allocs)
	}
	if got := p.Retained(); got != 40 {
		t.Fatalf("identical rounds changed the chunk: %d elements, want 40", got)
	}
}

// TestRetainedBelowTwiceLargestRound checks the bound the sizing rule
// promises over rounds of varying shape: whatever a pool keeps across Reset
// is less than twice the largest round's Footprint.
func TestRetainedBelowTwiceLargestRound(t *testing.T) {
	var p Pool[int]
	largest := 0
	for r := 0; r < 200; r++ {
		for i := 0; i < r%17; i++ {
			p.Make(i%5, (r*7+i*13)%41)
		}
		elems, _ := p.Footprint()
		largest = max(largest, elems)
		p.Reset(false)
		if got := p.Retained(); got > 0 && got >= 2*largest {
			t.Fatalf("round %d: retained %d elements, largest round used %d", r, got, largest)
		}
	}
}

func TestFootprintCountsThisRound(t *testing.T) {
	var p Pool[int]
	p.Make(2, 4)
	p.Reset(false) // keeps the 4-chunk
	if e, c := p.Footprint(); e != 0 || c != 0 {
		t.Fatalf("Footprint after Reset = %d elems, %d chunks; want 0, 0", e, c)
	}
	p.Make(1, 3)
	p.Make(2, 2) // outgrows the 4-chunk after 3 elements
	p.Make(1, 1)
	if e, c := p.Footprint(); e != 6 || c != 2 {
		t.Fatalf("Footprint = %d elems, %d chunks; want 6 handed out from 2 chunks", e, c)
	}
}

func TestResetZeroesAndReuses(t *testing.T) {
	var p Pool[*int]
	v := 7
	first := p.Make(4, 4)
	for i := range first {
		first[i] = &v
	}
	second := p.Make(2, 2) // outgrows the first chunk
	second[0] = &v
	p.Reset(false)
	for i := range first {
		if first[i] != nil {
			t.Fatalf("Reset left pointer at %d of the outgrown chunk", i)
		}
	}
	if second[0] != nil {
		t.Fatalf("Reset left pointer in the kept chunk")
	}
	reused := p.Make(4, 4)
	if &reused[0] != &second[0] {
		t.Fatalf("Reset did not rewind to the start of the newest chunk")
	}
	for i := range reused {
		if reused[i] != nil {
			t.Fatalf("reused memory not zeroed at %d", i)
		}
	}
}

func TestResetPoisonDropsChunks(t *testing.T) {
	var p Pool[int]
	s := p.Make(4, 4)
	s[0] = 42
	grown := p.Make(8, 8) // outgrows s's chunk
	grown[7] = 43
	p.Reset(true)
	if s[0] != 0 {
		t.Fatalf("poison Reset left stale value %d in the outgrown chunk", s[0])
	}
	if grown[7] != 0 {
		t.Fatalf("poison Reset left stale value %d in the current chunk", grown[7])
	}
	if p.Retained() != 0 {
		t.Fatalf("poison Reset retained %d elements", p.Retained())
	}
	// The pool must still be usable after poisoning, on fresh memory.
	s2 := p.Make(2, 2)
	if len(s2) != 2 || &s2[0] == &grown[0] {
		t.Fatalf("pool unusable after poison Reset, or reused the dropped chunk")
	}
}

func TestGet(t *testing.T) {
	var p Pool[struct{ a, b int }]
	x := p.Get()
	y := p.Get()
	if x == y {
		t.Fatalf("Get returned the same address twice")
	}
	x.a = 1
	if y.a != 0 {
		t.Fatalf("Get allocations overlap")
	}
}

func TestSetPoisonRoundTrip(t *testing.T) {
	prev := SetPoison(true)
	defer SetPoison(prev)
	if !Poisoning() {
		t.Fatalf("SetPoison(true) not visible")
	}
}

func TestZeroAllocSteadyState(t *testing.T) {
	var p Pool[int]
	warm := func() {
		for i := 0; i < 10; i++ {
			s := p.Make(8, 16)
			s[0] = i
		}
		p.Reset(false)
	}
	warm() // allocate chunks
	allocs := testing.AllocsPerRun(100, warm)
	if allocs != 0 {
		t.Fatalf("steady-state Make/Reset allocates: %.1f allocs/run", allocs)
	}
}
