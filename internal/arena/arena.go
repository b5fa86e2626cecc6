// Package arena implements round-scoped bump allocation for the delta
// engine. A Pool hands out values and slices carved from one retained
// chunk; Reset rewinds it, so a warm maintenance round performs no heap
// allocation for tuple construction at all.
//
// Everything allocated from a pool dies together when the round that
// allocated it commits or rolls back. Data that must outlive the round
// (state-cache entries, materialized extents) is deep-copied out at the
// transaction boundary by its owner.
//
// A pool sizes itself. A request that does not fit the current chunk sets
// it aside for the rest of the round and starts one of max(2×current,
// request) elements; Reset keeps only that newest chunk. A chunk starts only
// after the round has used more than the one before it, so a pool retains
// less than twice its largest round, and rounds of steady size soon stop
// allocating.
//
// Reset zeroes every element the round handed out, so retained memory pins
// no garbage and Make keeps make()'s zero-value contract. In poison mode
// (default under -race, see poison.go) Reset drops the current chunk too,
// so a pointer that escaped the round reads zero values, not the next
// round's data.
package arena

// Pool is a typed bump allocator; the zero value is ready to use. It is not
// safe for concurrent use: each view owns its pools, and only the worker
// maintaining the view touches them during a round.
type Pool[T any] struct {
	cur   []T   // the chunk being carved, kept across Reset
	n     int   // elements of cur handed out this round
	spent [][]T // used prefixes of the chunks this round outgrew
}

// Make returns a zeroed slice of length n and capacity at least c, like
// make([]T, n, c). Appending past that capacity moves to the heap — safe,
// because the bump pointer has already advanced past the reservation.
func (p *Pool[T]) Make(n, c int) []T {
	c = max(c, n)
	if c == 0 {
		return nil
	}
	if len(p.cur)-p.n < c {
		if p.n > 0 {
			p.spent = append(p.spent, p.cur[:p.n])
		}
		p.cur, p.n = make([]T, max(2*len(p.cur), c)), 0
	}
	s := p.cur[p.n : p.n+n : p.n+c]
	p.n += c
	return s
}

// Get returns a pointer to a zeroed T carved from the current chunk.
func (p *Pool[T]) Get() *T { return &p.Make(1, 1)[0] }

// Reset rewinds the pool for reuse by the next round: it zeroes what the
// round handed out, drops the chunks the round outgrew and, with poison
// set, the current chunk as well.
func (p *Pool[T]) Reset(poison bool) {
	clear(p.cur[:p.n])
	for _, s := range p.spent {
		clear(s)
	}
	clear(p.spent)
	p.spent = p.spent[:0]
	if poison {
		p.cur = nil
	}
	p.n = 0
}

// Retained reports how many elements the pool keeps across Reset.
func (p *Pool[T]) Retained() int { return len(p.cur) }

// Footprint reports the round's use of the pool so far: the elements handed
// out since the last Reset, reserved capacity included, and the chunks they
// were carved from. Sampled just before Reset, it prices a round.
func (p *Pool[T]) Footprint() (elems, chunks int) {
	for _, s := range p.spent {
		elems += len(s)
	}
	if p.n > 0 {
		chunks = 1
	}
	return elems + p.n, chunks + len(p.spent)
}
