// Package arena implements round-scoped bump allocation for the delta
// engine. A Pool hands out values and slices carved from large retained
// chunks; Reset rewinds the pool wholesale so a steady-state maintenance
// round performs no heap allocation for tuple construction at all.
//
// The safety contract is lifetime-based, not reference-counted: everything
// allocated from a pool dies together when the round that allocated it
// commits or rolls back. Data that must outlive the round (state-cache
// entries, materialized extents) is deep-copied out at the transaction
// boundary by its owner — the pool has no way to exempt individual values.
//
// Reset always zeroes the used prefix of each retained chunk, for two
// reasons: retained chunks must not pin garbage from previous rounds, and
// callers of Make rely on Go's make() zero-value contract. In poison mode
// (default under -race, see poison.go) Reset additionally drops the chunks
// themselves, so any pointer that escaped the round dangles into zeroed,
// unreachable memory and use-after-release shows up as deterministic
// zero-value reads in tests instead of silent aliasing.
package arena

// DefaultChunk is the per-chunk element count used when a Pool's ChunkSize
// is left zero. Chunks are element-counted, not byte-counted, so pools of
// large element types simply retain fewer, larger chunks.
const DefaultChunk = 1024

// Pool is a typed bump allocator. The zero value is ready to use.
// A Pool is not safe for concurrent use; the engine keeps one bundle of
// pools per view, for the view's lifetime, and only the worker maintaining
// the view touches it during a round.
type Pool[T any] struct {
	// ChunkSize overrides DefaultChunk when > 0. Requests larger than the
	// chunk size are served from dedicated "big" allocations that are
	// dropped (not retained) on Reset.
	ChunkSize int

	chunks [][]T // retained chunks, each of length chunkSize
	ci     int   // index of the chunk currently being filled
	n      int   // elements used in chunks[ci]
	big    [][]T // oversized one-off allocations for this round
}

func (p *Pool[T]) size() int {
	if p.ChunkSize > 0 {
		return p.ChunkSize
	}
	return DefaultChunk
}

// Make returns a slice of length n and capacity at least c, carved from the
// current chunk. The returned slice is zeroed, like make([]T, n, c).
// Appending beyond the returned capacity falls back to the ordinary heap —
// safe, because the bump pointer has already advanced past the reservation.
func (p *Pool[T]) Make(n, c int) []T {
	if c < n {
		c = n
	}
	if c == 0 {
		return nil
	}
	cs := p.size()
	if c > cs {
		s := make([]T, n, c)
		p.big = append(p.big, s[:0:c])
		return s
	}
	if len(p.chunks) == 0 {
		p.chunks = append(p.chunks, make([]T, cs))
	}
	if cs-p.n < c {
		p.ci++
		p.n = 0
		if p.ci == len(p.chunks) {
			p.chunks = append(p.chunks, make([]T, cs))
		}
	}
	s := p.chunks[p.ci][p.n : p.n+n : p.n+c]
	p.n += c
	return s
}

// Get returns a pointer to a zeroed T carved from the current chunk.
func (p *Pool[T]) Get() *T {
	return &p.Make(1, 1)[0]
}

// Reset rewinds the pool for reuse by the next round. The used prefix of
// every retained chunk is zeroed (dropping references for the GC and
// restoring the make() zero-value contract); oversized allocations are
// released. With poison set, the chunks themselves are dropped too, so
// stale pointers from the finished round dangle into unreachable memory.
func (p *Pool[T]) Reset(poison bool) {
	var zero T
	for i := 0; i <= p.ci && i < len(p.chunks); i++ {
		c := p.chunks[i]
		if i == p.ci {
			c = c[:p.n]
		}
		for j := range c {
			c[j] = zero
		}
	}
	for _, b := range p.big {
		b = b[:cap(b)]
		for j := range b {
			b[j] = zero
		}
	}
	p.big = nil
	if poison {
		p.chunks = nil
	}
	p.ci, p.n = 0, 0
}

// Retained reports how many chunk elements the pool currently holds on to,
// for tests and introspection.
func (p *Pool[T]) Retained() int {
	return len(p.chunks) * p.size()
}

// Footprint reports the pool's current occupancy: elements bump-allocated
// since the last Reset (chunks before the one being filled count as full —
// the bump pointer only advances past a chunk when its remaining capacity
// cannot serve a request) and the number of backing allocations (retained
// chunks in use plus oversized one-offs). It is the round-telemetry view of
// the arena: a sample of Footprint just before the owning transaction's
// Release prices the round's arena traffic.
func (p *Pool[T]) Footprint() (elems, chunks int) {
	if p.ci < len(p.chunks) && (p.ci > 0 || p.n > 0) {
		elems = p.ci*p.size() + p.n
		chunks = p.ci + 1
	}
	for _, b := range p.big {
		elems += cap(b)
	}
	chunks += len(p.big)
	return elems, chunks
}
