package xat

import (
	"fmt"
	"sort"
	"strings"

	"xqview/internal/faultinject"
	"xqview/internal/flexkey"
	"xqview/internal/obs"
)

// fpCommit guards the fallible half of the cache commit protocol (Prepare).
// It sits inside the prepare step so an injected fault proves a half-built
// commit never leaks into the shared entries map.
var fpCommit = faultinject.Register("xat.statecache.commit")

// cCacheEvictions counts dropped tables by cause, shared across caches. The
// per-cache totals live in CacheStats, which each round's sample diffs; the
// hit, miss, fold and entry series are folded from the sample.
var cCacheEvictions = func() (cs [numEvictCauses]*obs.Counter) {
	for c := range cs {
		cs[c] = obs.Default.CounterOf("xat_state_cache_evictions_total",
			"cached base tables dropped, by cause", "cause", evictCauseNames[c])
	}
	return cs
}()

// evictCause says why a cached table was dropped; it labels the eviction
// counter.
type evictCause int

const (
	evictPatch       evictCause = iota // an insert- or delete-mode patch tuple (a spine anchor)
	evictUnheld                        // a modify patch whose identity the entry does not hold
	evictValue                         // a delta tuple carries a value item the round modified
	evictConstructed                   // constructed content in the delta
	evictMiss                          // a retraction of an identity the entry does not hold
	evictNegative                      // a count the delta would drive below zero
	numEvictCauses
)

var evictCauseNames = [numEvictCauses]string{
	"patch", "unheld", "value", "constructed", "miss", "negative",
}

// CacheStats summarizes one StateCache's lifetime activity.
type CacheStats struct {
	Hits      int // base() calls served from a prior round's table
	Misses    int // base() calls that derived the table fresh
	Folds     int // commits that updated a cached table by delta folding
	Evictions int // cached tables dropped (region overlap the fold cannot absorb)
	Entries   int // tables currently held
}

// Sub returns the counter movement from prev to s — one round's cache
// activity when prev was snapshotted at round start (Entries, a level not a
// counter, is carried over from s as-is). This is the round-telemetry
// choke point: core diffs the summed lifetime stats of every cache the
// round touched and records the delta in the round's obs.RoundSample.
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Folds:     s.Folds - prev.Folds,
		Evictions: s.Evictions - prev.Evictions,
		Entries:   s.Entries,
	}
}

// cacheEntry is one cached base table together with the source documents its
// sub-plan reads — the unit of region-driven invalidation — and the
// counting-solution identity of every tuple, ids[i] ==
// tupleIdentity(tbl.Tuples[i]). The identities are computed once, when
// Prepare admits a fresh derivation, and carried forward by every fold, so a
// fold builds identity strings for its delta only.
type cacheEntry struct {
	tbl  *Table
	ids  []string
	docs []string
}

// StateCache carries a view's base operator state across maintenance rounds
// (the per-call baseMemo of PropagateDelta promoted to View lifetime). It is
// keyed by the plan-stable operator ID, so it survives the per-round
// deltaEngine whose *Op memo keys it replaces.
//
// Lifecycle per round, and the only way a held table changes: begin()
// resets the staging, the engine stages fresh derivations (noteFresh) and
// every operator's delta (noteDelta) during propagation, Prepare — once the
// round's apply phase succeeded — builds the next entries map, and Install,
// when the whole round commits, swaps it in. Entries whose source documents
// are untouched by the round's regions are kept verbatim (their deltas are
// provably empty), and touched entries are folded forward by the round's
// own deltas (insert Δ+ tuples, retract Δ− via the counting solution,
// absorb value-modify patches of held tuples) or evicted when the fold
// cannot absorb the delta (see cacheEntry.fold). A round that aborts, or
// that skips the cache's sub-plans as independent of the batch, leaves the
// held tables as they are: they still describe the store.
//
// Concurrency: a StateCache belongs to one view and is only touched by the
// worker maintaining that view, so it needs no locking (the same ownership
// discipline as the view's extent slot in MaintainAll).
type StateCache struct {
	entries map[int]*cacheEntry

	// Per-round staging, reset by begin() and by nothing else. Staged
	// tables may live in the round arena; Prepare copies out what it admits.
	pendingFresh map[int]*cacheEntry
	pendingDelta map[int]*Table

	// valsBase/valsNew are the engine's string-value memo maps. valsNew
	// (over the round's draft) is valid only within one round and is
	// recycled cleared; valsBase (over the committed base store) PERSISTS
	// across rounds — the base store only changes when a round commits, and
	// Install then deletes exactly the entries the round's update regions
	// could have changed (keys inside a touched subtree, and their ancestors
	// whose concatenated text value shifts; an update no view reads has no
	// region and changes no value any view memoized). A rollback leaves the
	// pre-round store, which is what the memo describes, so the memo
	// survives rollbacks verbatim.
	valsBase, valsNew map[flexkey.Key]string

	// stats are the lifetime counters; round stages the hits and misses of
	// the round in flight, which Install adds and the next begin drops,
	// like the folds and evictions a PreparedCommit carries.
	stats, round CacheStats
}

// NewStateCache returns an empty cache.
func NewStateCache() *StateCache {
	return &StateCache{
		entries:      map[int]*cacheEntry{},
		pendingFresh: map[int]*cacheEntry{},
		pendingDelta: map[int]*Table{},
		valsBase:     map[flexkey.Key]string{},
		valsNew:      map[flexkey.Key]string{},
	}
}

// begin starts a round and returns its value-memo maps: the staging and the
// updated-reader memo of the previous round, committed or not, are
// discarded in place, and the persistent base-store memo is returned as-is
// (see the field comment for its invalidation contract).
func (c *StateCache) begin() (base, fresh map[flexkey.Key]string) {
	clear(c.pendingFresh)
	clear(c.pendingDelta)
	clear(c.valsNew)
	c.round = CacheStats{}
	return c.valsBase, c.valsNew
}

// lookup serves operator o's base table from a prior round, if held.
func (c *StateCache) lookup(o *Op) (*Table, bool) {
	e, ok := c.entries[o.ID]
	if !ok {
		return nil, false
	}
	c.round.Hits++
	return e.tbl, true
}

// noteFresh stages a freshly derived base table for caching at commit.
// Tables holding constructed nodes are never cached: their skeletons live in
// the per-round registry and their identities are not stable across rounds.
func (c *StateCache) noteFresh(o *Op, t *Table) {
	c.round.Misses++
	if tableHasConstructed(t) {
		return
	}
	c.pendingFresh[o.ID] = &cacheEntry{tbl: t, docs: o.SourceDocs()}
}

// noteDelta stages operator o's delta table of the current round; Prepare
// folds it into o's cached base table (the cached state is pre-update).
func (c *StateCache) noteDelta(o *Op, t *Table) {
	c.pendingDelta[o.ID] = t
}

// PreparedCommit is the staged outcome of a round's cache commit: a fully
// built replacement entries map plus the counter deltas installing it will
// apply. It shares entries and tables with the live cache (both are
// immutable once built; a fold makes new ones), so discarding it touches
// nothing.
type PreparedCommit struct {
	entries map[int]*cacheEntry
	folds   int
	evicts  [numEvictCauses]int
	// dirty is the round's region anchors; Install prunes the persistent
	// base value memo of every entry whose key is inside one of these
	// subtrees or on an anchor's ancestor chain.
	dirty []flexkey.Key
}

// Len reports how many tables the cache holds once p is installed.
func (p *PreparedCommit) Len() int { return len(p.entries) }

// Prepare builds — without mutating the cache — the entries map a
// successful round would commit: fresh tables staged this round join the
// cache, and every held table whose source documents intersect the round's
// update regions is folded forward (or evicted when folding is unsound).
// Tables over untouched documents are kept as-is — deltas originate only
// from OpSource region tuples, so an untouched sub-plan's delta is empty
// and its base table is unchanged. Staged tables may live in the round
// arena, so whatever Prepare admits from them is copied to the heap.
//
// Prepare is the fallible half of the commit protocol: it may fail (today
// only by fault injection), and failure leaves the cache exactly as the
// round found it. Install is the infallible second half.
func (c *StateCache) Prepare(regions map[string][]*Region) (*PreparedCommit, error) {
	if err := fpCommit.Fire(); err != nil {
		return nil, err
	}
	p := &PreparedCommit{entries: make(map[int]*cacheEntry, len(c.entries)+len(c.pendingFresh))}
	var modified map[flexkey.Key]bool
	for _, rgs := range regions {
		for _, r := range rgs {
			p.dirty = append(p.dirty, r.Anchor)
			if r.Mode == RegionModify {
				if modified == nil {
					modified = map[flexkey.Key]bool{}
				}
				modified[r.Anchor] = true
			}
		}
	}
	for id, e := range c.entries {
		p.entries[id] = e
	}
	for id, e := range c.pendingFresh {
		tbl := promoteTable(e.tbl)
		p.entries[id] = &cacheEntry{tbl: tbl, ids: tableIdentities(tbl), docs: e.docs}
	}
	for id, e := range p.entries {
		if !regionsTouch(regions, e.docs) {
			continue
		}
		ne, cause := e.fold(c.pendingDelta[id], modified)
		if ne == nil {
			delete(p.entries, id)
			p.evicts[cause]++
			continue
		}
		p.entries[id] = ne
		p.folds++
	}
	return p, nil
}

// Install atomically swaps in a prepared commit and adds the round's
// counters. It cannot fail: everything fallible happened in Prepare.
func (c *StateCache) Install(p *PreparedCommit) {
	c.entries = p.entries
	// The store now holds the round's mutations: drop every memoized string
	// value the regions could have changed. A key is affected if it lies in
	// a touched subtree (its own content changed or it was deleted) or on an
	// anchor's ancestor chain (its concatenated text now includes/excludes
	// the mutation). Everything else still reads identically.
	for k := range c.valsBase {
		for _, a := range p.dirty {
			if flexkey.IsSelfOrAncestorOf(a, k) || flexkey.IsSelfOrAncestorOf(k, a) {
				delete(c.valsBase, k)
				break
			}
		}
	}
	c.stats.Hits += c.round.Hits
	c.stats.Misses += c.round.Misses
	c.stats.Folds += p.folds
	for _, n := range p.evicts {
		c.stats.Evictions += n
	}
	c.stats.Entries = len(c.entries)
	if obs.Enabled() {
		// Every cache of the round commits into these shared series: skip
		// the atomic writes that would add nothing.
		for cause, n := range p.evicts {
			if n > 0 {
				cCacheEvictions[cause].Add(int64(n))
			}
		}
	}
}

// Fingerprint renders the held entries deterministically — operator IDs in
// order, each with its source documents and full table contents — so tests
// can assert byte-identity of cache state across rollback/retry.
func (c *StateCache) Fingerprint() string {
	ids := make([]int, 0, len(c.entries))
	for id := range c.entries {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		e := c.entries[id]
		fmt.Fprintf(&b, "op %d docs=%s\n%s", id, strings.Join(e.docs, ","), e.tbl.String())
	}
	fmt.Fprintf(&b, "entries=%d\n", len(c.entries))
	return b.String()
}

// Len reports how many base tables the cache holds.
func (c *StateCache) Len() int {
	return len(c.entries)
}

// Stats returns a snapshot of the cache's counters.
func (c *StateCache) Stats() CacheStats {
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// regionsTouch reports whether any of the round's update regions lies in
// one of docs (regions are keyed by document).
func regionsTouch(regions map[string][]*Region, docs []string) bool {
	for _, d := range docs {
		if len(regions[d]) > 0 {
			return true
		}
	}
	return false
}

// tupleIdentity is the counting-solution identity a fold matches tuples on:
// the per-cell identities of Def 4.2.4, joined like joinKey.
func tupleIdentity(tp *Tuple) string {
	return string(appendTupleIdentity(nil, tp))
}

// appendTupleIdentity appends tupleIdentity(tp) to buf, so callers that
// probe maps keyed by string(buf) build no intermediate strings.
func appendTupleIdentity(buf []byte, tp *Tuple) []byte {
	for i, c := range tp.Cells {
		if i > 0 {
			buf = append(buf, "\x1f\x1f"...)
		}
		buf = appendCellIdentity(buf, c)
	}
	return buf
}

// tableIdentities returns tupleIdentity of every tuple of t, in order.
func tableIdentities(t *Table) []string {
	ids := make([]string, len(t.Tuples))
	var buf []byte
	for i, tp := range t.Tuples {
		buf = appendTupleIdentity(buf[:0], tp)
		ids[i] = string(buf)
	}
	return ids
}

// tableHasConstructed reports whether any item of the table is a constructed
// node.
func tableHasConstructed(t *Table) bool {
	if t == nil {
		return false
	}
	for _, tp := range t.Tuples {
		for _, c := range tp.Cells {
			for _, it := range c {
				if it.ID.Constructed || it.Skel != nil {
					return true
				}
			}
		}
	}
	return false
}

// foldOp is the net effect of a round's delta on one tuple identity.
type foldOp struct {
	id    string
	tp    *Tuple // first delta tuple with this identity
	count int    // summed Delta counts
	patch bool   // a modify patch names the identity: the entry must hold it
	held  bool   // a held tuple carried the identity
}

// fold applies a round's delta to the entry, producing the entry the next
// round's base derivation would compute (the counting solution): positive
// delta counts append derivations, negative ones retract them by identity,
// and a value-modify patch of a held tuple is absorbed unchanged. The SAPT
// rewrites every value replace that feeds a predicate, order, group,
// distinct or aggregate into a delete and an insert, so a modify patch that
// reaches the fold changes neither the node identities nor the count of the
// tuple it names; node items read their values through the value memo,
// which Install prunes on the round's anchors. A value item, however,
// carries its value, and propagation reads a modify patch from the
// pre-update store: a delta tuple holding a value item on a node in
// modified would fold a stale value, so the entry is evicted instead.
//
// fold reports nil and the cause when the entry must be evicted: an insert-
// or delete-mode patch (a spine anchor), a modify patch whose identity the
// entry does not hold, a modified value item, constructed content, a
// retraction that misses, or a count that would go negative.
//
// Only delta tuples build an identity; held tuples keep theirs. The entry
// and its tuples are never written: delta tables share *Tuple pointers
// across operators, so the fold builds a new tuple slice and copies any
// tuple whose count changes. Cells taken from the delta, which may live in
// the round arena, are deep-copied so the folded table never aliases
// round-arena memory; held tuples are heap memory already.
func (e *cacheEntry) fold(delta *Table, modified map[flexkey.Key]bool) (*cacheEntry, evictCause) {
	if delta == nil || len(delta.Tuples) == 0 {
		return e, 0
	}
	var ops []foldOp
	idx := make(map[string]int, len(delta.Tuples))
	var buf []byte
	for _, tp := range delta.Tuples {
		patch := tp.Kind == Patch
		if patch && (tp.Region == nil || tp.Region.Mode != RegionModify) || !patch && tp.Kind != Delta {
			return nil, evictPatch
		}
		for _, c := range tp.Cells {
			for _, it := range c {
				if it.ID.Constructed || it.Skel != nil {
					return nil, evictConstructed
				}
				if it.IsVal && modified[flexkey.Key(it.ID.Body)] {
					return nil, evictValue
				}
			}
		}
		buf = appendTupleIdentity(buf[:0], tp)
		j, ok := idx[string(buf)]
		if !ok {
			j = len(ops)
			ops = append(ops, foldOp{id: string(buf), tp: tp})
			idx[ops[j].id] = j
		}
		if patch {
			ops[j].patch = true
		} else {
			ops[j].count += tp.Count
		}
	}
	out := e.tbl.CloneShape()
	out.Tuples = make([]*Tuple, 0, len(e.tbl.Tuples)+len(ops))
	ids := make([]string, 0, cap(out.Tuples))
	for i, tp := range e.tbl.Tuples {
		id := e.ids[i]
		if j, ok := idx[id]; ok && !ops[j].held {
			ops[j].held = true // the first held tuple with the identity takes the delta
			if d := ops[j].count; d != 0 {
				nc := tp.Count + d
				if nc < 0 {
					return nil, evictNegative
				}
				if nc == 0 {
					continue
				}
				cp := *tp
				cp.Count = nc
				tp = &cp
			}
		}
		out.Tuples = append(out.Tuples, tp)
		ids = append(ids, id)
	}
	for _, op := range ops {
		switch {
		case op.held:
			continue
		case op.patch:
			return nil, evictUnheld
		case op.count < 0:
			return nil, evictMiss
		case op.count == 0:
			continue
		}
		out.Tuples = append(out.Tuples, &Tuple{Cells: promoteCells(op.tp.Cells), Count: op.count})
		ids = append(ids, op.id)
	}
	return &cacheEntry{tbl: out, ids: ids, docs: e.docs}, 0
}

// promoteTable deep-copies a (possibly arena-backed) table into heap memory
// so it can outlive the round arena: the tuple slice, every tuple and every
// cell backing are copied. Nil cells stay nil (outer-join null padding) and
// empty non-nil cells stay non-nil (empty collections) — the distinction is
// semantic (see patternEmpty).
func promoteTable(t *Table) *Table {
	out := t.CloneShape()
	if t.Tuples == nil {
		return out
	}
	out.Tuples = make([]*Tuple, len(t.Tuples))
	tups := make([]Tuple, len(t.Tuples))
	for i, tp := range t.Tuples {
		tups[i] = Tuple{Cells: promoteCells(tp.Cells), Count: tp.Count, Kind: tp.Kind, Region: tp.Region}
		out.Tuples[i] = &tups[i]
	}
	return out
}

// promoteCells deep-copies a tuple's cells, preserving nil vs non-nil empty.
func promoteCells(cells []Cell) []Cell {
	if cells == nil {
		return nil
	}
	out := make([]Cell, len(cells))
	for i, c := range cells {
		if c == nil {
			continue
		}
		nc := make(Cell, len(c))
		copy(nc, c)
		out[i] = nc
	}
	return out
}
