// Package journal is the semantic-provenance layer of the engine: where
// internal/obs answers "how long did maintenance take", journal answers
// "why is this node in the view". Every maintenance round (one MaintainAll
// batch) can record a Round: the Validate verdict of each update primitive
// (SAPT accept / no-op-prune / rewrite / reject, with the matched path),
// the per-view per-operator delta lineage of the Propagate phase (input
// FlexKeys consumed, output delta tuples produced, each linked back to the
// originating primitive's update region), and the apply-phase Deep-Union
// fusion records (view FlexKey → source FlexKeys fused, with the counting
// solution's insert/delete totals).
//
// Rounds live in a bounded ring so a long-running serving process keeps a
// window of recent history without growing forever. Recording is gated by
// an atomic Enabled flag mirroring obs.Enabled: with the gate off every
// recording site is a nil-check and the maintenance path is
// allocation-identical to the unjournaled engine.
//
// Journal records are deliberately free of wall-clock timestamps: a Round
// is a deterministic function of (initial store, view definitions,
// primitive stream), which is what makes the record/replay mode of
// stream.go exact — replaying a recorded primitive stream reproduces not
// just the view extents but the journal itself, byte for byte.
package journal

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"xqview/internal/obs"
)

// enabled gates all recording sites (the journal analogue of obs.Enabled).
var enabled atomic.Bool

// Enabled reports whether maintenance rounds should be journaled.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns journaling on or off, returning the previous state so
// callers (benchmark arms, tests) can restore it.
func SetEnabled(v bool) bool { return enabled.Swap(v) }

// Recording bounds: lineage is a debugging aid, not an archive, so each
// record keeps a bounded prefix and counts the rest (Truncated/Tuples carry
// the true totals). The bounds are exported so recording sites can stop
// collecting early instead of building slices the journal would discard.
const (
	// MaxOpTuples bounds the delta tuples kept per operator record.
	MaxOpTuples = 64
	// MaxOpInKeys bounds the input FlexKeys kept per operator record.
	MaxOpInKeys = 32
	// MaxTupleKeys bounds the lineage keys kept per recorded tuple.
	MaxTupleKeys = 8
	// MaxFusionSources bounds the source FlexKeys kept per fusion record.
	MaxFusionSources = 16
)

// DefaultCapacity is the ring size of the Default journal: the number of
// most-recent maintenance rounds retained.
const DefaultCapacity = 256

// LineageSep joins the lineage components inside a constructed-node
// identifier body. It must equal the bodySep of internal/xat (asserted by a
// test there); journal cannot import xat without creating a cycle.
const LineageSep = "\x1d"

// Verdict is the Validate-phase outcome of one update primitive.
type Verdict struct {
	Prim int `json:"prim"` // index into Round.Prims
	// Action is "accept" (propagates as-is), "prune" (SAPT-irrelevant,
	// discarded — the observable analogue of query-update independence),
	// "rewrite" (converted to delete+insert of its navigation anchor), or
	// "reject" (validation failed; Detail carries the error).
	Action string `json:"action"`
	Path   string `json:"path,omitempty"`   // matched name path, "/"-joined
	Detail string `json:"detail,omitempty"` // rewrite anchor or rejection error
}

// CompactionRecord is one pre-validation batch-normalization decision
// (update.CompactBatch). Indexes refer to Round.Prims, i.e. the original
// batch, so explain output numbers primitives identically whether or not
// compaction ran.
type CompactionRecord struct {
	Rule    string `json:"rule"`             // "coalesce"
	Kept    int    `json:"kept"`             // the surviving primitive
	Dropped []int  `json:"dropped"`          // primitives removed before validation
	Detail  string `json:"detail,omitempty"` // target description
}

// TupleRecord is one delta tuple emitted by an operator: the lineage keys
// of its cells, its signed derivation count, its kind, and the FlexKey of
// the update-region anchor it originates from (the primitive's key).
type TupleRecord struct {
	Keys  []string `json:"keys,omitempty"`
	Count int      `json:"count"`
	Kind  string   `json:"kind"` // "delta" | "patch"
	Prim  string   `json:"prim,omitempty"`
}

// OpRecord is the delta lineage of one XAT operator in one propagation:
// what it consumed, what it produced.
type OpRecord struct {
	Op        int           `json:"op"`   // plan-stable operator id
	Kind      string        `json:"kind"` // operator kind name
	Detail    string        `json:"detail,omitempty"`
	In        []string      `json:"in,omitempty"`  // input FlexKeys consumed
	Out       []TupleRecord `json:"out,omitempty"` // output delta tuples (bounded)
	Tuples    int           `json:"tuples"`        // true output tuple count
	Truncated bool          `json:"truncated,omitempty"`
}

// Fusion is one apply-phase Deep-Union record: the view node a delta tree
// was fused into, the source FlexKeys it carries, and the counting
// solution's insert/delete/modify totals for that tree.
type Fusion struct {
	ViewKey string   `json:"view_key"`
	Sources []string `json:"sources,omitempty"`
	Inserts int      `json:"inserts"`
	Deletes int      `json:"deletes"`
	Mods    int      `json:"mods,omitempty"`
}

// ViewLineage is the journal of one view within one round.
type ViewLineage struct {
	View    string     `json:"view"`
	Ops     []OpRecord `json:"ops,omitempty"`
	Fusions []Fusion   `json:"fusions,omitempty"`
	// Skipped is the reason the view's Propagate+Apply phases were pruned
	// ("" when the view was maintained). A skipped view records no Ops or
	// Fusions; Explain renders the skip instead of an empty lineage.
	Skipped string `json:"skipped,omitempty"`
}

// Round is the journal of one maintenance batch.
type Round struct {
	ID    uint64       `json:"id"`
	Views []string     `json:"views"`
	Prims []PrimRecord `json:"prims,omitempty"`
	// Compactions records batch-normalization decisions made before
	// validation. Prims always holds the ORIGINAL batch; primitives listed
	// in a Dropped set never reached validation and carry no verdict.
	Compactions []CompactionRecord `json:"compactions,omitempty"`
	Verdicts    []Verdict          `json:"verdicts,omitempty"`
	PerView     []ViewLineage      `json:"lineage,omitempty"`
	Error       string             `json:"error,omitempty"` // set when the round failed
	// Aborted marks a round whose failure was rolled back transactionally:
	// no view extent, source document or cache entry retains any effect of
	// it. Partial lineage records are kept for debugging, but Explain must
	// not present them as the provenance of live view content.
	Aborted bool `json:"aborted,omitempty"`
}

// Round/retention metric series (registered in the shared obs registry; the
// journal is itself observable).
var (
	cRounds  = obs.Default.CounterOf("journal_rounds_total", "maintenance rounds journaled")
	cDropped = obs.Default.CounterOf("journal_rounds_dropped_total", "journaled rounds evicted by the retention ring")
)

// Journal is a bounded ring of maintenance rounds. All methods are safe for
// concurrent use; in-progress RoundRecs are private to their round until
// Commit.
type Journal struct {
	mu      sync.Mutex
	cap     int
	nextID  uint64
	rounds  []*Round
	dropped uint64
}

// Default is the process-wide journal MaintainAll records into.
var Default = New(DefaultCapacity)

// New creates a journal retaining the most recent capacity rounds
// (capacity < 1 falls back to DefaultCapacity).
func New(capacity int) *Journal {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Journal{cap: capacity}
}

// Reset drops all retained rounds and restarts round numbering. For tests
// and benchmark arms.
func (j *Journal) Reset() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rounds = nil
	j.nextID = 0
	j.dropped = 0
}

// Cap reports the retention ring's capacity.
func (j *Journal) Cap() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cap
}

// Len reports how many rounds are retained.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.rounds)
}

// Dropped reports how many rounds the retention ring has evicted.
func (j *Journal) Dropped() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Rounds returns the retained rounds, oldest first.
func (j *Journal) Rounds() []*Round {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*Round(nil), j.rounds...)
}

// Begin opens a round for the given views and primitive count, stamping the
// next round ID. The returned RoundRec (and every ViewRec it hands out) is
// nil-safe, so call sites thread it unconditionally and only the caller of
// Begin checks Enabled.
func (j *Journal) Begin(views []string, nprims int) *RoundRec {
	j.mu.Lock()
	j.nextID++
	id := j.nextID
	j.mu.Unlock()
	r := &Round{
		ID:       id,
		Views:    append([]string(nil), views...),
		Verdicts: make([]Verdict, 0, nprims),
		PerView:  make([]ViewLineage, len(views)),
	}
	rr := &RoundRec{j: j, r: r, views: make([]*ViewRec, len(views))}
	for i, name := range views {
		r.PerView[i].View = name
		rr.views[i] = &ViewRec{vl: &r.PerView[i]}
	}
	return rr
}

// commit pushes a finished round into the ring, evicting the oldest beyond
// capacity.
func (j *Journal) commit(r *Round) {
	j.mu.Lock()
	j.rounds = append(j.rounds, r)
	for len(j.rounds) > j.cap {
		copy(j.rounds, j.rounds[1:])
		j.rounds = j.rounds[:len(j.rounds)-1]
		j.dropped++
		cDropped.Inc()
	}
	j.mu.Unlock()
	cRounds.Inc()
}

// WriteJSON dumps the retained rounds as an indented JSON object
// ({"rounds": [...]}), oldest first.
func (j *Journal) WriteJSON(w io.Writer) error {
	rounds := j.Rounds()
	if rounds == nil {
		rounds = []*Round{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Rounds []*Round `json:"rounds"`
	}{rounds})
}

// HTTPHandler serves the journal dump (the /journal endpoint of the
// serving-mode observability handler).
func (j *Journal) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		j.WriteJSON(w)
	})
}

// RoundRec records one in-progress round. A nil *RoundRec is the disabled
// recorder: every method on it (and on the ViewRecs it hands out) is a
// cheap no-op, mirroring the obs.Span contract.
type RoundRec struct {
	j     *Journal
	r     *Round
	views []*ViewRec

	mu        sync.Mutex // guards Verdicts (validate is single-threaded, but cheap insurance)
	committed bool
	// vmap remaps validation's primitive indexes (the compacted batch) back
	// to positions in Round.Prims (the original batch). Nil = identity.
	vmap []int
}

// Active reports whether the recorder records anything; use it to skip
// record construction on the disabled path.
func (rr *RoundRec) Active() bool { return rr != nil }

// SetPrims snapshots the primitive stream of the round. Call it after
// validation so insert primitives carry their assigned FlexKeys.
func (rr *RoundRec) SetPrims(prims []PrimRecord) {
	if rr == nil {
		return
	}
	rr.r.Prims = prims
}

// SetVerdictMap installs a remapping from the primitive indexes validation
// sees (the compacted batch) to positions in the journaled primitive stream
// (the original batch). Call it before validation when the round's batch was
// compacted; without it verdict indexes are taken as-is.
func (rr *RoundRec) SetVerdictMap(m []int) {
	if rr == nil {
		return
	}
	rr.vmap = m
}

// Compaction records one batch-normalization decision.
func (rr *RoundRec) Compaction(rule string, kept int, dropped []int, detail string) {
	if rr == nil {
		return
	}
	rr.mu.Lock()
	rr.r.Compactions = append(rr.r.Compactions, CompactionRecord{
		Rule: rule, Kept: kept, Dropped: append([]int(nil), dropped...), Detail: detail,
	})
	rr.mu.Unlock()
}

// Verdict records the Validate outcome of primitive i.
func (rr *RoundRec) Verdict(i int, action, path, detail string) {
	if rr == nil {
		return
	}
	rr.mu.Lock()
	if rr.vmap != nil && i < len(rr.vmap) {
		i = rr.vmap[i]
	}
	rr.r.Verdicts = append(rr.r.Verdicts, Verdict{Prim: i, Action: action, Path: path, Detail: detail})
	rr.mu.Unlock()
}

// View returns the per-view recorder for view i. Each ViewRec must only be
// used by the worker maintaining that view (no internal locking).
func (rr *RoundRec) View(i int) *ViewRec {
	if rr == nil {
		return nil
	}
	return rr.views[i]
}

// Commit finishes the round and pushes it into the journal's ring; err, if
// non-nil, marks the round failed (partial records are kept — a failed
// round is exactly the one worth explaining). Commit is idempotent.
func (rr *RoundRec) Commit(err error) {
	if rr == nil {
		return
	}
	rr.mu.Lock()
	done := rr.committed
	rr.committed = true
	rr.mu.Unlock()
	if done {
		return
	}
	if err != nil {
		rr.r.Error = err.Error()
	}
	rr.j.commit(rr.r)
}

// Abort finishes the round as failed-and-rolled-back: the error is recorded
// and the round is marked Aborted, telling Explain that none of the round's
// lineage survives in any view. Like Commit it is idempotent, and a round
// already committed stays as committed.
func (rr *RoundRec) Abort(err error) {
	if rr == nil {
		return
	}
	rr.mu.Lock()
	done := rr.committed
	rr.committed = true
	if !done {
		rr.r.Aborted = true
	}
	rr.mu.Unlock()
	if done {
		return
	}
	if err != nil {
		rr.r.Error = err.Error()
	}
	rr.j.commit(rr.r)
}

// ViewRec records the lineage of one view within one round. A nil *ViewRec
// is the disabled recorder; it is owned by a single goroutine while
// recording, so its methods take no locks.
type ViewRec struct {
	vl *ViewLineage
}

// Active reports whether the recorder records anything.
func (v *ViewRec) Active() bool { return v != nil }

// NewDetachedViewRec returns a recorder not attached to any round: shared
// sub-plan propagation records into one and the per-view workers replay the
// captured OpRecords (operator ids remapped) into their own round-attached
// recorders, so Explain attributes shared-operator deltas to every
// subscribing view.
func NewDetachedViewRec(name string) *ViewRec {
	return &ViewRec{vl: &ViewLineage{View: name}}
}

// Ops returns the operator records captured so far (shared between caller
// and recorder; callers treat them as read-only).
func (v *ViewRec) Ops() []OpRecord {
	if v == nil {
		return nil
	}
	return v.vl.Ops
}

// Op records the delta lineage of one operator, truncating In/Out to the
// journal bounds.
func (v *ViewRec) Op(rec OpRecord) {
	if v == nil {
		return
	}
	if len(rec.In) > MaxOpInKeys {
		rec.In = rec.In[:MaxOpInKeys:MaxOpInKeys]
		rec.Truncated = true
	}
	if len(rec.Out) > MaxOpTuples {
		rec.Out = rec.Out[:MaxOpTuples:MaxOpTuples]
		rec.Truncated = true
	}
	for i := range rec.Out {
		if len(rec.Out[i].Keys) > MaxTupleKeys {
			rec.Out[i].Keys = rec.Out[i].Keys[:MaxTupleKeys:MaxTupleKeys]
			rec.Truncated = true
		}
	}
	v.vl.Ops = append(v.vl.Ops, rec)
}

// Skip records that the view's Propagate+Apply phases were pruned (the
// relevance filter proved the round cannot affect the view).
func (v *ViewRec) Skip(reason string) {
	if v == nil {
		return
	}
	v.vl.Skipped = reason
}

// Fusion records one apply-phase Deep-Union fusion.
func (v *ViewRec) Fusion(f Fusion) {
	if v == nil {
		return
	}
	if len(f.Sources) > MaxFusionSources {
		f.Sources = f.Sources[:MaxFusionSources:MaxFusionSources]
	}
	v.vl.Fusions = append(v.vl.Fusions, f)
}
