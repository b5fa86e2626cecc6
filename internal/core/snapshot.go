package core

import (
	"sync"
	"sync/atomic"

	"xqview/internal/compile"
	"xqview/internal/faultinject"
	"xqview/internal/obs"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// Fault points at the MVCC commit path's two boundaries: building the
// candidate version (after propagation, over the round's frozen draft) and
// the instant before the pointer swap. Both fire BEFORE the
// infallible install of the round, so an injected fault aborts the round with the
// old version still published — in-flight readers never observe a torn
// state, and rollback restores the writer-side structures byte-identically.
var (
	fpSnapBuild = faultinject.Register("core.snapshot.build")
	fpSnapSwap  = faultinject.Register("core.snapshot.swap")
)

// cSnapAcquire counts reader handles. The epoch, retired and reader gauges
// are folded from each round's sample (see occupancy).
var cSnapAcquire = obs.Default.CounterOf("xqview_snapshot_acquires_total", "snapshot handles acquired")

// ViewFrame is one view's immutable state within a published Version: the
// extent roots as of that version (never written again — the COW apply
// copies every node later rounds touch) and how many tables its
// propagation state cache held.
type ViewFrame struct {
	View         *View // identity only; read live fields via the frame
	Name         string
	Query        string
	Extent       []*xat.VNode
	CacheEntries int

	// body is Extent serialized. Publishing leaves it empty: the first reader
	// of the frame fills it and every later reader of the version gets those
	// bytes. A successor frame over the same extent roots starts from whatever
	// is here when it is built (inheritBody), so an extent that rounds leave
	// alone is serialized once per change, not once per version. Nothing else
	// references the string: it dies with the last frame that holds it.
	body atomic.Pointer[string]
}

// XML returns the frame's extent serialized, byte-identical to View.XML at
// the version's commit point. Readers racing the first call each serialize
// the same immutable extent; one result is kept and all of them return it.
func (f *ViewFrame) XML() string {
	if s := f.body.Load(); s != nil {
		return *s
	}
	s := xat.ExtentXML(f.Extent)
	if f.body.CompareAndSwap(nil, &s) {
		return s
	}
	return *f.body.Load()
}

// inheritBody starts f from the body of frame i of prev when that frame is
// the same view over the same extent roots. Extents are immutable once
// published and every change installs a fresh root slice (the COW apply,
// Materialize), so slice identity is extent identity.
func (f *ViewFrame) inheritBody(prev *Version, i int) {
	if prev == nil || i >= len(prev.Frames) {
		return
	}
	p := &prev.Frames[i]
	if p.View == f.View && len(p.Extent) == len(f.Extent) &&
		(len(f.Extent) == 0 || &p.Extent[0] == &f.Extent[0]) {
		f.body.Store(p.body.Load())
	}
}

// Version is one immutable published state of the whole database: a store
// version (a trie root) plus one frame per registered view. Readers acquire
// it through SnapReg.Acquire and hold it as long as they like; maintenance
// rounds publish successors without ever writing a published version's
// structures.
type Version struct {
	Seq    uint64
	Store  *xmldoc.Snap
	Frames []ViewFrame

	// refs counts reasons the version must stay tracked: one for being (or
	// having been) the registry's current version until retirement drops it,
	// plus one per outstanding reader handle.
	refs atomic.Int64
	reg  *SnapReg
}

// Frame returns the frame of the view named name (nil when absent).
func (v *Version) Frame(name string) *ViewFrame {
	for i := range v.Frames {
		if v.Frames[i].Name == name {
			return &v.Frames[i]
		}
	}
	return nil
}

// FrameOf returns the frame of the given view (nil when absent), for
// callers holding a *View rather than a name.
func (v *Version) FrameOf(cv *View) *ViewFrame {
	for i := range v.Frames {
		if v.Frames[i].View == cv {
			return &v.Frames[i]
		}
	}
	return nil
}

// Release drops one reader reference. After Release the version must not be
// read again through this handle.
func (v *Version) Release() {
	if v == nil {
		return
	}
	if v.refs.Add(-1) == 0 {
		v.reg.sweep()
	}
}

// SnapReg is the epoch registry of published versions: a single atomic root
// pointer readers acquire through, plus the retired list — versions swapped
// out while readers still hold them — swept as those readers drain.
//
// Reclamation is accounting, not memory safety (the Go runtime guarantees
// the latter): the retired list is what the leak tests and the telemetry
// gauges measure, and its boundedness is the proof that version chains
// don't grow without limit. A reader that loses the acquire race may touch
// a version's refcount after it left the list; that transient is harmless
// and conservative (the version was already drained).
type SnapReg struct {
	cur atomic.Pointer[Version]
	seq atomic.Uint64

	mu      sync.Mutex
	retired []*Version
}

// NewSnapReg returns an empty registry; Publish installs the first version.
func NewSnapReg() *SnapReg { return &SnapReg{} }

// Acquire returns the current version with a reader reference taken, or nil
// when nothing is published yet. It is lock-free: a load, an increment, and
// a re-check that the version is still current (retrying when a publish
// raced the increment, so a drained version's sweep is never missed).
func (r *SnapReg) Acquire() *Version {
	for {
		v := r.cur.Load()
		if v == nil {
			return nil
		}
		v.refs.Add(1)
		if r.cur.Load() == v {
			if obs.Enabled() {
				cSnapAcquire.Inc()
			}
			return v
		}
		if v.refs.Add(-1) == 0 {
			r.sweep()
		}
	}
}

// Current returns the published version WITHOUT taking a reference — for
// telemetry and version-build plumbing only, never for reading through.
func (r *SnapReg) Current() *Version { return r.cur.Load() }

// Publish makes v the current version: the single pointer swap that commits
// a round for readers. The previous version is retired; it is freed (leaves
// the retired list) once its last reader drains.
func (r *SnapReg) Publish(v *Version) {
	v.reg = r
	v.refs.Add(1) // the registry's own reference
	old := r.cur.Swap(v)
	if old != nil {
		r.mu.Lock()
		r.retired = append(r.retired, old)
		r.mu.Unlock()
		if old.refs.Add(-1) == 0 {
			r.sweep()
		}
	}
}

// sweep drops drained versions (refs == 0) from the retired list.
func (r *SnapReg) sweep() {
	r.mu.Lock()
	live := r.retired[:0]
	for _, v := range r.retired {
		if v.refs.Load() > 0 {
			live = append(live, v)
		}
	}
	for i := len(live); i < len(r.retired); i++ {
		r.retired[i] = nil
	}
	r.retired = live
	r.mu.Unlock()
}

// occupancy reports the retired versions still awaiting readers and the
// reader handles out, derived under the registry lock from the references
// themselves: every reference to the current version but the registry's
// own, plus every reference to a retired one. (A reader losing Acquire's
// race holds a reference for an instant; the count is telemetry.)
func (r *SnapReg) occupancy() (retired, readers int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.cur.Load(); v != nil {
		readers = int(v.refs.Load()) - 1
	}
	for _, v := range r.retired {
		readers += int(v.refs.Load())
	}
	return len(r.retired), readers
}

// Epoch returns the sequence number of the published version (0 when none).
func (r *SnapReg) Epoch() uint64 {
	if v := r.cur.Load(); v != nil {
		return v.Seq
	}
	return 0
}

// PublishLive publishes the store's current version with every view's live
// state as the next version: the out-of-band path for changes made outside a
// round — document loads, view creation, renaming, recomputation. Capturing
// the store is taking its root. Callers hold the database's write lock.
func (r *SnapReg) PublishLive(store *xmldoc.Store, views []*View) {
	r.Publish(r.capture(store.Snap, views, nil))
}

// capture assembles the next version over the given store version: a view
// staged by a round (stages may be nil) contributes its candidate extent and
// the cache occupancy its prepared commit installs; every other view its
// live extent, serialized body included when the extent is the previous
// version's. Extents are immutable going forward (the COW apply never writes
// published nodes), so capturing the slice headers is enough.
func (r *SnapReg) capture(store *xmldoc.Snap, views []*View, stages []viewStage) *Version {
	prev := r.Current()
	v := &Version{Seq: r.seq.Add(1), Store: store, Frames: make([]ViewFrame, len(views))}
	for i, cv := range views {
		f := &v.Frames[i]
		f.View, f.Name, f.Query = cv, cv.displayName(i), cv.Query
		if stages != nil && stages[i].staged {
			f.Extent, f.CacheEntries = stages[i].extent, stages[i].prep.Len()
		} else {
			f.Extent, f.CacheEntries = cv.Extent, cv.cache.Len()
			f.inheritBody(prev, i)
		}
	}
	return v
}

// QueryReader compiles and evaluates an XQuery expression against any
// store reader — in particular an immutable snapshot — and returns the
// serialized result. This is what lets Database.Query run lock-free against
// a published version while maintenance rounds commit concurrently.
func QueryReader(r xmldoc.Reader, query string) (string, error) {
	plan, err := compile.Compile(query)
	if err != nil {
		return "", err
	}
	env := xat.NewEnv(r)
	tbl, err := xat.Execute(plan, env)
	if err != nil {
		return "", err
	}
	return xat.ExtentXML(xat.MaterializeResult(env, tbl, plan.ResultCol(tbl))), nil
}
