package core

import (
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

// cSnapAcquire counts reader handles acquired. The epoch and reader gauges
// are folded from each round's sample.
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
// structures. A version is a value: the collector frees it once neither the
// registry nor any handle points at it.
type Version struct {
	Seq    uint64
	Store  *xmldoc.Snap
	Frames []ViewFrame

	reg *SnapReg // whose reader count Release decrements
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

// Release gives the reader handle back. After Release the version must not
// be read again through this handle.
func (v *Version) Release() {
	if v == nil {
		return
	}
	v.reg.readers.Add(-1)
}

// SnapReg is the epoch registry of published versions: a single atomic root
// pointer readers acquire through, the sequence counter, and the number of
// reader handles out. It does not manage version lifetime — the Go collector
// does: a swapped-out version lives exactly as long as some handle still
// points at it. The reader count is accounting only; a handle dropped
// without Release leaves it one too high but pins nothing.
type SnapReg struct {
	cur     atomic.Pointer[Version]
	seq     atomic.Uint64
	readers atomic.Int64
}

// NewSnapReg returns an empty registry; Publish installs the first version.
func NewSnapReg() *SnapReg { return &SnapReg{} }

// Acquire returns the current version as a reader handle, or nil when
// nothing is published yet. It is lock-free: a load and an increment of the
// reader count. The count is kept whatever the telemetry switch, so toggling
// the switch between an Acquire and its Release cannot skew it.
func (r *SnapReg) Acquire() *Version {
	v := r.cur.Load()
	if v == nil {
		return nil
	}
	r.readers.Add(1)
	if obs.Enabled() {
		cSnapAcquire.Inc()
	}
	return v
}

// Current returns the published version without counting a reader — for
// telemetry and version-build plumbing only, never for reading through.
func (r *SnapReg) Current() *Version { return r.cur.Load() }

// Publish makes v the current version: the single pointer store that
// commits a round for readers. Handles on the predecessor keep serving it.
func (r *SnapReg) Publish(v *Version) {
	v.reg = r
	r.cur.Store(v)
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
