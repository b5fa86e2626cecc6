package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xqview/internal/compile"
	"xqview/internal/faultinject"
	"xqview/internal/obs"
	"xqview/internal/xat"
	"xqview/internal/xmldoc"
)

// Fault points at the MVCC commit path's two boundaries: building the
// candidate version (after propagation, from the round's draft) and the
// instant before the pointer swap. Both fire BEFORE the
// infallible install of the round, so an injected fault aborts the round with the
// old version still published — in-flight readers never observe a torn
// state, and rollback restores the writer-side structures byte-identically.
var (
	fpSnapBuild = faultinject.Register("core.snapshot.build")
	fpSnapSwap  = faultinject.Register("core.snapshot.swap")
)

// Snapshot telemetry: the live epoch, how many retired versions still have
// readers draining, and how many reader handles are out right now.
var (
	gSnapEpoch   = obs.Default.GaugeOf("xqview_snapshot_epoch", "sequence number of the published version")
	gSnapRetired = obs.Default.GaugeOf("xqview_snapshot_retired", "retired versions not yet drained by readers")
	gSnapReaders = obs.Default.GaugeOf("xqview_snapshot_readers", "snapshot handles currently held by readers")
	cSnapAcquire = obs.Default.CounterOf("xqview_snapshot_acquires_total", "snapshot handles acquired")
)

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
// snapshot plus one frame per registered view. Readers acquire it through
// SnapReg.Acquire and hold it as long as they like; maintenance rounds
// publish successors without ever writing a published version's structures.
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
	if obs.Enabled() {
		gSnapReaders.Add(-1)
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
				gSnapReaders.Add(1)
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
	if obs.Enabled() {
		gSnapEpoch.Set(int64(v.Seq))
		gSnapRetired.Set(int64(r.RetiredCount()))
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
	n := len(live)
	r.mu.Unlock()
	if obs.Enabled() {
		gSnapRetired.Set(int64(n))
	}
}

// RetiredCount returns how many retired versions still await draining.
func (r *SnapReg) RetiredCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.retired)
}

// Epoch returns the sequence number of the published version (0 when none).
func (r *SnapReg) Epoch() uint64 {
	if v := r.cur.Load(); v != nil {
		return v.Seq
	}
	return 0
}

// PublishFull captures the store and every view's live state as a fresh
// version and publishes it. This is the out-of-band path for changes of the
// store outside a round — initial load, document loads — so the store
// snapshot is a fresh base (SnapOf: map copies, no node copies) rather than
// an extension of the chain. Callers must hold the database's write lock
// (the store must be quiescent).
func (r *SnapReg) PublishFull(store *xmldoc.Store, views []*View) {
	r.publishLive(xmldoc.SnapOf(store), views)
}

// PublishFrames publishes the views' live state over the current version's
// store snapshot: the out-of-band path for changes that leave the store
// alone — view creation, renaming, recomputation. The snapshot is immutable,
// so the new version shares it instead of cloning the store again. Callers
// hold the database's write lock and have published at least once.
func (r *SnapReg) PublishFrames(views []*View) {
	r.publishLive(r.Current().Store, views)
}

func (r *SnapReg) publishLive(store *xmldoc.Snap, views []*View) {
	r.Publish(&Version{
		Seq:    r.seq.Add(1),
		Store:  store,
		Frames: liveFrames(views, r.Current()),
	})
}

// liveFrames captures every view's current extent and cache occupancy as
// frames. Extents are immutable going forward (the COW apply never writes
// published nodes), so capturing the slice headers is enough.
func liveFrames(views []*View, prev *Version) []ViewFrame {
	frames := make([]ViewFrame, len(views))
	for i, cv := range views {
		f := &frames[i]
		f.View, f.Name, f.Query = cv, cv.displayName(i), cv.Query
		f.Extent, f.CacheEntries = cv.Extent, cv.cache.Len()
		f.inheritBody(prev, i)
	}
	return frames
}

// buildCandidate assembles the next version from a round's staged outcome,
// BEFORE the round commits: the store snapshot extends the previous
// version's with the round's delta (post-images of exactly the keys source
// refresh touched — the delta commit installs into the store), staged views
// contribute their candidate extents and the cache occupancy their prepared
// commits install, untouched views carry their frames forward, serialized
// body included. The caller publishes the result only after the round
// installed.
func buildCandidate(reg *SnapReg, store *xmldoc.Store, delta *xmldoc.Delta, views []*View, stages []viewStage) (*Version, error) {
	if err := fpSnapBuild.Fire(); err != nil {
		return nil, fmt.Errorf("snapshot build: %w", err)
	}
	prev := reg.Current()
	var base *xmldoc.Snap
	if prev != nil {
		base = prev.Store
	} else {
		// First version ever published on this registry: no chain to extend.
		base = xmldoc.SnapOf(store)
	}
	v := &Version{Seq: reg.seq.Add(1), Store: base.Extend(delta), Frames: make([]ViewFrame, len(views))}
	for i, cv := range views {
		f := &v.Frames[i]
		f.View, f.Name, f.Query = cv, cv.displayName(i), cv.Query
		if st := &stages[i]; st.staged {
			f.Extent, f.CacheEntries = st.extent, st.prep.Len()
		} else {
			f.Extent, f.CacheEntries = cv.Extent, cv.cache.Len()
			f.inheritBody(prev, i)
		}
	}
	return v, nil
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
