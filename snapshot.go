package xqview

import (
	"fmt"

	"xqview/internal/core"
	"xqview/internal/xmldoc"
)

// Snapshot is a reader's handle on one immutable published version of the
// database: the source documents, every view's extent, and each view's
// propagation-cache occupancy, all as of a single maintenance-round commit.
// Acquiring and reading a snapshot never takes the maintenance lock —
// rounds keep committing concurrently, and the snapshot keeps serving
// exactly its version's bytes until released.
//
// Callers must Release the handle when done; holding it only delays
// reclamation of the version's delta overlays, never blocks a writer.
type Snapshot struct {
	v *core.Version
}

// Snapshot acquires a handle on the current published version. Lock-free:
// a pointer load plus a reference count. Release the handle when done.
func (db *Database) Snapshot() *Snapshot {
	return &Snapshot{v: db.snaps.Acquire()}
}

// Release drops the handle. The snapshot must not be used afterwards.
func (s *Snapshot) Release() {
	s.v.Release()
	s.v = nil
}

// Epoch returns the version's sequence number: strictly increasing with
// every committed round or out-of-band mutation, so two snapshots with the
// same epoch serve byte-identical state.
func (s *Snapshot) Epoch() uint64 { return s.v.Seq }

// Query evaluates an XQuery expression against the snapshot and returns the
// serialized result.
func (s *Snapshot) Query(query string) (string, error) {
	return core.QueryReader(s.v.Store, query)
}

// DocumentXML serializes a document as of the snapshot.
func (s *Snapshot) DocumentXML(name string) (string, error) {
	root, ok := s.v.Store.Root(name)
	if !ok {
		return "", fmt.Errorf("xqview: document %q not loaded", name)
	}
	return xmldoc.Serialize(s.v.Store, root), nil
}

// Documents lists the snapshot's document names.
func (s *Snapshot) Documents() []string { return s.v.Store.Docs() }

// Views lists the snapshot's view names in registration order.
func (s *Snapshot) Views() []string {
	out := make([]string, len(s.v.Frames))
	for i := range s.v.Frames {
		out[i] = s.v.Frames[i].Name
	}
	return out
}

// ViewXML serializes the named view's extent as of the snapshot.
func (s *Snapshot) ViewXML(name string) (string, error) {
	f := s.v.Frame(name)
	if f == nil {
		return "", fmt.Errorf("xqview: view %q not in snapshot", name)
	}
	return f.XML(), nil
}

// ViewQuery returns the named view's definition as of the snapshot.
func (s *Snapshot) ViewQuery(name string) (string, error) {
	f := s.v.Frame(name)
	if f == nil {
		return "", fmt.Errorf("xqview: view %q not in snapshot", name)
	}
	return f.Query, nil
}

// CacheEntries reports how many propagation-cache tables the named view held
// as of the snapshot (0 for unknown views or cold caches).
func (s *Snapshot) CacheEntries(name string) int {
	if f := s.v.Frame(name); f != nil {
		return f.CacheEntries
	}
	return 0
}

// StoreDepth reports the store snapshot's overlay-chain depth (bounded by
// the flattening threshold), for telemetry endpoints.
func (s *Snapshot) StoreDepth() int { return s.v.Store.Depth() }
