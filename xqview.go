// Package xqview is an incremental view-maintenance engine for materialized
// XQuery views, reproducing the system of M. El-Sayed, "Incremental
// Maintenance of Materialized XQuery Views" (WPI, 2005 / ICDE 2006).
//
// A Database holds XML source documents. Views are defined in an XQuery
// subset (FLWOR expressions, XPath navigation, element constructors,
// distinct-values, aggregates) and materialized once; afterwards, source
// updates expressed in the XQuery update language (insert / delete /
// replace) are propagated incrementally through the view's algebra plan and
// fused into the materialized extent by a count-aware deep union — without
// recomputing the view.
//
// Maintenance has one configuration: every round runs state-cached, shared
// across views, arena-backed, batch-compacted and relevance-filtered, and
// full recomputation (View.Recompute) is the oracle it is tested against.
//
// Quick start:
//
//	db := xqview.NewDatabase()
//	db.LoadDocument("bib.xml", "<bib>...</bib>")
//	v, err := db.CreateView(`<result>{ for $b in doc("bib.xml")/bib/book return $b/title }</result>`)
//	fmt.Println(v.XML())
//	v.ApplyUpdates(`for $b in document("bib.xml")/bib/book[1] update $b delete $b`)
//	fmt.Println(v.XML()) // refreshed incrementally
package xqview

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"

	"xqview/internal/core"
	"xqview/internal/journal"
	"xqview/internal/obs"
	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

// Database is a collection of XML source documents plus the views defined
// over them. All methods are safe for concurrent use. Writes (updates, view
// creation, document loads) take exclusive access; reads — Query,
// DocumentXML, View.XML, Snapshot — serve from the published MVCC version
// behind a single atomic pointer and never take the maintenance lock, so
// they proceed undisturbed while maintenance rounds commit.
type Database struct {
	mu    sync.RWMutex
	store *xmldoc.Store
	views []*View
	// set is the registered views compiled once, in registration order: the
	// merged SAPT and the shared sub-plan DAG every round reuses.
	set  *core.ViewSet
	opts core.Options
	log  *slog.Logger
	rec  *journal.StreamWriter

	// snaps is the MVCC epoch registry: every committed maintenance round
	// publishes the next immutable version into it (store root, view
	// extents, cache occupancy), and so does every change made outside a
	// round — document loads, view creation, renaming, recomputation —
	// through the one PublishLive. Readers acquire version handles lock-free
	// through it.
	snaps *core.SnapReg
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	store := xmldoc.NewStore()
	set, _ := core.NewViewSet(store, nil) // no views, so no store to mismatch
	db := &Database{store: store, set: set, snaps: core.NewSnapReg()}
	db.opts.Snapshots = db.snaps
	db.snaps.PublishLive(db.store, db.set.Views)
	return db
}

// SetParallelism bounds how many views are maintained (or recomputed)
// concurrently per update batch. Zero, the default, uses GOMAXPROCS; one
// forces the sequential path. Views over the same database always refresh
// under a single batch regardless, so the setting only affects wall-clock,
// never results.
func (db *Database) SetParallelism(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.opts.Parallelism = n
}

// SetTracer attaches an observability tracer: every maintenance batch
// records spans for the VPA phases of each view and for every operator of
// the propagated plans. Write the result with obs.Tracer.WriteJSON and open
// it in chrome://tracing or Perfetto. A nil tracer disables tracing.
func (db *Database) SetTracer(t *obs.Tracer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.opts.Tracer = t
}

// SetLogger attaches a structured logger: the database emits one summary
// line per view per maintenance batch at info level, and one line per
// failed batch at error level. A nil logger (the default) is silent.
func (db *Database) SetLogger(l *slog.Logger) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.log = l
}

// SetUpdateRecorder streams every subsequent update batch to w, one JSON
// line per batch, in the order the batches are applied. The stream captures
// the update primitives BEFORE maintenance assigns node keys, so feeding it
// back through ReplayUpdates against the same initial documents reproduces
// the exact same maintenance rounds (view extents, journal records and
// all). A nil w stops recording.
func (db *Database) SetUpdateRecorder(w io.Writer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if w == nil {
		db.rec = nil
		return
	}
	db.rec = journal.NewStreamWriter(w)
}

// ReplayUpdates reads a primitive stream previously written by an update
// recorder and re-applies each recorded batch in order, maintaining every
// registered view. It returns how many batches were applied. Replayed
// batches are not re-recorded.
func (db *Database) ReplayUpdates(r io.Reader) (int, error) {
	rounds, err := journal.ReadStream(r)
	if err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, prims := range rounds {
		if _, err := db.applyPrims(prims, 0); err != nil {
			return i, fmt.Errorf("xqview: replaying batch %d: %w", i+1, err)
		}
	}
	return len(rounds), nil
}

// LoadDocument parses src as XML and registers it under the given name,
// assigning FlexKey identifiers to every node. A failed load changes
// nothing and publishes no version.
//
// A load leaves every cached propagation table valid: a view is compiled
// only over loaded documents, and a loaded name cannot be loaded again, so
// no cached table reads the new document.
func (db *Database) LoadDocument(name, src string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.store.Load(name, src); err != nil {
		return err
	}
	db.snaps.PublishLive(db.store, db.set.Views)
	return nil
}

// DocumentXML serializes a document as of the published version, without
// taking the maintenance lock.
func (db *Database) DocumentXML(name string) (string, error) {
	snap := db.Snapshot()
	defer snap.Release()
	return snap.DocumentXML(name)
}

// Documents lists the document names of the published version, without
// taking the maintenance lock.
func (db *Database) Documents() []string {
	snap := db.Snapshot()
	defer snap.Release()
	return snap.Documents()
}

// Query evaluates an XQuery expression once against the published version
// and returns the serialized result (no materialization kept). It never
// takes the maintenance lock: a concurrent maintenance round neither blocks
// the query nor tears its input — the whole evaluation sees one immutable
// snapshot.
func (db *Database) Query(query string) (string, error) {
	snap := db.Snapshot()
	defer snap.Release()
	return snap.Query(query)
}

// CreateView compiles the query, materializes its extent and registers the
// view for maintenance.
func (db *Database) CreateView(query string) (*View, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cv, err := core.NewView(db.store, query)
	if err != nil {
		return nil, err
	}
	cv.Name = fmt.Sprintf("view-%d", len(db.views))
	// A new plan may overlap existing ones: recompile the set, whose shared
	// partitions start cold.
	set, err := core.NewViewSet(db.store, append(db.set.Views, cv))
	if err != nil {
		return nil, err
	}
	v := &View{db: db, view: cv}
	db.views = append(db.views, v)
	db.set = set
	// Readers acquire the new view's frame from the next published version.
	db.snaps.PublishLive(db.store, db.set.Views)
	return v, nil
}

// View is a materialized XQuery view maintained incrementally under source
// updates.
type View struct {
	db   *Database
	view *core.View
}

// Query returns the view's definition.
func (v *View) Query() string { return v.view.Query }

// Name returns the view's label, used in traces, logs and maintenance
// errors. Defaults to "view-<n>" in registration order.
func (v *View) Name() string {
	v.db.mu.RLock()
	defer v.db.mu.RUnlock()
	return v.view.Name
}

// SetName relabels the view.
func (v *View) SetName(name string) {
	v.db.mu.Lock()
	defer v.db.mu.Unlock()
	v.view.Name = name
	// Frames capture the name; republish so snapshot lookups see it.
	v.db.snaps.PublishLive(v.db.store, v.db.set.Views)
}

// frame returns the view's frame in the published version, with a handle
// held on the version. Reads are lock-free; the caller releases.
func (v *View) frame() (*core.ViewFrame, *Snapshot) {
	snap := v.db.Snapshot()
	return snap.v.FrameOf(v.view), snap
}

// XML serializes the materialized extent as of the published version,
// without taking the maintenance lock.
func (v *View) XML() string {
	f, snap := v.frame()
	defer snap.Release()
	if f == nil {
		return ""
	}
	return f.XML()
}

// XMLIndent serializes the published extent with indentation.
func (v *View) XMLIndent() string {
	f, snap := v.frame()
	defer snap.Release()
	if f == nil {
		return ""
	}
	var b strings.Builder
	for _, r := range f.Extent {
		if frag := r.Frag(); frag != nil {
			b.WriteString(frag.StringIndent("  "))
		}
	}
	return b.String()
}

// PlanString renders the compiled algebra plan (for inspection).
func (v *View) PlanString() string { return v.view.Plan.Dump() }

// SAPTString renders the view's Source Access Pattern Tree.
func (v *View) SAPTString() string { return v.view.SAPT.Dump() }

// Recompute re-materializes the extent from scratch (the baseline the
// incremental path is measured against).
func (v *View) Recompute() error {
	v.db.mu.Lock()
	defer v.db.mu.Unlock()
	err := v.view.Materialize()
	// The extent changed outside a round.
	v.db.snaps.PublishLive(v.db.store, v.db.set.Views)
	return err
}

// SelfMaintainable reports whether the view is maintainable purely from the
// propagated updates, without re-deriving any base state from the source
// documents (no joins, no aggregation). Self-maintainable views refresh in
// time proportional to the update, independent of document size.
func (v *View) SelfMaintainable() bool { return v.view.Plan.SelfMaintainable() }

// MaintenanceReport summarizes one incremental maintenance run: the
// validate / propagate / apply breakdown of the VPA framework plus what
// each phase did.
type MaintenanceReport struct {
	Validate  time.Duration // relevancy, sufficiency, rewriting, batching
	Propagate time.Duration // incremental maintenance plan execution
	Apply     time.Duration // deep union into the extent
	Source    time.Duration // refreshing the base documents
	Total     time.Duration

	UpdatesTotal      int  // primitives submitted
	UpdatesIrrelevant int  // discarded by the SAPT relevancy check
	UpdatesRewritten  int  // converted to delete+insert of their anchor
	DeltaTrees        int  // delta update trees produced by propagation
	NodesMerged       int  // view nodes whose counts were merged
	NodesInserted     int  // delta subtrees attached
	FragmentsRemoved  int  // fragments disconnected at their root
	ValuesModified    int  // in-place value replacements
	Skipped           bool // Propagate+Apply pruned by the relevance filter
}

// ApplyUpdates parses one or more XQuery update statements, evaluates them
// against the sources and maintains EVERY view registered on the database
// (they share the sources, so all must refresh together); the returned
// report is this view's. On success the source documents are updated too.
// Statement form:
//
//	for $v in document("doc")/path [ where $v/path = "lit" [and ...] ]
//	update $v
//	( insert <frag/> (after|before|into) $v[/path]
//	| delete $v[/path]
//	| replace $v/path with "lit" )
func (v *View) ApplyUpdates(script string) (*MaintenanceReport, error) {
	reports, err := v.db.ApplyUpdates(script)
	if err != nil {
		return nil, err
	}
	for i, vv := range v.db.views {
		if vv == v {
			return reports[i], nil
		}
	}
	return nil, fmt.Errorf("xqview: view not registered on its database")
}

// ApplyUpdates parses one or more XQuery update statements, evaluates them
// against the sources, incrementally maintains every registered view, and
// refreshes the source documents. It returns one report per view, in
// registration order.
func (db *Database) ApplyUpdates(script string) ([]*MaintenanceReport, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t0 := time.Now()
	prims, err := update.ParseAndEvaluate(db.store, script)
	if err != nil {
		return nil, err
	}
	eval := time.Since(t0)
	if db.rec != nil {
		// Record before maintenance: keys are assigned during validation,
		// so the stream stays replayable against the pre-update documents.
		if err := db.rec.WriteRound(prims); err != nil {
			return nil, fmt.Errorf("xqview: recording update batch: %w", err)
		}
	}
	return db.applyPrims(prims, eval)
}

// applyPrims maintains every registered view under one batch of update
// primitives; eval is the time their script took to parse and evaluate (zero
// for a replayed batch). Callers hold db.mu.
func (db *Database) applyPrims(prims []*update.Primitive, eval time.Duration) ([]*MaintenanceReport, error) {
	stats, err := core.MaintainAll(db.set, prims, eval, db.opts)
	if err != nil {
		if db.log != nil {
			db.log.Error("maintenance failed", "err", err)
		}
		return nil, err
	}
	out := make([]*MaintenanceReport, len(stats))
	for i, ms := range stats {
		out[i] = report(ms)
		if db.log != nil {
			r := out[i]
			db.log.Info("maintained",
				"view", db.set.Views[i].Name,
				"validate", r.Validate, "propagate", r.Propagate,
				"apply", r.Apply, "source", r.Source, "total", r.Total,
				"updates", r.UpdatesTotal, "irrelevant", r.UpdatesIrrelevant,
				"deltas", r.DeltaTrees, "merged", r.NodesMerged,
				"inserted", r.NodesInserted, "removed", r.FragmentsRemoved)
		}
	}
	return out, nil
}

func report(ms *core.MaintStats) *MaintenanceReport {
	return &MaintenanceReport{
		Validate:          ms.Validate,
		Propagate:         ms.Propagate,
		Apply:             ms.Apply,
		Source:            ms.Source,
		Total:             ms.Total,
		UpdatesTotal:      ms.Validation.Total,
		UpdatesIrrelevant: ms.Validation.Irrelevant,
		UpdatesRewritten:  ms.Validation.Rewritten,
		DeltaTrees:        ms.DeltaRoots,
		NodesMerged:       ms.Union.Merged,
		NodesInserted:     ms.Union.Inserted,
		FragmentsRemoved:  ms.Union.Removed,
		ValuesModified:    ms.Union.Modified,
		Skipped:           ms.Skipped != 0,
	}
}

// String renders the report in a compact single-line form.
func (r *MaintenanceReport) String() string {
	skipped := ""
	if r.Skipped {
		skipped = " skipped=true"
	}
	return fmt.Sprintf(
		"validate=%v propagate=%v apply=%v source=%v total=%v (updates=%d irrelevant=%d rewritten=%d deltas=%d merged=%d inserted=%d removed=%d modified=%d%s)",
		r.Validate, r.Propagate, r.Apply, r.Source, r.Total,
		r.UpdatesTotal, r.UpdatesIrrelevant, r.UpdatesRewritten, r.DeltaTrees,
		r.NodesMerged, r.NodesInserted, r.FragmentsRemoved, r.ValuesModified, skipped)
}
