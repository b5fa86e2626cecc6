// Snapshot-serving surface of the xqview command: the HTTP read endpoints
// (-http/-serve) and the -readers mixed-workload pool. Every read here goes
// through db.Snapshot() — a lock-free handle on the current published
// version — so serving keeps answering at full speed while maintenance
// rounds commit concurrently, and every response is internally consistent
// (one version's bytes, never a torn mix of pre- and post-round state).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"xqview"
	"xqview/internal/journal"
	"xqview/internal/obs"
)

// hRead is the snapshot read latency histogram: acquire + serve + release,
// one observation per HTTP read request or reader-pool operation. Its
// quantiles are the "readers don't stall behind the writer" signal the
// mixed-workload gate checks; obs.ReadSeconds is the shared registration the
// /stats/rounds payload reads the same series through.
var hRead = obs.ReadSeconds(obs.Default)

// Connection deadlines of the serving endpoint, so a client that stalls
// cannot hold a connection (and its goroutine) forever. There is no write
// deadline: /debug/pprof/profile streams for 30 s by design.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer mounts the observability routes plus the snapshot read endpoints
// over db, with the connection deadlines above.
func newServer(db *xqview.Database) *http.Server {
	return &http.Server{
		Handler: obs.Handler(obs.Default,
			obs.Route{Pattern: "/journal", Handler: journal.Default.HTTPHandler()},
			obs.Route{Pattern: "/stats/rounds", Handler: obs.RoundsHandler(obs.Default, obs.Rounds, journalExtras)},
			obs.Route{Pattern: "/snapshot", Handler: snapshotHandler(db)},
			obs.Route{Pattern: "/view", Handler: viewHandler(db)},
			obs.Route{Pattern: "/query", Handler: queryHandler(db)}),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// snapshotHandler serves /snapshot: a JSON digest of the current published
// version — epoch, store overlay depth, documents, and per-view cache
// occupancy — without taking the maintenance lock.
func snapshotHandler(db *xqview.Database) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		start := time.Now()
		snap := db.Snapshot()
		defer snap.Release()
		type viewInfo struct {
			Name         string `json:"name"`
			CacheEntries int    `json:"cache_entries"`
		}
		views := []viewInfo{}
		for _, name := range snap.Views() {
			views = append(views, viewInfo{Name: name, CacheEntries: snap.CacheEntries(name)})
		}
		resp := map[string]any{
			"epoch":       snap.Epoch(),
			"store_depth": snap.StoreDepth(),
			"documents":   snap.Documents(),
			"views":       views,
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(resp)
		hRead.Observe(time.Since(start))
	})
}

// viewHandler serves /view?name=N: the named view's extent as of the
// current snapshot. With no name and exactly one view in the snapshot, that
// view is served.
func viewHandler(db *xqview.Database) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		snap := db.Snapshot()
		defer snap.Release()
		name := r.URL.Query().Get("name")
		if name == "" {
			views := snap.Views()
			if len(views) != 1 {
				http.Error(w, fmt.Sprintf("need ?name= (snapshot holds %d views)", len(views)),
					http.StatusBadRequest)
				return
			}
			name = views[0]
		}
		xml, err := snap.ViewXML(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		w.Header().Set("X-Xqview-Epoch", fmt.Sprint(snap.Epoch()))
		writeBody(w, xml)
		hRead.Observe(time.Since(start))
	})
}

// writeBody sends a serialized result and the newline that ends it without
// copying the string: a view body is shared by every reader of its version.
// A failed write means the client went away; there is nobody to tell.
func writeBody(w http.ResponseWriter, body string) {
	if _, err := io.WriteString(w, body); err == nil {
		_, _ = io.WriteString(w, "\n")
	}
}

// queryHandler serves /query?q=EXPR: an ad-hoc XQuery evaluated against the
// current snapshot's store. Compilation and execution run entirely on the
// reader's immutable version, concurrent with maintenance.
func queryHandler(db *xqview.Database) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		q := r.URL.Query().Get("q")
		if q == "" {
			http.Error(w, "need ?q=<xquery expression>", http.StatusBadRequest)
			return
		}
		snap := db.Snapshot()
		defer snap.Release()
		res, err := snap.Query(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		w.Header().Set("X-Xqview-Epoch", fmt.Sprint(snap.Epoch()))
		writeBody(w, res)
		hRead.Observe(time.Since(start))
	})
}

// readerReport is what a drained reader pool measured: operation and error
// counts plus the read-latency quantiles over the pool's lifetime.
type readerReport struct {
	Reads  int64
	Errors int64
	P50    time.Duration
	P99    time.Duration
}

// startReaders launches n goroutines that serve the named view from
// snapshots in a tight loop — acquire, read the frame's body, release —
// while the caller applies updates. The returned stop function drains the
// pool and reports what it measured. Readers never take the maintenance
// lock, so the pool models concurrent HTTP clients hammering /view during
// maintenance.
func startReaders(db *xqview.Database, view string, n int) func() readerReport {
	var (
		stop atomic.Bool
		ops  atomic.Int64
		errs atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			// Read-then-check: every reader completes at least one full
			// acquire/serve/release even when the update batch finishes
			// before the scheduler first runs the pool.
			for {
				start := time.Now()
				snap := db.Snapshot()
				if _, err := snap.ViewXML(view); err != nil {
					errs.Add(1)
				}
				snap.Release()
				hRead.Observe(time.Since(start))
				ops.Add(1)
				if stop.Load() {
					return
				}
			}
		}()
	}
	return func() readerReport {
		stop.Store(true)
		wg.Wait()
		return readerReport{
			Reads:  ops.Load(),
			Errors: errs.Load(),
			P50:    hRead.Quantile(0.50),
			P99:    hRead.Quantile(0.99),
		}
	}
}
