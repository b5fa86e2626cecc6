package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"xqview"
	"xqview/internal/obs"
)

// TestSnapshotEndpointsServe exercises the MVCC read endpoints end to end:
// -http -serve mounts /snapshot, /view and /query, and each answers from
// the published version — the refreshed post-update state — with the epoch
// stamped on the response.
func TestSnapshotEndpointsServe(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(false)) // -http enables globally; restore
	obs.Rounds.Reset()
	dir := t.TempDir()
	doc := write(t, dir, "bib.xml", topTestDoc)
	query := write(t, dir, "q.xq", topTestQuery)
	upd := write(t, dir, "u.xqu", topTestUpdates)
	testShutdown = make(chan os.Signal, 1)
	defer func() { testShutdown = nil }()
	var out, errw syncBuf
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-doc", "bib.xml=" + doc, "-query", query,
			"-updates", upd, "-http", "127.0.0.1:0", "-serve"}, &out, &errw)
	}()
	var addr string
	for i := 0; i < 500 && addr == ""; i++ {
		if s := errw.String(); strings.Contains(s, "serving until interrupted") {
			for _, f := range strings.Fields(s) {
				if rest, ok := strings.CutPrefix(f, "addr=127.0.0.1:"); ok {
					addr = "127.0.0.1:" + rest
					break
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		testShutdown <- os.Interrupt
		<-done
		t.Fatalf("endpoint never came up:\n%s", errw.String())
	}
	get := func(path string) (int, http.Header, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header, string(body)
	}

	code, _, body := get("/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot = %d: %s", code, body)
	}
	var snap struct {
		Epoch     uint64   `json:"epoch"`
		Documents []string `json:"documents"`
		Views     []struct {
			Name string `json:"name"`
		} `json:"views"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot is not JSON: %v\n%s", err, body)
	}
	// Load + view creation + one maintenance round: at least three publishes.
	if snap.Epoch < 3 || len(snap.Documents) != 1 || len(snap.Views) != 1 {
		t.Fatalf("/snapshot digest implausible: %+v", snap)
	}

	code, hdr, body := get("/view")
	if code != http.StatusOK {
		t.Fatalf("/view = %d: %s", code, body)
	}
	// The update deleted book B; the served extent must be the post-round one.
	if !strings.Contains(body, "<title>A</title>") || strings.Contains(body, "<title>B</title>") {
		t.Fatalf("/view serves stale or torn extent:\n%s", body)
	}
	if hdr.Get("X-Xqview-Epoch") != fmt.Sprint(snap.Epoch) {
		t.Fatalf("/view epoch %q != /snapshot epoch %d", hdr.Get("X-Xqview-Epoch"), snap.Epoch)
	}
	if code, _, body = get("/view?name=nosuch"); code != http.StatusNotFound {
		t.Fatalf("/view?name=nosuch = %d: %s", code, body)
	}

	q := url.QueryEscape(`doc("bib.xml")/bib/book/title`)
	code, _, body = get("/query?q=" + q)
	if code != http.StatusOK || strings.TrimSpace(body) != "<title>A</title>" {
		t.Fatalf("/query = %d %q, want the one surviving title", code, body)
	}
	if code, _, body = get("/query"); code != http.StatusBadRequest {
		t.Fatalf("/query with no q = %d: %s", code, body)
	}
	if code, _, body = get("/query?q=" + url.QueryEscape("1 +")); code != http.StatusBadRequest {
		t.Fatalf("/query with bad expression = %d: %s", code, body)
	}

	testShutdown <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, errw.String())
	}
}

// TestRunReadersFlag drives the mixed-workload mode: the reader pool must
// spin up before updates apply, every read must serve cleanly off a
// snapshot, and the drain report must carry the latency quantiles.
func TestRunReadersFlag(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(false)) // -readers enables globally; restore
	dir := t.TempDir()
	doc := write(t, dir, "bib.xml", topTestDoc)
	query := write(t, dir, "q.xq", topTestQuery)
	upd := write(t, dir, "u.xqu", topTestUpdates)
	var out, errw strings.Builder
	err := run([]string{"-doc", "bib.xml=" + doc, "-query", query,
		"-updates", upd, "-readers", "2"}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, errw.String())
	}
	logs := errw.String()
	if !strings.Contains(logs, "mixed-workload readers up") {
		t.Fatalf("stderr missing reader startup log:\n%s", logs)
	}
	drain := ""
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "mixed-workload readers drained") {
			drain = line
		}
	}
	if drain == "" {
		t.Fatalf("stderr missing reader drain report:\n%s", logs)
	}
	for _, want := range []string{"read_errors=0", "read_p50=", "read_p99="} {
		if !strings.Contains(drain, want) {
			t.Fatalf("drain report missing %q: %s", want, drain)
		}
	}
	if strings.Contains(drain, "reads=0 ") {
		t.Fatalf("reader pool never completed a read: %s", drain)
	}
	// The refreshed view still prints after the pool drains.
	if !strings.Contains(out.String(), "<title>A</title>") {
		t.Fatalf("refreshed view missing from stdout:\n%s", out.String())
	}
}

// TestRunReadersFlagValidation pins the flag's preconditions: a negative
// count and a run with no update source are both refused.
func TestRunReadersFlagValidation(t *testing.T) {
	dir := t.TempDir()
	doc := write(t, dir, "bib.xml", topTestDoc)
	query := write(t, dir, "q.xq", topTestQuery)
	var out, errw strings.Builder
	err := run([]string{"-doc", "bib.xml=" + doc, "-query", query, "-readers", "2"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-readers needs") {
		t.Fatalf("readers without updates: err = %v", err)
	}
	err = run([]string{"-doc", "bib.xml=" + doc, "-query", query, "-readers", "-1"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("negative readers: err = %v", err)
	}
}

// TestServerDropsStalledClient pins the endpoint's connection deadlines: a
// client that never finishes its request header is disconnected by the
// server once readHeaderTimeout passes, and /healthz keeps answering on
// other connections before and after.
func TestServerDropsStalledClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(xqview.NewDatabase())
	go srv.Serve(ln)
	defer srv.Close()
	healthz := func(when string) {
		t.Helper()
		resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
		if err != nil {
			t.Fatalf("/healthz %s: %v", when, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz %s = %d", when, resp.StatusCode)
		}
	}

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	// The header block is never terminated.
	if _, err := io.WriteString(stalled, "GET /healthz HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	healthz("beside the stalled connection")

	stalled.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
	n, err := stalled.Read(make([]byte, 1))
	var ne net.Error
	switch {
	case err == nil:
		t.Fatalf("server answered a request whose header never ended (%d bytes)", n)
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("server still holds the stalled connection %v past its header deadline", 10*time.Second)
	}
	healthz("after the stalled connection was dropped")
}
