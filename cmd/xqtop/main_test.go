package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xqview/internal/obs"
)

// telemetryServer serves a canned /stats/rounds payload the way a serving
// xqview does.
func telemetryServer(t *testing.T) *httptest.Server {
	t.Helper()
	rs := obs.NewRoundSeries(8, obs.NewRegistry())
	rs.Append(obs.RoundSample{TotalNS: 1_500_000, PropagateNS: 1_000_000, PrimsIn: 3, PrimsOut: 2, Views: 4})
	rs.Append(obs.RoundSample{TotalNS: 2_500_000, Aborted: true, PrimsIn: 1, Views: 4})
	mux := http.NewServeMux()
	mux.Handle("/stats/rounds", obs.RoundsHandler(rs, func() map[string]any {
		return map[string]any{"journal_rounds": 2, "journal_cap": 256, "journal_dropped": 0}
	}))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestOnceRendersFetchedFrame runs xqtop -once against a fake serving
// process and checks the frame reflects the fetched payload at the
// requested size.
func TestOnceRendersFetchedFrame(t *testing.T) {
	srv := telemetryServer(t)
	var out, errb bytes.Buffer
	if err := run([]string{"-addr", srv.URL, "-once", "-w", "100", "-h", "30"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	frame := out.String()
	lines := strings.Split(strings.TrimSuffix(frame, "\n"), "\n")
	if len(lines) != 30 {
		t.Fatalf("frame has %d lines, want 30", len(lines))
	}
	for i, l := range lines {
		if got := len([]rune(l)); got != 100 {
			t.Fatalf("line %d is %d runes, want 100", i, got)
		}
	}
	for _, want := range []string{"rounds 2", "propagate", "journal 2/256", "#2", "aborted rounds"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "\x1b[") {
		t.Fatal("-once emitted terminal control sequences")
	}
}

// TestOnceSchemelessAddr accepts the bare host:port that xqview -http
// prints (and the README suggests) by defaulting the http scheme.
func TestOnceSchemelessAddr(t *testing.T) {
	srv := telemetryServer(t)
	addr := strings.TrimPrefix(srv.URL, "http://")
	var out, errb bytes.Buffer
	if err := run([]string{"-addr", addr, "-once", "-w", "80", "-h", "24"}, &out, &errb); err != nil {
		t.Fatalf("run with schemeless addr: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "rounds 2") {
		t.Fatalf("frame missing fetched payload:\n%s", out.String())
	}
}

// TestOnceUnreachable pins the error path: a dead endpoint fails the -once
// run instead of printing an empty frame.
func TestOnceUnreachable(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-addr", "http://127.0.0.1:1", "-once"}, &out, &errb)
	if err == nil {
		t.Fatal("expected connection error")
	}
	if out.Len() != 0 {
		t.Fatalf("error run still printed a frame:\n%s", out.String())
	}
}

// TestOnceBadStatus pins the non-200 path.
func TestOnceBadStatus(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	var out, errb bytes.Buffer
	err := run([]string{"-addr", srv.URL, "-once"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("err = %v, want HTTP 404", err)
	}
}
