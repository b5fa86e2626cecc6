package top

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xqview/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the frame golden files")

// fixtureFrame builds a deterministic payload exercising every layout row:
// a part-full window with varied phase times, cache traffic, an aborted
// round, arena occupancy, drop counters and journal extras.
func fixtureFrame() Frame {
	q := func(p50, p95, p99 float64, n int64) obs.PhaseQuantiles {
		return obs.PhaseQuantiles{P50: p50, P95: p95, P99: p99, N: n}
	}
	f := Frame{
		Enabled:     true,
		RoundsTotal: 42,
		WindowCap:   256,
		Quantiles: map[string]obs.PhaseQuantiles{
			"validate":  q(0.000010, 0.000025, 0.000031, 42),
			"propagate": q(0.000800, 0.001900, 0.002400, 42),
			"apply":     q(0.000120, 0.000310, 0.000480, 42),
			"source":    q(0.000004, 0.000009, 0.000012, 42),
			"total":     q(0.001100, 0.002600, 0.003300, 42),
			"read":      q(0.000015, 0.000055, 0.000090, 5150),
		},
		TraceDroppedEvents: 3,
		Extras: map[string]any{
			"journal_rounds":  12,
			"journal_cap":     256,
			"journal_dropped": 2,
			"journal_aborted": []any{"round 37: propagate view \"prices\": no delta rule"},
		},
	}
	for i := 0; i < 12; i++ {
		s := obs.RoundSample{
			Seq:          uint64(31 + i),
			UnixNano:     1700000000_000000000 + int64(i)*1_000_000_000,
			ValidateNS:   int64(8_000 + i*1_500),
			PropagateNS:  int64(600_000 + i*90_000),
			ApplyNS:      int64(90_000 + i*25_000),
			SourceNS:     int64(3_000 + i*400),
			TotalNS:      int64(800_000 + i*120_000),
			PrimsIn:      int32(6 + i%3),
			PrimsOut:     int32(4 + i%3),
			Views:        4,
			Skipped:      int32(i % 2),
			DeltaRoots:   int32(3 + i%4),
			CacheHits:    int32(9 + i),
			CacheMisses:  int32(i % 2),
			CacheFolds:   int32(1 + i%2),
			SharedGroups: 2,
			SharedFanout: int32(5 + i%2),
			SharedHits:   int32(3 + i%2),
			Merged:       int32(2 + i%3),
			Inserted:     int32(1 + i%2),
			Removed:      int32(i % 2),
			Modified:     1,
			ArenaBytes:   int64(40_960 + i*4_096),
			ArenaChunks:  int32(3 + i%2),
			HeapAllocs:   int64(5_500 + i*11),
			SnapEpoch:    int64(31 + i),
			SnapReaders:  int32(4 + i%2),
		}
		if i == 6 {
			s.Aborted = true
			s.TotalNS = 2_300_000
		}
		f.Window = append(f.Window, s)
	}
	return f
}

// TestRenderShape pins the frame contract across sizes, including clamping:
// exactly h lines of exactly w runes each.
func TestRenderShape(t *testing.T) {
	for _, sz := range [][2]int{{80, 24}, {120, 40}, {40, 10}, {1, 1}, {300, 80}} {
		w, h := sz[0], sz[1]
		frame := Render(fixtureFrame(), w, h)
		wantW, wantH := w, h
		if wantW < MinWidth {
			wantW = MinWidth
		}
		if wantH < MinHeight {
			wantH = MinHeight
		}
		lines := strings.Split(frame, "\n")
		if len(lines) != wantH {
			t.Fatalf("%dx%d: %d lines, want %d", w, h, len(lines), wantH)
		}
		for i, l := range lines {
			if got := len([]rune(l)); got != wantW {
				t.Fatalf("%dx%d line %d: %d runes, want %d: %q", w, h, i, got, wantW, l)
			}
		}
	}
}

// TestRenderGolden compares full frames at the two reference terminal sizes
// against golden files. Regenerate after intentional layout changes with:
//
//	go test ./internal/top -run TestRenderGolden -args -update-golden
func TestRenderGolden(t *testing.T) {
	for _, sz := range [][2]int{{80, 24}, {120, 40}} {
		w, h := sz[0], sz[1]
		t.Run(fmt.Sprintf("%dx%d", w, h), func(t *testing.T) {
			got := Render(fixtureFrame(), w, h) + "\n"
			path := filepath.Join("testdata", fmt.Sprintf("frame_%dx%d.golden", w, h))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -args -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("frame drifted from golden (regenerate with -args -update-golden if intentional)\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestRenderContent spot-checks that the load-bearing numbers of the payload
// actually surface in the frame.
func TestRenderContent(t *testing.T) {
	frame := Render(fixtureFrame(), 120, 40)
	for _, want := range []string{
		"rounds 42",
		"window 12/256",
		"telemetry on",
		"[! trace drops 3]",
		"[! journal drops 2]",
		"validate",
		"propagate",
		"#42", // last round's sequence
		"shared  groups 2  fanout 6  saved 4",
		"window shared hit-rate",
		"snap    epoch 42  readers 5",
		"read p50 15.0µs p99 90.0µs (5150)",
		"journal 12/256 (dropped 2)",
		"aborted rounds",
		"#37", // the window's aborted round
		"no delta rule",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestRenderEmpty renders the zero payload (telemetry off, no rounds yet):
// no panics, no badges, a truthful off state.
func TestRenderEmpty(t *testing.T) {
	frame := Render(Frame{}, 80, 24)
	if !strings.Contains(frame, "telemetry off") {
		t.Fatalf("empty frame does not report the off state:\n%s", frame)
	}
	if strings.Contains(frame, "[!") {
		t.Fatalf("empty frame raised warning badges:\n%s", frame)
	}
	if !strings.Contains(frame, "(none)") {
		t.Fatalf("empty frame missing empty abort log:\n%s", frame)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 6); got != "······" {
		t.Fatalf("empty sparkline = %q", got)
	}
	got := sparkline([]int64{0, 1, 4, 8}, 6)
	r := []rune(got)
	if len(r) != 6 {
		t.Fatalf("sparkline width = %d: %q", len(r), got)
	}
	if r[0] != '·' || r[1] != '·' {
		t.Fatalf("values not right-aligned: %q", got)
	}
	if r[2] != '▁' {
		t.Fatalf("zero value should render baseline: %q", got)
	}
	if r[5] != '█' {
		t.Fatalf("max value should render full block: %q", got)
	}
	// More samples than columns keeps the newest.
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	if got := sparkline(vals, 4); []rune(got)[3] != '█' {
		t.Fatalf("truncated sparkline lost the newest sample: %q", got)
	}
}

func TestRatioAndUnits(t *testing.T) {
	if ratio(1, 0) != "-" || ratio(1, 4) != "25%" {
		t.Fatal("ratio formatting broke")
	}
	for ns, want := range map[int64]string{
		0: "0", 500: "500ns", 2_500: "2.5µs", 1_500_000: "1.50ms", 2_000_000_000: "2.00s",
	} {
		if got := fmtNanos(ns); got != want {
			t.Fatalf("fmtNanos(%d) = %q, want %q", ns, got, want)
		}
	}
	if fmtBytes(512) != "512B" || fmtBytes(48<<10) != "48.0KiB" || fmtBytes(3<<20) != "3.0MiB" {
		t.Fatal("fmtBytes formatting broke")
	}
}
