package bench

import (
	"strings"
	"testing"
)

// TestAllFiguresRun executes every figure at a small scale, checking they
// produce non-empty tables.
func TestAllFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short mode")
	}
	figs, err := All(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 12 {
		t.Fatalf("figures: %d", len(figs))
	}
	for _, f := range figs {
		if len(f.Rows) == 0 {
			t.Fatalf("%s produced no rows", f.ID)
		}
		s := f.String()
		if !strings.Contains(s, f.ID) {
			t.Fatalf("rendering of %s broken", f.ID)
		}
	}
}
