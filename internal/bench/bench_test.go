package bench

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestAllFiguresRun executes every figure at a small scale, checking they
// produce non-empty tables, and that the span-derived Ch 3/4 breakdowns are
// populated: execution time in every row, identifier generation in the
// Fig 4.9/4.10 rows.
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
		if !strings.HasPrefix(f.ID, "Fig 3.") && !strings.HasPrefix(f.ID, "Fig 4.") {
			continue
		}
		positive := []string{"exec_ms"}
		if strings.HasPrefix(f.ID, "Fig 4.") {
			positive = append(positive, "idgen_ms")
		}
		for _, col := range positive {
			ci := slices.Index(f.Columns, col)
			if ci < 0 {
				t.Fatalf("%s has no %s column", f.ID, col)
			}
			for _, row := range f.Rows {
				if v, err := strconv.ParseFloat(row[ci], 64); err != nil || v <= 0 {
					t.Errorf("%s row %v: %s = %q, want > 0", f.ID, row, col, row[ci])
				}
			}
		}
	}
}
