package xqview

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"xqview/internal/core"
	"xqview/internal/obs"
)

// codeSpan matches one backticked span of Markdown.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// designSection returns the body of DESIGN.md's "## <title>" section, up to
// the next second-level heading.
func designSection(t *testing.T, doc, title string) string {
	t.Helper()
	_, body, ok := strings.Cut(doc, "\n## "+title+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no %q section", title)
	}
	if end := strings.Index(body, "\n## "); end >= 0 {
		body = body[:end]
	}
	return body
}

// sortedSet returns the distinct strings of xs, sorted.
func sortedSet(xs []string) []string {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// tableColumn returns the backticked names in column col of every row of
// the first Markdown table in section whose header names that column.
func tableColumn(t *testing.T, section, col string) []string {
	t.Helper()
	var names []string
	idx := -1
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if idx >= 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if idx < 0 {
			idx = slices.IndexFunc(cells, func(c string) bool { return strings.TrimSpace(c) == col })
			if idx < 0 {
				t.Fatalf("table header has no %s column: %s", col, line)
			}
			continue
		}
		if idx >= len(cells) {
			t.Fatalf("table row has %d cells, the %s column is %d: %s", len(cells), col, idx, line)
		}
		for _, m := range codeSpan.FindAllStringSubmatch(cells[idx], -1) {
			names = append(names, m[1])
		}
	}
	if idx < 0 {
		t.Fatalf("no table with a %s column", col)
	}
	return names
}

// TestDesignTablesMatchTree holds DESIGN.md to the tree where it lists what
// the code defines, in the manner of TestStructFieldsReferenced:
//   - the "fault point(s)" column of the round's phase table names exactly
//     the registered fault sites (core.FaultSites);
//   - the state cache's eviction-cause table names exactly the cause
//     labels registered on xat_state_cache_evictions_total;
//   - the "Configuration" section names exactly the fields of core.Options.
//     There a bare capitalized identifier in backticks is read as a field;
//     other names are qualified (`core.RecomputeAll`) and tests are cited by
//     their Test… names.
func TestDesignTablesMatchTree(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	tabled := tableColumn(t, designSection(t, doc, "The maintenance round"), "fault point(s)")
	if got, want := sortedSet(tabled), sortedSet(core.FaultSites()); !slices.Equal(got, want) {
		t.Errorf("phase table fault points %v, want the registered sites %v", got, want)
	}

	causes := tableColumn(t, designSection(t, doc, "Propagation state cache & relevance pruning"), "cause")
	series := regexp.MustCompile(`^xat_state_cache_evictions_total\{cause="([^"]+)"\}$`)
	var registered []string
	for name := range obs.Default.Snapshot() {
		if m := series.FindStringSubmatch(name); m != nil {
			registered = append(registered, m[1])
		}
	}
	if len(registered) == 0 {
		t.Fatal("no xat_state_cache_evictions_total series is registered")
	}
	if got, want := sortedSet(causes), sortedSet(registered); !slices.Equal(got, want) {
		t.Errorf("eviction-cause table names %v, want the registered causes %v", got, want)
	}

	bare := regexp.MustCompile(`^[A-Z][A-Za-z0-9]*$`)
	var named []string
	for _, m := range codeSpan.FindAllStringSubmatch(designSection(t, doc, "Configuration"), -1) {
		if bare.MatchString(m[1]) && !strings.HasPrefix(m[1], "Test") {
			named = append(named, m[1])
		}
	}
	var fields []string
	for ot, i := reflect.TypeFor[core.Options](), 0; i < ot.NumField(); i++ {
		fields = append(fields, ot.Field(i).Name)
	}
	if got, want := sortedSet(named), sortedSet(fields); !slices.Equal(got, want) {
		t.Errorf("Configuration names option fields %v, want core.Options' fields %v", got, want)
	}
}
