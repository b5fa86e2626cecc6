package xqview

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"xqview/internal/core"
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

// TestDesignTablesMatchTree holds DESIGN.md to the tree where it lists what
// the code defines, in the manner of TestStructFieldsReferenced:
//   - the "fault point(s)" column of the round's phase table names exactly
//     the registered fault sites (core.FaultSites);
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

	var tabled []string
	col := -1
	for _, line := range strings.Split(designSection(t, doc, "The maintenance round"), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if col < 0 {
			col = slices.IndexFunc(cells, func(c string) bool { return strings.TrimSpace(c) == "fault point(s)" })
			if col < 0 {
				t.Fatalf("phase table header has no fault point(s) column: %s", line)
			}
			continue
		}
		if col >= len(cells) {
			t.Fatalf("phase table row has %d cells, the fault column is %d: %s", len(cells), col, line)
		}
		for _, m := range codeSpan.FindAllStringSubmatch(cells[col], -1) {
			tabled = append(tabled, m[1])
		}
	}
	if col < 0 {
		t.Fatal("DESIGN.md's maintenance round section has no phase table")
	}
	if got, want := sortedSet(tabled), sortedSet(core.FaultSites()); !slices.Equal(got, want) {
		t.Errorf("phase table fault points %v, want the registered sites %v", got, want)
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
