package main

import (
	"strings"
	"testing"
)

// faultCLIFixture writes the doc/query/updates triple the -fault tests run:
// one book in the view, an update that would insert a second.
func faultCLIFixture(t *testing.T) (doc, query, upd string) {
	t.Helper()
	dir := t.TempDir()
	doc = write(t, dir, "bib.xml", `<bib><book year="1994"><title>A</title></book></bib>`)
	query = write(t, dir, "q.xq", `<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>`)
	upd = write(t, dir, "u.xqu", `
for $bib in document("bib.xml")/bib
update $bib
insert <book year="2001"><title>B</title></book> into $bib`)
	return doc, query, upd
}

func TestRunFaultInjection(t *testing.T) {
	doc, query, upd := faultCLIFixture(t)
	for _, spec := range []string{"deepunion.apply", "deepunion.apply:error", "deepunion.apply:panic:1"} {
		var out, errw strings.Builder
		err := run([]string{"-doc", "bib.xml=" + doc, "-query", query,
			"-updates", upd, "-fault", spec}, &out, &errw)
		if err == nil {
			t.Fatalf("-fault %s: maintenance should have failed\n%s", spec, out.String())
		}
		if !strings.Contains(err.Error(), "faultinject:") && !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("-fault %s: error does not name the injected fault: %v", spec, err)
		}
		// The rolled-back view printed on failure is the pre-round extent:
		// the inserted title must be absent, the original present.
		if !strings.Contains(out.String(), "round rolled back, view unchanged") {
			t.Fatalf("-fault %s: missing rollback banner:\n%s", spec, out.String())
		}
		if !strings.Contains(out.String(), "<title>A</title>") || strings.Contains(out.String(), "<title>B</title>") {
			t.Fatalf("-fault %s: printed view is not the intact pre-round extent:\n%s", spec, out.String())
		}
		if !strings.Contains(out.String(), "-- journal abort record --") ||
			!strings.Contains(out.String(), `"aborted": true`) {
			t.Fatalf("-fault %s: missing journal abort record:\n%s", spec, out.String())
		}
	}
}

func TestRunFaultCleanRetry(t *testing.T) {
	// A faulted run followed by a clean run of the same script in the same
	// process: the fault point must not leak into the retry.
	doc, query, upd := faultCLIFixture(t)
	var out1, errw1 strings.Builder
	if err := run([]string{"-doc", "bib.xml=" + doc, "-query", query,
		"-updates", upd, "-fault", "xat.propagate"}, &out1, &errw1); err == nil {
		t.Fatal("faulted run should fail")
	}
	var out2, errw2 strings.Builder
	if err := run([]string{"-doc", "bib.xml=" + doc, "-query", query,
		"-updates", upd}, &out2, &errw2); err != nil {
		t.Fatalf("clean retry failed: %v\n%s", err, errw2.String())
	}
	if !strings.Contains(out2.String(), "<title>B</title>") {
		t.Fatalf("clean retry did not apply the insert:\n%s", out2.String())
	}
}

func TestRunFaultBadSpec(t *testing.T) {
	doc, query, upd := faultCLIFixture(t)
	for _, spec := range []string{"no.such.site", "deepunion.apply:explode", "deepunion.apply:error:zero"} {
		var out, errw strings.Builder
		err := run([]string{"-doc", "bib.xml=" + doc, "-query", query,
			"-updates", upd, "-fault", spec}, &out, &errw)
		if err == nil {
			t.Fatalf("-fault %s should be rejected", spec)
		}
	}
	// The unknown-site error should teach the user the registered sites.
	var out, errw strings.Builder
	err := run([]string{"-doc", "bib.xml=" + doc, "-query", query,
		"-updates", upd, "-fault", "no.such.site"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "deepunion.apply") {
		t.Fatalf("unknown-site error should list registered sites: %v", err)
	}
}
