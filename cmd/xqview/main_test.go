package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunQueryOnly(t *testing.T) {
	dir := t.TempDir()
	doc := write(t, dir, "bib.xml", `<bib><book year="1994"><title>A</title></book></bib>`)
	query := write(t, dir, "q.xq", `<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>`)
	var out, errw strings.Builder
	if err := run([]string{"-doc", "bib.xml=" + doc, "-query", query}, &out, &errw); err != nil {
		t.Fatalf("run: %v\n%s", err, errw.String())
	}
	if got := strings.TrimSpace(out.String()); got != "<r><title>A</title></r>" {
		t.Fatalf("stdout: %q", got)
	}
}

func TestRunWithUpdatesAndFlags(t *testing.T) {
	dir := t.TempDir()
	doc := write(t, dir, "bib.xml", `<bib><book year="1994"><title>A</title></book><book year="2000"><title>B</title></book></bib>`)
	query := write(t, dir, "q.xq", `<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>`)
	upd := write(t, dir, "u.xqu", `
for $b in document("bib.xml")/bib/book
where $b/title = "B"
update $b
delete $b`)
	var out, errw strings.Builder
	err := run([]string{"-doc", "bib.xml=" + doc, "-query", query,
		"-updates", upd, "-plan", "-sapt", "-report", "-pretty"}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, errw.String())
	}
	if strings.Contains(out.String(), "B") {
		t.Fatalf("deleted title still present:\n%s", out.String())
	}
	for _, want := range []string{"NavUnnest", "doc bib.xml", "updates=1", "-- initial extent --"} {
		if !strings.Contains(errw.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, errw.String())
		}
	}
	if !strings.Contains(out.String(), "\n") || !strings.Contains(out.String(), "  <title>") {
		t.Fatalf("pretty output not indented:\n%s", out.String())
	}
}

func TestRunParallelFlag(t *testing.T) {
	dir := t.TempDir()
	doc := write(t, dir, "bib.xml", `<bib><book year="1994"><title>A</title></book><book year="2000"><title>B</title></book></bib>`)
	query := write(t, dir, "q.xq", `<r>{ for $b in doc("bib.xml")/bib/book return $b/title }</r>`)
	upd := write(t, dir, "u.xqu", `
for $b in document("bib.xml")/bib/book
where $b/title = "B"
update $b
delete $b`)
	// The flag must only change scheduling, never output: both pool sizes
	// produce the identical refreshed view.
	var outs [2]string
	for i, p := range []string{"1", "4"} {
		var out, errw strings.Builder
		err := run([]string{"-doc", "bib.xml=" + doc, "-query", query,
			"-updates", upd, "-parallel", p}, &out, &errw)
		if err != nil {
			t.Fatalf("run -parallel %s: %v\n%s", p, err, errw.String())
		}
		outs[i] = out.String()
	}
	if outs[0] != outs[1] {
		t.Fatalf("-parallel changed output:\np=1: %s\np=4: %s", outs[0], outs[1])
	}
	if strings.Contains(outs[0], "B") {
		t.Fatalf("deleted title still present:\n%s", outs[0])
	}
}

func TestRunErrors(t *testing.T) {
	var out, errw strings.Builder
	if err := run(nil, &out, &errw); err == nil {
		t.Fatal("missing args should fail")
	}
	if err := run([]string{"-doc", "x=/nonexistent", "-query", "/nonexistent"}, &out, &errw); err == nil {
		t.Fatal("missing files should fail")
	}
	dir := t.TempDir()
	doc := write(t, dir, "d.xml", "<d/>")
	bad := write(t, dir, "bad.xq", "not a query")
	if err := run([]string{"-doc", "d=" + doc, "-query", bad}, &out, &errw); err == nil {
		t.Fatal("bad query should fail")
	}
}
