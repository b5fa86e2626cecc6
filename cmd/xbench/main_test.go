package main

import (
	"strings"
	"testing"
)

func TestRunOneFigure(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-fig", "9.6", "-scale", "0.1"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig 9.6") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestRunMarkdown(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-fig", "3.7", "-scale", "0.05", "-markdown"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| persons |") {
		t.Fatalf("markdown output: %s", out.String())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-fig", "42"}, &out, &errw); err == nil {
		t.Fatal("unknown figure should fail")
	}
}
