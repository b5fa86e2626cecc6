package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"xqview/internal/update"
	"xqview/internal/xmldoc"
)

func TestNilRecordersNoOp(t *testing.T) {
	var rr *RoundRec
	if rr.Active() {
		t.Fatal("nil RoundRec should be inactive")
	}
	rr.Verdict(0, "accept", "bib/book", "")
	rr.SetPrims(nil)
	rr.Commit(nil)
	v := rr.View(3)
	if v.Active() {
		t.Fatal("nil ViewRec should be inactive")
	}
	v.Op(OpRecord{Kind: "Select"})
	v.Fusion(Fusion{ViewKey: "b:x"})
}

func TestRingEviction(t *testing.T) {
	j := New(3)
	for i := 0; i < 5; i++ {
		rr := j.Begin([]string{"v"}, 0)
		rr.Commit(nil)
	}
	if j.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j.Len())
	}
	if j.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", j.Dropped())
	}
	rounds := j.Rounds()
	if rounds[0].ID != 3 || rounds[2].ID != 5 {
		t.Fatalf("retained IDs %d..%d, want 3..5", rounds[0].ID, rounds[2].ID)
	}
}

func TestCommitIdempotentAndError(t *testing.T) {
	j := New(8)
	rr := j.Begin([]string{"v"}, 1)
	rr.Verdict(0, "reject", "bib/book", "boom")
	rr.Commit(fmt.Errorf("validate: boom"))
	rr.Commit(nil) // second commit must not duplicate
	if j.Len() != 1 {
		t.Fatalf("Len = %d, want 1", j.Len())
	}
	r := j.Rounds()[0]
	if r.Error != "validate: boom" {
		t.Fatalf("Error = %q", r.Error)
	}
	if len(r.Verdicts) != 1 || r.Verdicts[0].Action != "reject" {
		t.Fatalf("verdicts = %+v", r.Verdicts)
	}
}

func TestOpTruncationBounds(t *testing.T) {
	j := New(4)
	rr := j.Begin([]string{"v"}, 0)
	vr := rr.View(0)
	rec := OpRecord{Op: 1, Kind: "Select", Tuples: MaxOpTuples + 10}
	for i := 0; i < MaxOpInKeys+5; i++ {
		rec.In = append(rec.In, fmt.Sprintf("b.k%d", i))
	}
	for i := 0; i < MaxOpTuples+10; i++ {
		tr := TupleRecord{Count: 1, Kind: "delta"}
		for k := 0; k < MaxTupleKeys+3; k++ {
			tr.Keys = append(tr.Keys, fmt.Sprintf("b:x%d.%d", i, k))
		}
		rec.Out = append(rec.Out, tr)
	}
	vr.Op(rec)
	vr.Fusion(Fusion{ViewKey: "b:v", Sources: make([]string, MaxFusionSources+4)})
	rr.Commit(nil)

	got := j.Rounds()[0].PerView[0]
	op := got.Ops[0]
	if len(op.In) != MaxOpInKeys || len(op.Out) != MaxOpTuples || !op.Truncated {
		t.Fatalf("truncation failed: in=%d out=%d trunc=%v", len(op.In), len(op.Out), op.Truncated)
	}
	if len(op.Out[0].Keys) != MaxTupleKeys {
		t.Fatalf("tuple keys = %d, want %d", len(op.Out[0].Keys), MaxTupleKeys)
	}
	if op.Tuples != MaxOpTuples+10 {
		t.Fatalf("Tuples lost true total: %d", op.Tuples)
	}
	if len(got.Fusions[0].Sources) != MaxFusionSources {
		t.Fatalf("fusion sources = %d", len(got.Fusions[0].Sources))
	}
}

func TestEnabledGate(t *testing.T) {
	defer SetEnabled(SetEnabled(false))
	if Enabled() {
		t.Fatal("expected disabled")
	}
	if prev := SetEnabled(true); prev {
		t.Fatal("prev should be false")
	}
	if !Enabled() {
		t.Fatal("expected enabled")
	}
}

func TestWriteJSONAndHTTP(t *testing.T) {
	j := New(4)
	rr := j.Begin([]string{"view-0"}, 1)
	rr.Verdict(0, "accept", "bib/book", "")
	rr.View(0).Op(OpRecord{Op: 2, Kind: "NavUnnest", Detail: "bib/book", Tuples: 1,
		Out: []TupleRecord{{Keys: []string{"b:b.b.x"}, Count: 1, Kind: "delta", Prim: "b.b.x"}}})
	rr.Commit(nil)

	var buf bytes.Buffer
	if err := j.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rounds []Round `json:"rounds"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("dump not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Rounds) != 1 || doc.Rounds[0].ID != 1 {
		t.Fatalf("rounds = %+v", doc.Rounds)
	}

	srv := httptest.NewServer(j.HTTPHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var httpDoc struct {
		Rounds []Round `json:"rounds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&httpDoc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, httpDoc) {
		t.Fatal("HTTP dump differs from WriteJSON")
	}
}

func TestPrimEncodeDecodeRoundTrip(t *testing.T) {
	prims := []*update.Primitive{
		{Kind: update.Insert, Doc: "bib.xml", Parent: "b.b", After: "b.b.d",
			Frag: xmldoc.Elem("book", xmldoc.AttrF("year", "1994"),
				xmldoc.Elem("title", xmldoc.TextF("TCP/IP")))},
		{Kind: update.Delete, Doc: "bib.xml", Key: "b.b.f"},
		{Kind: update.Replace, Doc: "prices.xml", Key: "b.b.d.f.b", NewValue: "65.95"},
	}
	got, err := DecodePrims(EncodePrims(prims))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prims, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", prims[0].Frag, got[0].Frag)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	r1 := []*update.Primitive{{Kind: update.Insert, Doc: "bib.xml", Parent: "b.b",
		Frag: xmldoc.Elem("book", xmldoc.Elem("title", xmldoc.TextF("A")))}}
	r2 := []*update.Primitive{{Kind: update.Delete, Doc: "bib.xml", Key: "b.b.d"}}
	if err := sw.WriteRound(r1); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteRound(r2); err != nil {
		t.Fatal(err)
	}
	rounds, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 2 {
		t.Fatalf("rounds = %d", len(rounds))
	}
	if !reflect.DeepEqual(rounds[0], r1) || !reflect.DeepEqual(rounds[1], r2) {
		t.Fatal("stream round trip mismatch")
	}
}

func TestStreamRejectsGarbage(t *testing.T) {
	if _, err := ReadStream(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadStream(strings.NewReader(`{"prims":[{"kind":"warp","doc":"d"}]}` + "\n")); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestExplainSyntheticLineage(t *testing.T) {
	j := New(8)
	rr := j.Begin([]string{"view-0"}, 1)
	rr.SetPrims([]PrimRecord{{Kind: "insert", Doc: "bib.xml", Parent: "b.b", Key: "b.b.x",
		Frag: &FragRecord{Kind: "element", Name: "book"}}})
	rr.Verdict(0, "accept", "bib/book", "")
	vr := rr.View(0)
	vr.Op(OpRecord{Op: 2, Kind: "NavUnnest", Detail: "bib/book", Tuples: 1,
		Out: []TupleRecord{{Keys: []string{"b:b.b.x"}, Count: 1, Kind: "delta", Prim: "b.b.x"}}})
	vr.Op(OpRecord{Op: 5, Kind: "Select", Detail: `σ year="1994"`, Tuples: 1,
		In:  []string{"b.b.x"},
		Out: []TupleRecord{{Keys: []string{"b:b.b.x"}, Count: 1, Kind: "delta", Prim: "b.b.x"}}})
	vr.Op(OpRecord{Op: 9, Kind: "Tagger", Detail: "<r>", Tuples: 1,
		Out: []TupleRecord{{Keys: []string{"c:9:" + "b:b.b.x"}, Count: 1, Kind: "delta", Prim: "b.b.x"}}})
	vr.Fusion(Fusion{ViewKey: "c:9:b:b.b.x", Sources: []string{"b.b.x"}, Inserts: 2})
	rr.Commit(nil)

	text, err := j.Explain("view-0", "b.b.x")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"primitive #0", "insert <book>", "verdict: accept at bib/book",
		"NavUnnest(bib/book)", `Select(σ year="1994")`, "Tagger(<r>)", "fused into view node", "+2 insert(s)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain output missing %q:\n%s", want, text)
		}
	}
	// Chain order must read leaf → root.
	if strings.Index(text, "NavUnnest") > strings.Index(text, "Tagger") {
		t.Fatalf("chain out of order:\n%s", text)
	}

	if _, err := j.Explain("view-0", "zz.zz"); err == nil {
		t.Fatal("expected no-lineage error for unknown key")
	}
	if _, err := New(2).Explain("view-0", "b.b.x"); err == nil {
		t.Fatal("expected no-rounds error on empty journal")
	}
}

// TestExplainCompactionAnnotation pins the compaction-aware rendering: a
// primitive dropped before validation carries no verdict but is annotated
// with the rule and absorbing primitive, and verdict indexes recorded
// against the compacted batch are remapped into the original stream.
func TestExplainCompactionAnnotation(t *testing.T) {
	j := New(8)
	rr := j.Begin([]string{"view-0"}, 2)
	// Original batch: #0 replace (dropped by coalesce), #1 replace (kept).
	rr.SetPrims([]PrimRecord{
		{Kind: "replace", Doc: "bib.xml", Key: "b.b.x", NewValue: "v1"},
		{Kind: "replace", Doc: "bib.xml", Key: "b.b.x", NewValue: "v2"},
	})
	rr.SetVerdictMap([]int{1}) // validation saw only the survivor as index 0
	rr.Compaction("coalesce", 1, []int{0}, "replace b.b.x: last write wins")
	rr.Verdict(0, "accept", "bib/book/title", "")
	vr := rr.View(0)
	vr.Fusion(Fusion{ViewKey: "c:9:b:b.b.x", Sources: []string{"b.b.x"}, Mods: 1})
	rr.Commit(nil)

	r := j.Rounds()[0]
	if len(r.Verdicts) != 1 || r.Verdicts[0].Prim != 1 {
		t.Fatalf("verdict not remapped to the original index: %+v", r.Verdicts)
	}
	text, err := j.Explain("view-0", "b.b.x")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"primitive #0", "primitive #1", "verdict: accept",
		"compacted: coalesce into primitive #1 (replace b.b.x: last write wins)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain output missing %q:\n%s", want, text)
		}
	}
	// The dropped primitive must not claim a validation verdict.
	drop := text[strings.Index(text, "primitive #0"):strings.Index(text, "primitive #1")]
	if strings.Contains(drop, "verdict:") {
		t.Fatalf("dropped primitive carries a verdict:\n%s", text)
	}
}

func TestMentionsKey(t *testing.T) {
	cases := []struct {
		rec, target string
		want        bool
	}{
		{"b:b.b.x", "b.b.x", true},
		{"b:b.b.x.f", "b.b.x", true}, // target contains recorded node
		{"b:b.b", "b.b.x", true},     // recorded node contains target
		{"b:b.c", "b.b.x", false},    // sibling subtree
		{"c:9:b:b.b.x" + LineageSep + "v=1994", "b.b.x", true},
		{"c:9:v=1994", "1994", true},
		{"", "b.b", false},
	}
	for _, c := range cases {
		if got := mentionsKey(c.rec, c.target); got != c.want {
			t.Errorf("mentionsKey(%q, %q) = %v, want %v", c.rec, c.target, got, c.want)
		}
	}
}
