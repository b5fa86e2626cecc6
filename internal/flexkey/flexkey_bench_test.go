package flexkey

import "testing"

// Parent sits on every store read that needs a node's parent and on every
// spine walk, so its allocation behavior is pinned by a test, not just
// benchmarked.

var sinkKey Key
var sinkBool bool

func BenchmarkParent(b *testing.B) {
	b.ReportAllocs()
	k := Key("b.d.f.h.j.l")
	for i := 0; i < b.N; i++ {
		sinkKey, sinkBool = Parent(k)
	}
}

func TestParentAllocs(t *testing.T) {
	k := Key("b.d.f.h.j.l")
	if a := testing.AllocsPerRun(200, func() { sinkKey, sinkBool = Parent(k) }); a > 0 {
		t.Errorf("Parent allocates %.1f times per call, want 0", a)
	}
}
