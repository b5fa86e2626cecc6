package xmldoc

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xqview/internal/flexkey"
)

// trieVersion is one root of a property run beside the state it must read.
type trieVersion struct {
	root entry
	want map[flexkey.Key]*Node
}

// TestTrieMatchesMapRandomized applies random insert/replace/delete batches
// to a trie and to a map, keeping every root: each root must read exactly
// its own map — every key it holds, none it does not, and no other records.
// The collide arm keeps one hash bit for each of the top two levels and
// three low bits no level reads, so every key meets a quarter of the others
// in a collision bucket below the spent hash.
func TestTrieMatchesMapRandomized(t *testing.T) {
	for name, hash := range map[string]func(flexkey.Key) uint64{
		"hash":    hashKey,
		"collide": func(k flexkey.Key) uint64 { return hashKey(k) & (1<<63 | 1<<58 | 7) },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			versions := []trieVersion{{want: map[flexkey.Key]*Node{}}}
			for round := 0; round < 60; round++ {
				cur := versions[len(versions)-1]
				next := map[flexkey.Key]*Node{}
				for k, n := range cur.want {
					next[k] = n
				}
				batch := map[flexkey.Key]*Node{}
				for i := 0; i < 1+rng.Intn(40); i++ {
					k := flexkey.Key(fmt.Sprintf("k%d", rng.Intn(300)))
					if rng.Intn(3) == 0 {
						batch[k] = nil
						delete(next, k)
					} else {
						n := &Node{Key: k, Value: fmt.Sprint(round, i)}
						batch[k] = n
						next[k] = n
					}
				}
				ws := make([]write, 0, len(batch))
				for k, n := range batch {
					ws = append(ws, write{h: hash(k), k: k, n: n})
				}
				slices.SortFunc(ws, func(a, b write) int { return cmp.Compare(a.h, b.h) })
				versions = append(versions, trieVersion{root: put(cur.root, ws, topShift, hash), want: next})
			}
			for i, v := range versions {
				held := 0
				v.root.each(topShift, func(n *Node) {
					held++
					if v.want[n.Key] != n {
						t.Fatalf("version %d holds a stray record %s", i, n.Key)
					}
				})
				if held != len(v.want) {
					t.Fatalf("version %d holds %d records, want %d", i, held, len(v.want))
				}
				for j := 0; j < 300; j++ {
					k := flexkey.Key(fmt.Sprintf("k%d", j))
					if got := v.root.get(k, hash(k)); got != v.want[k] {
						t.Fatalf("version %d reads %v under %s, want %v", i, got, k, v.want[k])
					}
				}
			}
		})
	}
}

// trieNodes returns the nodes of the trie under e, by their first entry.
func trieNodes(e entry, shift int, into map[*entry]bool) map[*entry]bool {
	if e.kids != nil {
		into[e.kids] = true
		for _, c := range e.slots(shift) {
			trieNodes(c, shift-5, into)
		}
	}
	return into
}

// TestFreezeAllocatesOncePerCopiedNode pins the freeze's cost: one
// allocation for each trie node it copies or creates, plus the new version
// and its sorted write list — and nothing per record.
func TestFreezeAllocatesOncePerCopiedNode(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "<e><v>%d</v></e>", i)
	}
	b.WriteString("</r>")
	s := NewStore()
	root, err := s.Load("big.xml", b.String())
	if err != nil {
		t.Fatal(err)
	}
	es := s.Children(root)
	d := NewDraft(s)
	for i := 0; i < 5; i++ {
		if err := d.ReplaceText(s.Children(s.Children(es[i*500])[0])[0], "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.DeleteSubtree(es[7]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertFragment(root, "", "", Elem("e", Elem("v", TextF("new")))); err != nil {
		t.Fatal(err)
	}
	old := trieNodes(s.root, topShift, map[*entry]bool{})
	copied := 0
	for n := range trieNodes(d.Freeze().root, topShift, map[*entry]bool{}) {
		if !old[n] {
			copied++
		}
	}
	if copied == 0 {
		t.Fatal("the freeze copied no node")
	}
	if allocs := testing.AllocsPerRun(20, func() { d.Freeze() }); allocs != float64(copied+2) {
		t.Fatalf("a freeze copying %d nodes allocates %.0f times, want %d", copied, allocs, copied+2)
	}
}
