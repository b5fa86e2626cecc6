package xmldoc

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"unsafe"

	"xqview/internal/flexkey"
)

// The store's one index is a persistent hash array mapped trie (HAMT): a
// 32-way trie from FlexKey to record, indexed by successive 5-bit slices of
// the key's hash, top bits first, whose nodes hold only their occupied
// slots. A trie is never written once built. Freeze path-copies every node
// a draft's writes reach, exactly once, so a version is its root and every
// earlier root keeps reading its own state.

var hashSeed = maphash.MakeSeed()

func hashKey(k flexkey.Key) uint64 { return maphash.String(hashSeed, string(k)) }

// topShift places the first level's 5 bits at the top of the hash. Below
// shift 0 the hash is spent, and a node is a bucket of colliding keys.
const topShift = 59

// entry is one slot of a trie node: a stored record (leaf), or a sub-node
// whose entries are one allocation starting at kids, with mask its
// occupancy bitmap (a bucket's mask is its entry count). The zero entry is
// an empty slot, or an empty trie.
type entry struct {
	leaf *Node
	kids *entry
	mask uint32
}

// slots returns the entries of e's sub-node at level shift.
func (e *entry) slots(shift int) []entry {
	n := e.mask
	if shift >= 0 {
		n = uint32(bits.OnesCount32(n))
	}
	return unsafe.Slice(e.kids, n)
}

// get returns the record stored under k, whose hash is h (nil when absent).
func (e *entry) get(k flexkey.Key, h uint64) *Node {
	for shift := topShift; e.kids != nil; shift -= 5 {
		kids := e.slots(shift)
		if shift < 0 {
			for i := range kids {
				if kids[i].leaf.Key == k {
					return kids[i].leaf
				}
			}
			return nil
		}
		bit := uint32(1) << (h >> shift & 31)
		if e.mask&bit == 0 {
			return nil
		}
		e = &kids[bits.OnesCount32(e.mask&(bit-1))]
	}
	if e.leaf != nil && e.leaf.Key == k {
		return e.leaf
	}
	return nil
}

// each calls fn for every record under e.
func (e *entry) each(shift int, fn func(*Node)) {
	if e.kids == nil {
		if e.leaf != nil {
			fn(e.leaf)
		}
		return
	}
	for _, c := range e.slots(shift) {
		c.each(shift-5, fn)
	}
}

// write is one record a freeze applies: k's post-image n, nil to delete k,
// with k's hash h.
type write struct {
	h uint64
	k flexkey.Key
	n *Node
}

// put returns e with the writes applied. ws is sorted by hash, and every
// write in it agrees on the hash bits above shift, so the writes under one
// slot are one run and each node on their paths is copied exactly once.
// hash is the trie's key hash, for a stored record a write displaces.
func put(e entry, ws []write, shift int, hash func(flexkey.Key) uint64) entry {
	if e.kids == nil && len(ws) == 1 && (e.leaf == nil || e.leaf.Key == ws[0].k) {
		return entry{leaf: ws[0].n}
	}
	if shift < 0 {
		return putBucket(e, ws)
	}
	var slot [32]entry
	if e.kids != nil {
		kids := e.slots(shift)
		for i, m := 0, e.mask; m != 0; i, m = i+1, m&(m-1) {
			slot[bits.TrailingZeros32(m)] = kids[i]
		}
	} else if e.leaf != nil {
		slot[hash(e.leaf.Key)>>shift&31] = e
	}
	for len(ws) > 0 {
		i, j := ws[0].h>>shift&31, 1
		for j < len(ws) && ws[j].h>>shift&31 == i {
			j++
		}
		slot[i] = put(slot[i], ws[:j], shift-5, hash)
		ws = ws[j:]
	}
	var mask uint32
	for i := range slot {
		if slot[i] != (entry{}) {
			mask |= 1 << i
		}
	}
	// A node left with one record is that record, so the trie's shape
	// depends only on the keys it holds.
	n := bits.OnesCount32(mask)
	if n == 0 {
		return entry{}
	}
	if one := slot[bits.TrailingZeros32(mask)]; n == 1 && one.kids == nil {
		return one
	}
	kids := make([]entry, 0, n)
	for m := mask; m != 0; m &= m - 1 {
		kids = append(kids, slot[bits.TrailingZeros32(m)])
	}
	return entry{kids: &kids[0], mask: mask}
}

// putBucket applies ws to keys whose hashes agree in every bit the levels
// use: a list scanned in full.
func putBucket(e entry, ws []write) entry {
	var recs []entry
	if e.kids != nil {
		recs = slices.Clone(e.slots(-1))
	} else if e.leaf != nil {
		recs = []entry{e}
	}
	for _, w := range ws {
		recs = slices.DeleteFunc(recs, func(r entry) bool { return r.leaf.Key == w.k })
		if w.n != nil {
			recs = append(recs, entry{leaf: w.n})
		}
	}
	switch len(recs) {
	case 0:
		return entry{}
	case 1:
		return recs[0]
	}
	return entry{kids: &recs[0], mask: uint32(len(recs))}
}
