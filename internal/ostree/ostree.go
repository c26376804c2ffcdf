// Package ostree provides order-statistic search structures over logical
// access times.
//
// The reuse-distance engine needs one operation beyond a plain balanced
// tree: given the time t of the previous access to a memory block, count how
// many distinct blocks have been accessed more recently than t. Keys are the
// last-access times of live memory blocks; they are unique (one access per
// clock tick) and new keys are always larger than all existing keys. They
// need not be consecutive: the engine keeps its newest marks outside the
// tree and hands it a mark only when the mark ages out of that front, so
// inserted times skip the ticks of blocks reused while still in front.
//
// Two implementations are provided:
//
//   - Epoch: a live-slot bitmap over a periodically compacted slot
//     window, with a binary indexed tree over the bitmap's per-word
//     popcounts. Slots are located arithmetically within the current
//     affine run (an insert that skips ahead leaves the skipped slots
//     dead), or by binary search in the compacted prefix, so no operation
//     hashes. The engine uses it.
//   - AVL: a size-augmented AVL tree, the paper's "balanced binary tree with
//     a node for each memory block ... sorting key is the logical time of the
//     last access" (Section II). O(log M) per operation. It is the reference
//     the epoch tree is tested against.
//
// Both offer Insert, Delete, CountGreater and Len with the same contract.
package ostree

const nilNode int32 = -1

type avlNode struct {
	key  uint64
	l, r int32
	sz   uint32
	h    int16
}

// AVL is a size-augmented AVL tree over uint64 keys backed by a node pool.
// The zero value is ready to use.
type AVL struct {
	nodes []avlNode
	root  int32
	free  int32 // head of freelist threaded through l
	n     int
}

// NewAVL returns an empty tree with capacity hint cap.
func NewAVL(capHint int) *AVL {
	t := &AVL{root: nilNode, free: nilNode}
	if capHint > 0 {
		t.nodes = make([]avlNode, 0, capHint)
	}
	return t
}

// Len reports the number of live keys.
func (t *AVL) Len() int { return t.n }

func (t *AVL) alloc(key uint64) int32 {
	if t.free != nilNode {
		i := t.free
		t.free = t.nodes[i].l
		t.nodes[i] = avlNode{key: key, l: nilNode, r: nilNode, sz: 1, h: 1}
		return i
	}
	t.nodes = append(t.nodes, avlNode{key: key, l: nilNode, r: nilNode, sz: 1, h: 1})
	return int32(len(t.nodes) - 1)
}

func (t *AVL) release(i int32) {
	t.nodes[i].l = t.free
	t.free = i
}

func (t *AVL) size(i int32) uint32 {
	if i == nilNode {
		return 0
	}
	return t.nodes[i].sz
}

func (t *AVL) height(i int32) int16 {
	if i == nilNode {
		return 0
	}
	return t.nodes[i].h
}

func (t *AVL) update(i int32) {
	nd := &t.nodes[i]
	nd.sz = 1 + t.size(nd.l) + t.size(nd.r)
	hl, hr := t.height(nd.l), t.height(nd.r)
	if hl > hr {
		nd.h = hl + 1
	} else {
		nd.h = hr + 1
	}
}

func (t *AVL) rotateRight(i int32) int32 {
	l := t.nodes[i].l
	t.nodes[i].l = t.nodes[l].r
	t.nodes[l].r = i
	t.update(i)
	t.update(l)
	return l
}

func (t *AVL) rotateLeft(i int32) int32 {
	r := t.nodes[i].r
	t.nodes[i].r = t.nodes[r].l
	t.nodes[r].l = i
	t.update(i)
	t.update(r)
	return r
}

func (t *AVL) balance(i int32) int32 {
	t.update(i)
	bf := t.height(t.nodes[i].l) - t.height(t.nodes[i].r)
	switch {
	case bf > 1:
		l := t.nodes[i].l
		if t.height(t.nodes[l].l) < t.height(t.nodes[l].r) {
			t.nodes[i].l = t.rotateLeft(l)
		}
		return t.rotateRight(i)
	case bf < -1:
		r := t.nodes[i].r
		if t.height(t.nodes[r].r) < t.height(t.nodes[r].l) {
			t.nodes[i].r = t.rotateRight(r)
		}
		return t.rotateLeft(i)
	}
	return i
}

// Insert adds key to the tree. Keys must be unique; inserting a duplicate
// key is a programming error and corrupts counts.
func (t *AVL) Insert(key uint64) {
	t.root = t.insert(t.root, key)
	t.n++
}

func (t *AVL) insert(i int32, key uint64) int32 {
	if i == nilNode {
		return t.alloc(key)
	}
	if key < t.nodes[i].key {
		t.nodes[i].l = t.insert(t.nodes[i].l, key)
	} else {
		t.nodes[i].r = t.insert(t.nodes[i].r, key)
	}
	return t.balance(i)
}

// Delete removes key from the tree. Deleting an absent key is a no-op.
func (t *AVL) Delete(key uint64) {
	var deleted bool
	t.root, deleted = t.delete(t.root, key)
	if deleted {
		t.n--
	}
}

func (t *AVL) delete(i int32, key uint64) (int32, bool) {
	if i == nilNode {
		return nilNode, false
	}
	var deleted bool
	switch {
	case key < t.nodes[i].key:
		t.nodes[i].l, deleted = t.delete(t.nodes[i].l, key)
	case key > t.nodes[i].key:
		t.nodes[i].r, deleted = t.delete(t.nodes[i].r, key)
	default:
		deleted = true
		l, r := t.nodes[i].l, t.nodes[i].r
		if l == nilNode {
			t.release(i)
			return r, true
		}
		if r == nilNode {
			t.release(i)
			return l, true
		}
		// Replace with the successor: the minimum of the right subtree.
		succ := r
		for t.nodes[succ].l != nilNode {
			succ = t.nodes[succ].l
		}
		t.nodes[i].key = t.nodes[succ].key
		t.nodes[i].r, _ = t.delete(r, t.nodes[succ].key)
	}
	if !deleted {
		return i, false
	}
	return t.balance(i), true
}

// CountGreater reports the number of live keys strictly greater than key.
func (t *AVL) CountGreater(key uint64) uint64 {
	var count uint64
	i := t.root
	for i != nilNode {
		nd := &t.nodes[i]
		switch {
		case key < nd.key:
			count += uint64(t.size(nd.r)) + 1
			i = nd.l
		case key > nd.key:
			i = nd.r
		default:
			return count + uint64(t.size(nd.r))
		}
	}
	return count
}

// checkInvariants verifies AVL balance and size augmentation; used by tests.
func (t *AVL) checkInvariants() bool {
	ok := true
	var walk func(i int32) (uint32, int16)
	walk = func(i int32) (uint32, int16) {
		if i == nilNode {
			return 0, 0
		}
		nd := t.nodes[i]
		ls, lh := walk(nd.l)
		rs, rh := walk(nd.r)
		if nd.sz != 1+ls+rs {
			ok = false
		}
		h := lh
		if rh > h {
			h = rh
		}
		h++
		if nd.h != h {
			ok = false
		}
		bf := lh - rh
		if bf < -1 || bf > 1 {
			ok = false
		}
		if nd.l != nilNode && t.nodes[nd.l].key >= nd.key {
			ok = false
		}
		if nd.r != nilNode && t.nodes[nd.r].key <= nd.key {
			ok = false
		}
		return nd.sz, h
	}
	sz, _ := walk(t.root)
	if int(sz) != t.n {
		ok = false
	}
	return ok
}
