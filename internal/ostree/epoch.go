package ostree

import (
	"math/bits"
	"sort"
)

// Epoch is the engine's order-statistic structure: a bitmap of live slots
// over a bounded, periodically compacted slot window, with a binary
// indexed (Fenwick) tree over the bitmap's per-word popcounts, and no
// per-operation hashing.
//
// It exploits the engine's access pattern — timestamps are inserted in
// strictly increasing order — so it needs no timestamp-to-slot map:
//
//   - Slots are assigned in time order, so slot times are strictly
//     increasing and any timestamp can be located by binary search.
//   - Slots assigned since the last compaction form an affine run
//     (time(s) = runBase + s - runStart). An insert that skips ahead in
//     time skips as many slots, which stay dead, so the run stays affine
//     whatever the gaps between inserts. Timestamps in that run — the most
//     recent epoch, which is where stencil and streaming reuses
//     overwhelmingly land — are located in O(1) with one subtraction, and
//     their times are never stored.
//
// When the run reaches the end of the window, live slots are re-packed in
// place to the front (an epoch boundary): the re-packed prefix stays
// binary-searchable, a fresh affine run starts, and the window doubles
// only when more than half of it is live. Compaction walks only the set
// bits, one bitmap word at a time, and is triggered at most once per
// window/2 ticks of the inserted times, so it amortizes to O(1); it
// allocates only when the window doubles, so a steady live set runs
// allocation-free. The Fenwick tree has one entry per 64 slots and stays
// cache-resident.
type Epoch struct {
	words    []uint64 // live bitmap: bit s&63 of words[s>>6] is slot s
	bit      []uint32 // 1-based Fenwick tree over popcount(words[w])
	slotTime []uint64 // slot times of the compacted prefix [0, runStart)
	next     int32    // first slot past the current run
	runStart int32    // first slot of the current affine run
	runBase  uint64   // time of slot runStart; valid while runStart < next
	n        int
}

// NewEpoch returns an empty epoch-compacted order-statistic tree. capHint
// sizes the initial slot window (it grows as needed; see compact); the
// window is a whole number of 64-slot words.
func NewEpoch(capHint int) *Epoch {
	words := max((capHint+63)/64, 1)
	return &Epoch{
		words:    make([]uint64, words),
		bit:      make([]uint32, words+1),
		slotTime: make([]uint64, 64*words),
	}
}

// Len reports the number of live timestamps.
func (e *Epoch) Len() int { return e.n }

// add adds delta to the Fenwick entry of bitmap word w.
func (e *Epoch) add(w int32, delta uint32) {
	for i := w + 1; i < int32(len(e.bit)); i += i & (-i) {
		e.bit[i] += delta
	}
}

// below reports the number of live slots in [0, slot).
func (e *Epoch) below(slot int32) uint32 {
	w := slot >> 6
	s := uint32(bits.OnesCount64(e.words[w] & (1<<(slot&63) - 1)))
	for i := w; i > 0; i -= i & (-i) {
		s += e.bit[i]
	}
	return s
}

// Insert adds t, which must be strictly greater than every timestamp ever
// inserted.
func (e *Epoch) Insert(t uint64) {
	if e.runStart == e.next {
		e.runBase = t
	}
	// t - runBase slots into the run; the skipped slots stay dead.
	if d := t - e.runBase; d < uint64(len(e.slotTime)-int(e.runStart)) {
		e.next = e.runStart + int32(d)
	} else {
		e.compact()
		e.runBase = t
	}
	slot := e.next
	e.next++
	e.words[slot>>6] |= 1 << (slot & 63)
	e.add(slot>>6, 1)
	e.n++
}

// live reports whether slot holds a live timestamp.
func (e *Epoch) live(slot int32) bool {
	return e.words[slot>>6]&(1<<(slot&63)) != 0
}

// slotOf locates the slot holding timestamp t, or -1 if t falls past the
// newest slot or between the prefix's slots. A slot it returns may be
// dead. The affine fast path resolves any timestamp from the current run
// — the most recent epoch — in O(1).
func (e *Epoch) slotOf(t uint64) int32 {
	if e.runStart < e.next && t >= e.runBase {
		if d := t - e.runBase; d < uint64(e.next-e.runStart) {
			return e.runStart + int32(d)
		}
		return -1
	}
	// Binary search the compacted prefix (strictly increasing).
	s := sort.Search(int(e.runStart), func(i int) bool { return e.slotTime[i] >= t })
	if int32(s) < e.runStart && e.slotTime[s] == t {
		return int32(s)
	}
	return -1
}

// Delete removes t. Deleting an absent timestamp is a no-op.
func (e *Epoch) Delete(t uint64) {
	slot := e.slotOf(t)
	if slot < 0 || !e.live(slot) {
		return
	}
	e.words[slot>>6] &^= 1 << (slot & 63)
	for i := slot>>6 + 1; i < int32(len(e.bit)); i += i & (-i) {
		e.bit[i]--
	}
	e.n--
}

// CountGreater reports the number of live timestamps strictly greater than
// t. The engine always passes a live timestamp (the previous access time
// of a block still in the table), which the affine fast path resolves
// without a search for the most recent epoch.
func (e *Epoch) CountGreater(t uint64) uint64 {
	// pos = index of the first slot with a time above t.
	var pos int32
	if e.runStart < e.next && t >= e.runBase {
		d := t - e.runBase
		if d >= uint64(e.next-e.runStart-1) {
			return 0 // t is at or past the newest slot: nothing greater
		}
		pos = e.runStart + int32(d) + 1
	} else {
		pos = int32(sort.Search(int(e.runStart), func(i int) bool { return e.slotTime[i] > t }))
		if pos == e.next {
			return 0
		}
	}
	return uint64(e.n) - uint64(e.below(pos))
}

// compact re-packs live slots to the front of the window in place and
// starts a new epoch with an empty run. The window grows (doubles) only
// when more than half of it is live, so the slot space stays proportional
// to the peak live set and compaction cost amortizes to O(1) per tick.
// Growth is the only time compaction allocates, and it is explicit and
// unbounded: a trace with any number of live blocks is handled without
// mis-counting.
func (e *Epoch) compact() {
	// One forward pass over the set bits: the write index j never passes
	// the read slot s, so no prefix time is overwritten before it is read.
	var j int32
	used := (e.next + 63) >> 6
	for w, word := range e.words[:used] {
		for word != 0 {
			s := int32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			if s < e.runStart {
				e.slotTime[j] = e.slotTime[s]
			} else {
				e.slotTime[j] = e.runBase + uint64(s-e.runStart)
			}
			j++
		}
	}
	window := len(e.slotTime)
	for e.n*2 > window {
		window *= 2
	}
	if window != len(e.slotTime) {
		slotTime := make([]uint64, window)
		copy(slotTime, e.slotTime[:j])
		e.slotTime = slotTime
		e.words = make([]uint64, window/64)
		e.bit = make([]uint32, window/64+1)
	} else {
		clear(e.words[:used])
		clear(e.bit)
	}
	e.next, e.runStart = j, j
	// The prefix [0, j) is all live: full words, then a partial one.
	for w := int32(0); w < j>>6; w++ {
		e.words[w] = ^uint64(0)
	}
	if r := j & 63; r != 0 {
		e.words[j>>6] = 1<<r - 1
	}
	// Build the Fenwick tree in O(words): seed each word's popcount, then
	// push partial sums to parents.
	nw := int32(len(e.words))
	for w := int32(0); w < nw; w++ {
		e.bit[w+1] = uint32(bits.OnesCount64(e.words[w]))
	}
	for i := int32(1); i <= nw; i++ {
		if p := i + i&(-i); p <= nw {
			e.bit[p] += e.bit[i]
		}
	}
}
