// Package blocktable implements the paper's three-level hierarchical block
// table: the map from memory-block number to the logical time of its last
// access, extended (Section II) with the identity of the last accessor —
// the reference and the scope where the previous access happened — so that
// reuse arcs can be attributed to (source scope, destination scope) pairs.
package blocktable

import (
	"math/bits"

	"reusetool/internal/trace"
)

// Entry records the most recent access to one memory block.
type Entry struct {
	Time  uint64        // logical access clock value of the last access
	Ref   trace.RefID   // reference that performed the last access
	Scope trace.ScopeID // innermost static scope active at the last access
}

// Table is the lookup interface used by the reuse-distance engine.
//
// Lookup returns the previous entry for a block and whether the block was
// ever accessed, then stores the new entry. Implementations are keyed by
// block number (address >> log2(blockSize)).
type Table interface {
	// LookupStore returns the entry previously stored for block (ok=false
	// on first access) and replaces it with e.
	LookupStore(block uint64, e Entry) (prev Entry, ok bool)
	// Blocks reports the number of distinct blocks ever stored.
	Blocks() int
}

// Three-level radix split. Virtual block numbers are split into three
// fields; the low 2×blockRadix bits index the two lower levels, everything
// above indexes the sparse top level map. This mirrors the paper's
// "three level hierarchical block table" and keeps memory proportional to
// the touched address-space footprint.
const (
	midBits  = 10
	leafBits = 10
	leafSize = 1 << leafBits
	midSize  = 1 << midBits
	midMask  = midSize - 1
	leafMask = leafSize - 1
)

// leaf stores its entries as a structure of arrays: the time, the packed
// (ref, scope) identity and the presence bit of an entry live in parallel
// arrays rather than a single []Entry. The per-access path reads and writes
// exactly one uint64 in each array, so the write combining and the cache
// footprint are the same as three dense uint64 streams — under the
// stencil/stream access patterns the same leaf lines stay hot across
// thousands of consecutive accesses.
type leaf struct {
	present [leafSize / 64]uint64
	times   [leafSize]uint64
	meta    [leafSize]uint64 // ref in the high 32 bits, scope in the low 32
}

func packMeta(ref trace.RefID, scope trace.ScopeID) uint64 {
	return uint64(uint32(ref))<<32 | uint64(uint32(scope))
}

func unpackMeta(m uint64) (trace.RefID, trace.ScopeID) {
	return trace.RefID(int32(m >> 32)), trace.ScopeID(int32(m))
}

// Radix is the production three-level block table. The zero value is not
// usable; call NewRadix.
type Radix struct {
	top    map[uint64]*mid
	blocks int
	// One-entry leaf cache: consecutive accesses overwhelmingly land in the
	// same 1024-block leaf, so the common case skips the top-level map
	// lookup and both pointer chases entirely.
	lastHi   uint64
	lastLeaf *leaf
	// One-entry mid cache: a leaf-cache miss mostly lands in another
	// leaf of the same mid node (45–80% of the 128-byte engine's block
	// accesses in the exact sweep3d and gtc runs miss the leaf cache),
	// and then skips the top-level map.
	lastTop uint64
	lastMid *mid
}

type mid struct {
	leaves [midSize]*leaf
}

// NewRadix returns an empty three-level block table.
func NewRadix() *Radix { return NewRadixHint(0) }

// NewRadixHint returns an empty table presized for about blockHint distinct
// blocks (0 means unknown). Only the sparse top level benefits from the
// hint; lower levels are allocated on first touch either way.
func NewRadixHint(blockHint int) *Radix {
	topHint := blockHint >> (midBits + leafBits)
	return &Radix{
		top:     make(map[uint64]*mid, topHint+1),
		lastHi:  ^uint64(0),
		lastTop: ^uint64(0),
	}
}

// LookupStore implements Table.
//
//reuse:hotpath
func (r *Radix) LookupStore(block uint64, e Entry) (Entry, bool) {
	hi := block >> leafBits
	lf := r.lastLeaf
	if hi != r.lastHi {
		m := r.lastMid
		if top := hi >> midBits; top != r.lastTop {
			m = r.top[top]
			if m == nil {
				m = &mid{}
				r.top[top] = m
			}
			r.lastTop, r.lastMid = top, m
		}
		lf = m.leaves[hi&midMask]
		if lf == nil {
			lf = &leaf{}
			m.leaves[hi&midMask] = lf
		}
		r.lastHi, r.lastLeaf = hi, lf
	}
	leafIdx := block & leafMask
	word, bit := leafIdx/64, uint(leafIdx%64)
	var prev Entry
	ok := lf.present[word]&(1<<bit) != 0
	if ok {
		ref, scope := unpackMeta(lf.meta[leafIdx])
		prev = Entry{Time: lf.times[leafIdx], Ref: ref, Scope: scope}
	} else {
		lf.present[word] |= 1 << bit
		r.blocks++
	}
	lf.times[leafIdx] = e.Time
	lf.meta[leafIdx] = packMeta(e.Ref, e.Scope)
	return prev, ok
}

// Blocks implements Table.
func (r *Radix) Blocks() int { return r.blocks }

// Evict removes every present entry for which drop returns true and
// reports how many were removed. The sampled reuse-distance engine uses
// it when the adaptive sampler halves its admission threshold: blocks
// whose hash no longer passes leave the table (and the caller removes
// their timestamps from the order-statistic tree). Iteration order is
// unspecified — drop must decide from (block, entry) alone — but the
// resulting table state is the same for any order: evicting a set of
// blocks is order-independent.
func (r *Radix) Evict(drop func(block uint64, e Entry) bool) int {
	evicted := 0
	for topIdx, m := range r.top {
		for midIdx, lf := range m.leaves {
			if lf == nil {
				continue
			}
			hi := topIdx<<midBits | uint64(midIdx)
			for word, bitsWord := range lf.present {
				for bitsWord != 0 {
					bit := uint(bits.TrailingZeros64(bitsWord))
					bitsWord &^= 1 << bit
					leafIdx := uint64(word)*64 + uint64(bit)
					block := hi<<leafBits | leafIdx
					ref, scope := unpackMeta(lf.meta[leafIdx])
					e := Entry{Time: lf.times[leafIdx], Ref: ref, Scope: scope}
					if drop(block, e) {
						lf.present[word] &^= 1 << bit
						evicted++
					}
				}
			}
		}
	}
	r.blocks -= evicted
	return evicted
}

// Map is a flat map-based reference implementation used for differential
// testing and the block-table ablation benchmark.
type Map struct {
	m map[uint64]Entry
}

// NewMap returns an empty map-based block table.
func NewMap() *Map {
	return &Map{m: make(map[uint64]Entry)}
}

// LookupStore implements Table.
//
//reuse:hotpath
func (t *Map) LookupStore(block uint64, e Entry) (Entry, bool) {
	prev, ok := t.m[block]
	t.m[block] = e
	return prev, ok
}

// Blocks implements Table.
func (t *Map) Blocks() int { return len(t.m) }
