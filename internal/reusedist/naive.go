package reusedist

import (
	"reusetool/internal/histo"
	"reusetool/internal/trace"
)

// Naive is an O(N·M) reference implementation of the reuse-distance
// engine used only for differential testing. It maintains an explicit LRU
// stack of blocks (distance = stack depth of the block) and recomputes the
// carrying scope with the paper's literal top-down scan.
type Naive struct {
	blockBits  uint
	thresholds []uint64
	lru        []uint64 // most recent first
	lastScope  map[uint64]trace.ScopeID
	lastTime   map[uint64]uint64
	clock      uint64
	stack      []struct {
		s     trace.ScopeID
		clock uint64
	}
	refs map[trace.RefID]*RefData
}

// NewNaive returns a naive engine with the same observable behaviour as
// New(Config{BlockBits: blockBits, Thresholds: thresholds}).
func NewNaive(blockBits uint, thresholds []uint64) *Naive {
	return &Naive{
		blockBits:  blockBits,
		thresholds: thresholds,
		lastScope:  make(map[uint64]trace.ScopeID),
		lastTime:   make(map[uint64]uint64),
		refs:       make(map[trace.RefID]*RefData),
	}
}

// EnterScope implements trace.Handler.
func (n *Naive) EnterScope(s trace.ScopeID) {
	n.stack = append(n.stack, struct {
		s     trace.ScopeID
		clock uint64
	}{s, n.clock})
}

// ExitScope implements trace.Handler.
func (n *Naive) ExitScope(trace.ScopeID) { n.stack = n.stack[:len(n.stack)-1] }

// newRefData records a reference's first access.
//
//reuse:coldpath
func (n *Naive) newRefData(ref trace.RefID, cur trace.ScopeID) *RefData {
	rd := &RefData{Ref: ref, Scope: cur, Patterns: make(map[PatternKey]*Pattern)}
	n.refs[ref] = rd
	return rd
}

// Access implements trace.Handler.
func (n *Naive) Access(ref trace.RefID, addr uint64, size uint32, _ bool) {
	first := addr >> n.blockBits
	last := (addr + uint64(size) - 1) >> n.blockBits
	if size == 0 {
		last = first
	}
	for b := first; b <= last; b++ {
		n.accessBlock(ref, b)
	}
}

func (n *Naive) accessBlock(ref trace.RefID, block uint64) {
	n.clock++
	cur := trace.NoScope
	if len(n.stack) > 0 {
		cur = n.stack[len(n.stack)-1].s
	}
	rd := n.refs[ref]
	if rd == nil {
		rd = n.newRefData(ref, cur)
	}
	rd.Total++

	// Find the block in the LRU stack.
	pos := -1
	for i, b := range n.lru {
		if b == block {
			pos = i
			break
		}
	}
	if pos < 0 {
		rd.Cold++
		n.lru = append([]uint64{block}, n.lru...)
		n.lastScope[block] = cur
		n.lastTime[block] = n.clock
		return
	}
	dist := uint64(pos) // blocks more recently used than this one
	prevScope := n.lastScope[block]
	prevTime := n.lastTime[block]
	// Move to front.
	copy(n.lru[1:pos+1], n.lru[:pos])
	n.lru[0] = block
	n.lastScope[block] = cur
	n.lastTime[block] = n.clock

	// Paper's top-down scan for the carrying scope.
	carrying := trace.NoScope
	for i := len(n.stack) - 1; i >= 0; i-- {
		if n.stack[i].clock < prevTime {
			carrying = n.stack[i].s
			break
		}
	}

	key := PatternKey{Source: prevScope, Carrying: carrying}
	p := rd.Patterns[key]
	if p == nil {
		p = &Pattern{Key: key, Hist: histo.New(), MissAt: make([]uint64, len(n.thresholds))}
		rd.Patterns[key] = p
	}
	p.Hist.Add(dist)
	p.Count++
	for i, th := range n.thresholds {
		if dist >= th {
			p.MissAt[i]++
		}
	}
}

// Ref returns the data collected for ref, or nil.
func (n *Naive) Ref(ref trace.RefID) *RefData { return n.refs[ref] }

// Refs returns all per-reference data (unordered).
func (n *Naive) Refs() []*RefData {
	out := make([]*RefData, 0, len(n.refs))
	for _, rd := range n.refs {
		out = append(out, rd)
	}
	return out
}
