// Package hotpathalloc is the analysistest fixture for the
// hotpathalloc analyzer. It reproduces both findings the old
// tools/lint receiver/method table encoded — make(map...) and a map
// composite literal on the per-access path — but the hot path is
// declared with //reuse:hotpath annotations and discovered through the
// callgraph: no function is named in the analyzer's source.
package hotpathalloc

// Histogram mimics internal/histo: Add is reached transitively from
// Engine.Access, so it needs no annotation of its own.
type Histogram struct{ counts []uint64 }

func (h *Histogram) Add(d uint64) {
	_ = map[string]int{"a": 1} // want `map literal on the per-access hot path \(\(hotpathalloc\.Engine\)\.Access -> \(hotpathalloc\.Engine\)\.accessBlock -> \(hotpathalloc\.Histogram\)\.Add\)`
	if int(d) < len(h.counts) {
		h.counts[d]++
	}
}

// Tree mimics an interface-typed engine field: an interface call on the
// hot path resolves to every in-module implementation.
type Tree interface{ Insert(uint64) }

type Epoch struct{ slots []uint64 }

func (e *Epoch) Insert(k uint64) {
	idx := make(map[uint64]int) // want `map allocation on the per-access hot path \(\(hotpathalloc\.Engine\)\.Access -> \(hotpathalloc\.Engine\)\.accessBlock -> \(hotpathalloc\.Epoch\)\.Insert\)`
	idx[k] = 0
	e.slots = append(e.slots, k)
}

// Engine mimics reusedist.Engine.
type Engine struct {
	h *Histogram
	t Tree
}

// Access is the per-access entry point.
//
//reuse:hotpath
func (e *Engine) Access(block uint64) {
	e.accessBlock(block)
}

func (e *Engine) accessBlock(block uint64) {
	m := make(map[uint64]int) // want `map allocation on the per-access hot path \(\(hotpathalloc\.Engine\)\.Access -> \(hotpathalloc\.Engine\)\.accessBlock\)`
	m[block]++
	e.h.Add(block)
	e.t.Insert(block)
	e.grow(block)
	_ = make([]uint64, 8) // slice allocation is fine
}

// grow is an explicitly cold helper: the sanctioned place for a map
// allocation reached from the hot path.
//
//reuse:coldpath
func (e *Engine) grow(block uint64) {
	_ = make(map[uint64]int)
	_ = block
}

// New is a constructor — not reachable from a hot root, so its map
// allocations are fine (tools/lint's TestAllowsMapAllocOffHotPath).
func New() *Engine {
	e := &Engine{h: &Histogram{}, t: &Epoch{}}
	_ = map[string]int{"warm": 1}
	return e
}

// Other has an Access method too, but it is not annotated and nothing
// hot calls it: the old table matched by receiver/method name and
// would still have covered a same-named method on the wrong type.
type Other struct{}

func (o *Other) Access() {
	_ = make(map[uint64]int)
}
