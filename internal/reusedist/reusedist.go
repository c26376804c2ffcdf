// Package reusedist implements the paper's online memory-reuse-distance
// analysis (Section II).
//
// An Engine consumes the instrumentation event stream and maintains:
//
//   - a logical clock incremented on every memory access;
//   - a hierarchical block table associating each memory block with the
//     logical time, reference and scope of its last access;
//   - an order-statistic tree keyed by last-access time that answers "how
//     many distinct blocks were accessed since time t" in O(log M) (the
//     paper uses a balanced binary tree; the engine uses ostree.Epoch,
//     which gives the same counts). The eight newest marks stay outside
//     the tree, in a small most-recently-used front: a reuse of one of
//     those blocks — 88–99.8% of block accesses in the sweep3d and gtc
//     runs — is counted in the front and makes no tree call;
//   - the dynamic stack of scopes used to determine the scope carrying each
//     reuse.
//
// For every reference the engine collects one reuse-distance histogram per
// (source scope, carrying scope) pair — the paper's reuse patterns — plus
// exact miss counts at a configurable set of fully-associative capacity
// thresholds (used for the exact simulation/prediction cross-check).
package reusedist

import (
	"fmt"
	"sort"

	"reusetool/internal/blocktable"
	"reusetool/internal/histo"
	"reusetool/internal/ostree"
	"reusetool/internal/sampling"
	"reusetool/internal/scope"
	"reusetool/internal/trace"
)

// PatternKey identifies a reuse pattern at a reference: the scope that
// performed the previous access to the block (source) and the scope carrying
// the reuse. The destination scope is implicit — it is the scope containing
// the reference the histogram hangs off.
//
// Context is zero unless calling-context tracking is enabled
// (Config.ContextFilter); it then holds a hash of the dynamic call path
// active at the reuse's destination — the extension Section IV describes
// as possible future work ("the data collection infrastructure can be
// extended to include calling context as well").
type PatternKey struct {
	Source   trace.ScopeID
	Carrying trace.ScopeID
	Context  uint64
}

// Pattern accumulates the reuse arcs of one (reference, source, carrying)
// combination.
type Pattern struct {
	Key  PatternKey
	Hist *histo.Histogram
	// MissAt[i] counts arcs with distance >= Config.Thresholds[i]: exact
	// fully-associative LRU misses at that capacity.
	MissAt []uint64
	// Count is the number of finite reuse arcs recorded.
	Count uint64
}

// RefData aggregates everything recorded for one reference.
type RefData struct {
	Ref trace.RefID
	// Scope is the innermost static scope the reference executes in
	// (the destination scope of all its reuse arcs).
	Scope trace.ScopeID
	// Patterns maps (source, carrying) to accumulated data.
	Patterns map[PatternKey]*Pattern
	// Total counts all accesses by this reference; Cold the first-touch
	// (compulsory) ones.
	Total uint64
	Cold  uint64

	// pats is the dense intern table of this reference's patterns: the
	// per-ref pattern ID is simply the slice index. References have few
	// patterns (one per distinct source/carrying pair), so a pattern-cache
	// miss resolves by scanning this slice instead of hashing a 24-byte
	// PatternKey; the Patterns map stays canonical for all readers and is
	// only consulted once pats outgrows patScanMax.
	pats []*Pattern
	// last is a one-entry pattern cache: consecutive reuse arcs of a
	// reference overwhelmingly repeat the same (source, carrying) pair, so
	// the common case is a single 24-byte key compare.
	last *Pattern
}

// ColdMissAt reports cold accesses; compulsory misses are misses at every
// capacity.
func (r *RefData) ColdMissAt() uint64 { return r.Cold }

// MissAt sums exact fully-associative misses at threshold index i across
// all patterns, including compulsory misses.
func (r *RefData) MissAt(i int) uint64 {
	n := r.Cold
	for _, p := range r.Patterns {
		n += p.MissAt[i]
	}
	return n
}

// SortedPatterns returns the reference's patterns ordered by descending
// miss count at threshold index i (cold excluded), ties broken by key.
func (r *RefData) SortedPatterns(i int) []*Pattern {
	ps := make([]*Pattern, 0, len(r.Patterns))
	for _, p := range r.Patterns {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].MissAt[i] != ps[b].MissAt[i] {
			return ps[a].MissAt[i] > ps[b].MissAt[i]
		}
		if ps[a].Key.Source != ps[b].Key.Source {
			return ps[a].Key.Source < ps[b].Key.Source
		}
		return ps[a].Key.Carrying < ps[b].Key.Carrying
	})
	return ps
}

// Config parameterizes an Engine.
type Config struct {
	// BlockBits is log2 of the memory-block (cache line or page) size the
	// distances are measured at.
	BlockBits uint
	// Thresholds are fully-associative capacities, in blocks, at which the
	// engine counts exact misses online (e.g. L2 and L3 capacities in
	// lines). May be empty.
	Thresholds []uint64
	// HistRes is the histogram resolution (sub-buckets per octave);
	// 0 means histo.DefaultResolution.
	HistRes int
	// Hints presizes the engine's data structures; zero values mean
	// unknown and never affect results, only allocation behaviour.
	Hints CapacityHints
	// ContextFilter, when non-nil, enables calling-context tracking:
	// scopes for which it returns true (typically routines) extend the
	// context hash, and patterns are collected separately per context.
	// The paper leaves this off by default to bound overhead.
	ContextFilter func(trace.ScopeID) bool
	// Sampling selects SHARDS-style spatial sampling of the block stream
	// (see internal/sampling and sampling.go in this package). The zero
	// value analyzes every block exactly. When enabled, call Finish once
	// the event stream ends and before reading any counts: until then the
	// engine holds unscaled sampled state.
	Sampling sampling.Config
}

// CapacityHints estimates the sizes the engine's structures will reach, so
// they can be allocated once up front instead of growing incrementally on
// the hot path. All fields are optional; core.Pipeline fills them from the
// finalized IR and the array layout.
type CapacityHints struct {
	// Refs is the number of static references in the program
	// (len(ir.Info.Refs)); sizes the per-reference table.
	Refs int
	// Scopes is the number of static scopes (scope.Tree.Len()); sizes the
	// per-scope access counters.
	Scopes int
	// FootprintBytes is the total data footprint of the laid-out arrays;
	// each engine derives its distinct-block estimate as
	// FootprintBytes >> BlockBits, sizing the block table and the
	// order-statistic tree window.
	FootprintBytes uint64
}

// Engine is the online reuse-distance collector. It implements
// trace.Handler. Create with New.
//
// Its fields are read, and many are written, on every access: the block
// table's and the tree's headers are embedded for that reason. A
// collector allocates its engines back to back, and a fanned-out
// collector runs each on its own CPU, so a cache line holding one
// engine's tail and the next engine's head would bounce between the two
// CPUs on every access. A cache line of padding at each end of the
// struct keeps every line of the state private to this engine, whatever
// the allocator's size class or alignment.
type Engine struct {
	_     [cacheLine]byte
	cfg   Config
	clock uint64
	table blocktable.Radix
	// front holds the frontN newest last-access marks, oldest first; tree
	// holds every older mark. Every tree mark is older than every front
	// mark, so a reuse of a front mark counts only front marks, and the
	// tree sees strictly increasing inserts (see accessBlock).
	front  [frontK]uint64
	frontN int
	tree   ostree.Epoch
	stack  scope.Stack
	refs   []*RefData // indexed by RefID, nil until first access
	res    int
	// ctx is the calling-context hash stack (one entry per active scope)
	// when context tracking is on.
	ctx []uint64
	// scopeAccesses counts block accesses per innermost static scope,
	// enabling per-scope miss rates.
	scopeAccesses []uint64

	// Sorted-threshold view of cfg.Thresholds: sortedTh is ascending,
	// thPerm maps a sorted position back to the configured index, and
	// minTh (MaxUint64 when no thresholds are configured) gates the whole
	// miss-counting step — reuses shorter than the smallest capacity, the
	// overwhelming majority on tiled and streaming code, skip it entirely.
	sortedTh []uint64
	thPerm   []int
	minTh    uint64

	// Slab allocators for the per-reference metadata, so cold-path
	// creation of RefData/Pattern values does not hit the general
	// allocator once per object.
	refSlab  []RefData
	patSlab  []Pattern
	missSlab []uint64

	// Spatial sampling state (see sampling.go). sampler is nil for exact
	// engines; scale is the current rate R (1 when exact) multiplied into
	// every measured distance; maxSample caps the admitted block set in
	// adaptive mode; arcs counts raw (never rescaled) sampled reuse arcs
	// for the error estimate; finished records that report-time scaling
	// ran.
	sampler   *sampling.Sampler
	scale     uint64
	maxSample int
	arcs      uint64
	finished  bool
	// rejected is the admission memo: per reference, one more than the
	// last block the sampler rejected for it, 0 when none (see
	// knownRejected).
	rejected []uint64

	_ [cacheLine]byte
}

// cacheLine is the cache-line size, in bytes, the engine's layout keeps
// its per-access state apart by: the line size of amd64 and of most
// arm64 cores.
const cacheLine = 64

// lineIsolated returns n zeroed counters with a cache line of unused
// padding before and after them, so no other allocation shares a line
// with any of them.
func lineIsolated(n int) []uint64 {
	const pad = cacheLine / 8
	buf := make([]uint64, n+2*pad)
	return buf[pad : pad+n : pad+n]
}

// frontK is the number of newest last-access marks the engine keeps
// outside the tree. In exact sweep3d and gtc runs, 88–99.8% of block
// accesses reuse one of the eight most recently used blocks; four marks
// catch markedly fewer, and sixteen gain nothing over eight.
const frontK = 8

// patScanMax bounds the linear scan of RefData.pats; beyond it the pattern
// lookup falls back to the canonical map.
const patScanMax = 16

// slabSize is the chunk size of the RefData/Pattern slab allocators.
const slabSize = 64

var emptyMiss = []uint64{}

// MaxBlockBits is the largest block-size exponent an engine accepts
// (1 TiB blocks). New panics past it; persist.Load refuses artifacts that
// name a larger one.
const MaxBlockBits = 40

// New returns an Engine for the given configuration.
func New(cfg Config) *Engine {
	if cfg.BlockBits > MaxBlockBits {
		panic(fmt.Sprintf("reusedist: unreasonable block bits %d", cfg.BlockBits))
	}
	res := cfg.HistRes
	if res == 0 {
		res = histo.DefaultResolution
	}
	blocks := 0
	if cfg.Hints.FootprintBytes > 0 {
		blocks = int(cfg.Hints.FootprintBytes >> cfg.BlockBits)
	}
	// A sampling engine only ever admits ~1/R of the footprint (and at
	// most the adaptive cap), so size the block table and tree window
	// from the admitted estimate, not the full footprint.
	blocks = cfg.Sampling.CapBlocks(blocks)
	// The tree window holds at least 4096 slots, and twice the expected
	// live set when that is larger, so compaction stays amortized O(1).
	window := 1 << 12
	if blocks > window/2 {
		window = 2 * blocks
	}
	e := &Engine{
		cfg:   cfg,
		table: *blocktable.NewRadixHint(blocks),
		tree:  *ostree.NewEpoch(window),
		res:   res,
		scale: 1,
		minTh: histo.Cold, // MaxUint64: no threshold ever reached
	}
	if cfg.Sampling.Enabled() {
		e.sampler = sampling.New(cfg.Sampling)
		e.scale = e.sampler.Rate()
		e.maxSample = e.sampler.MaxBlocks()
		e.rejected = lineIsolated(cfg.Hints.Refs)
	}
	if n := len(cfg.Thresholds); n > 0 {
		e.thPerm = make([]int, n)
		for i := range e.thPerm {
			e.thPerm[i] = i
		}
		sort.SliceStable(e.thPerm, func(a, b int) bool {
			return cfg.Thresholds[e.thPerm[a]] < cfg.Thresholds[e.thPerm[b]]
		})
		e.sortedTh = make([]uint64, n)
		for i, pi := range e.thPerm {
			e.sortedTh[i] = cfg.Thresholds[pi]
		}
		e.minTh = e.sortedTh[0]
	}
	if cfg.Hints.Refs > 0 {
		e.refs = make([]*RefData, 0, cfg.Hints.Refs)
	}
	if cfg.Hints.Scopes > 0 {
		e.scopeAccesses = lineIsolated(cfg.Hints.Scopes)
	}
	return e
}

// Clock reports the current logical access time (number of block accesses
// processed).
func (e *Engine) Clock() uint64 { return e.clock }

// DistinctBlocks reports the number of distinct memory blocks touched
// (0 for an engine restored from persisted data).
func (e *Engine) DistinctBlocks() int {
	return e.table.Blocks()
}

// EnterScope implements trace.Handler.
func (e *Engine) EnterScope(s trace.ScopeID) {
	e.stack.Enter(s, e.clock)
	if e.cfg.ContextFilter != nil {
		cur := e.context()
		if e.cfg.ContextFilter(s) {
			// FNV-style mix of the parent context and the scope.
			cur = (cur ^ uint64(s+1)) * 1099511628211
		}
		e.ctx = append(e.ctx, cur)
	}
}

// ExitScope implements trace.Handler.
func (e *Engine) ExitScope(trace.ScopeID) {
	e.stack.Exit()
	if e.cfg.ContextFilter != nil {
		e.ctx = e.ctx[:len(e.ctx)-1]
	}
}

// context returns the current calling-context hash (0 when tracking is
// off or at the outermost level).
func (e *Engine) context() uint64 {
	if len(e.ctx) == 0 {
		return 0
	}
	return e.ctx[len(e.ctx)-1]
}

// Access implements trace.Handler. An access spanning multiple blocks is
// processed as one access per touched block.
//
//reuse:hotpath
func (e *Engine) Access(ref trace.RefID, addr uint64, size uint32, _ bool) {
	bb := e.cfg.BlockBits
	first := addr >> bb
	last := (addr + uint64(size) - 1) >> bb
	if size == 0 {
		last = first
	}
	for b := first; b <= last; b++ {
		if e.sampler != nil && (e.knownRejected(ref, b) || !e.admit(ref, b)) {
			// Rejected by the spatial sample: the test is the entire
			// cost of this access.
			continue
		}
		e.accessBlock(ref, b)
	}
}

// AccessRun implements trace.RunHandler: it expands the run in order,
// taking each access as Access does. It repeats Access's body instead of
// calling it, since Access does not inline and a call per access would
// cost a sampling engine about as much as the rest of its work on it.
//
//reuse:hotpath
func (e *Engine) AccessRun(refs []trace.RunRef, iters uint64) {
	bb := e.cfg.BlockBits
	for k := uint64(0); k < iters; k++ {
		for i := range refs {
			r := &refs[i]
			addr := r.Addr + k*r.Delta
			first := addr >> bb
			last := (addr + uint64(r.Size) - 1) >> bb
			if r.Size == 0 {
				last = first
			}
			for b := first; b <= last; b++ {
				if e.sampler != nil && (e.knownRejected(r.Ref, b) || !e.admit(r.Ref, b)) {
					continue
				}
				e.accessBlock(r.Ref, b)
			}
		}
	}
}

// knownRejected reports whether block is the last block a sampling
// engine rejected for ref. Each reference remembers that block, so a
// reference that stays in a rejected block is turned away without a
// hash. That is exact: the admission threshold only ever falls, so a
// block once rejected stays rejected.
func (e *Engine) knownRejected(ref trace.RefID, block uint64) bool {
	return uint(ref) < uint(len(e.rejected)) && e.rejected[ref] == block+1 && block+1 != 0
}

// admit tests block against a sampling engine's admission hash, and
// records a rejection in the memo (a negative ref is left out).
func (e *Engine) admit(ref trace.RefID, block uint64) bool {
	if e.sampler.Admit(block) {
		return true
	}
	if ref >= 0 {
		if int(ref) >= len(e.rejected) {
			e.growRejected(int(ref))
		}
		e.rejected[ref] = block + 1
	}
	return false
}

// growRejected extends the rejection memo to cover index i. Like the
// per-scope counters, the memo is written per access and stays
// line-isolated.
//
//reuse:coldpath
func (e *Engine) growRejected(i int) {
	grown := lineIsolated(max(i+1, 2*len(e.rejected)))
	copy(grown, e.rejected)
	e.rejected = grown
}

func (e *Engine) accessBlock(ref trace.RefID, block uint64) {
	e.clock++
	now := e.clock
	cur := e.stack.Top()
	rd := e.refData(ref, cur)
	rd.Total++
	if cur >= 0 {
		if int(cur) >= len(e.scopeAccesses) {
			e.growScopeAccesses(int(cur))
		}
		e.scopeAccesses[cur]++
	}

	prev, seen := e.table.LookupStore(block, blocktable.Entry{Time: now, Ref: ref, Scope: cur})
	if !seen {
		rd.Cold++
		e.pushFront(now)
		if e.maxSample > 0 && e.table.Blocks() > e.maxSample {
			e.rescale()
		}
		return
	}
	// The distance is the number of marks newer than prev.Time. A mark in
	// the front counts only the front marks after it and moves to the
	// newest end; any other mark counts the tree's newer marks plus the
	// whole front.
	var dist uint64
	if n := e.frontN; n > 0 && prev.Time >= e.front[0] {
		i := n - 1
		for e.front[i] != prev.Time {
			i--
		}
		dist = uint64(n - 1 - i)
		for ; i < n-1; i++ {
			e.front[i] = e.front[i+1]
		}
		e.front[n-1] = now
	} else {
		dist = e.tree.CountGreater(prev.Time) + uint64(n)
		e.tree.Delete(prev.Time)
		e.pushFront(now)
	}
	// Distances are measured in the sampled address space and scaled to
	// full-trace units by the current rate (scale is 1 when exact, so
	// the multiply never branches).
	dist *= e.scale
	e.arcs++

	key := PatternKey{Source: prev.Scope, Carrying: e.stack.Carrying(prev.Time), Context: e.context()}
	p := rd.last
	if p == nil || p.Key != key {
		p = rd.pattern(key, e)
		rd.last = p
	}
	p.Hist.Add(dist)
	p.Count++
	if dist >= e.minTh {
		// Binary search the ascending threshold list for how many
		// capacities this distance misses at, then bump those counters via
		// the sorted→configured permutation.
		th := e.sortedTh
		lo, hi := 1, len(th) // sortedTh[0] <= dist already established
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if th[mid] <= dist {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for _, i := range e.thPerm[:lo] {
			p.MissAt[i]++
		}
	}
}

// pushFront makes t, the current time, the newest front mark. A full
// front first moves its oldest mark into the tree; that mark is newer
// than every tree mark, so the tree's inserts stay increasing.
func (e *Engine) pushFront(t uint64) {
	if e.frontN == frontK {
		e.tree.Insert(e.front[0])
		copy(e.front[:], e.front[1:])
		e.front[frontK-1] = t
		return
	}
	e.front[e.frontN] = t
	e.frontN++
}

// flushFront moves every front mark into the tree, oldest first.
func (e *Engine) flushFront() {
	for _, t := range e.front[:e.frontN] {
		e.tree.Insert(t)
	}
	e.frontN = 0
}

// growScopeAccesses extends the per-scope counters to cover scope index i;
// kept out of line so the hot path carries only the bounds check. The
// counters stay line-isolated: a new backing array is padded like the
// one New allocates, and it at least doubles.
//
//reuse:coldpath
func (e *Engine) growScopeAccesses(i int) {
	if i >= cap(e.scopeAccesses) {
		grown := lineIsolated(max(i+1, 2*cap(e.scopeAccesses)))
		copy(grown, e.scopeAccesses)
		e.scopeAccesses = grown[:len(e.scopeAccesses)]
	}
	e.scopeAccesses = e.scopeAccesses[:i+1]
}

// pattern interns key for this reference: scan the dense pattern table (or
// consult the canonical map once the table is large), creating the pattern
// from the engine's slabs on first sight.
func (rd *RefData) pattern(key PatternKey, e *Engine) *Pattern {
	if len(rd.pats) > patScanMax {
		if p := rd.Patterns[key]; p != nil {
			return p
		}
	} else {
		for _, p := range rd.pats {
			if p.Key == key {
				return p
			}
		}
	}
	p := e.newPattern(key)
	rd.pats = append(rd.pats, p)
	rd.Patterns[key] = p
	return p
}

// newPattern allocates a pattern from the engine's slabs.
//
//reuse:coldpath
func (e *Engine) newPattern(key PatternKey) *Pattern {
	if len(e.patSlab) == 0 {
		e.patSlab = make([]Pattern, slabSize)
	}
	p := &e.patSlab[0]
	e.patSlab = e.patSlab[1:]
	p.Key = key
	p.Hist = histo.NewRes(e.res)
	if k := len(e.cfg.Thresholds); k > 0 {
		if len(e.missSlab) < k {
			e.missSlab = make([]uint64, k*slabSize)
		}
		p.MissAt = e.missSlab[:k:k]
		e.missSlab = e.missSlab[k:]
	} else {
		p.MissAt = emptyMiss
	}
	return p
}

func (e *Engine) refData(ref trace.RefID, cur trace.ScopeID) *RefData {
	if int(ref) < len(e.refs) {
		if rd := e.refs[ref]; rd != nil {
			return rd
		}
	}
	return e.newRefData(ref, cur)
}

// newRefData grows the per-reference table and allocates a RefData from the
// engine's slab; cold path of refData.
//
//reuse:coldpath
func (e *Engine) newRefData(ref trace.RefID, cur trace.ScopeID) *RefData {
	for int(ref) >= len(e.refs) {
		e.refs = append(e.refs, nil)
	}
	if len(e.refSlab) == 0 {
		e.refSlab = make([]RefData, slabSize)
	}
	rd := &e.refSlab[0]
	e.refSlab = e.refSlab[1:]
	rd.Ref = ref
	rd.Scope = cur
	rd.Patterns = make(map[PatternKey]*Pattern)
	e.refs[ref] = rd
	return rd
}

// Refs returns the collected per-reference data for all references that
// executed at least once, in RefID order.
func (e *Engine) Refs() []*RefData {
	out := make([]*RefData, 0, len(e.refs))
	for _, rd := range e.refs {
		if rd != nil {
			out = append(out, rd)
		}
	}
	return out
}

// Ref returns data for one reference, or nil if it never executed.
func (e *Engine) Ref(ref trace.RefID) *RefData {
	if int(ref) >= len(e.refs) {
		return nil
	}
	return e.refs[ref]
}

// Thresholds returns the configured exact-miss capacities.
func (e *Engine) Thresholds() []uint64 { return e.cfg.Thresholds }

// BlockBits returns the configured block-size exponent.
func (e *Engine) BlockBits() uint { return e.cfg.BlockBits }

// TotalAccesses sums accesses over all references (in block units).
func (e *Engine) TotalAccesses() uint64 { return e.clock }

// AccessesByScope returns per-scope (innermost static scope) block-access
// counts, indexed by ScopeID; scopes beyond the slice had none.
func (e *Engine) AccessesByScope() []uint64 { return e.scopeAccesses }

// SetScopeAccesses supplies per-scope block-access counts for an engine
// restored from saved or statically estimated data.
func (e *Engine) SetScopeAccesses(counts []uint64) { e.scopeAccesses = counts }

// TotalMissAt sums exact fully-associative misses at threshold index i over
// all references, including compulsory misses.
func (e *Engine) TotalMissAt(i int) uint64 {
	var n uint64
	for _, rd := range e.refs {
		if rd != nil {
			n += rd.MissAt(i)
		}
	}
	return n
}

// Restore rebuilds a read-only engine from persisted per-reference data
// (see internal/persist). The returned engine serves all query methods but
// must not receive further events, so its block table and order-statistic
// tree stay empty; cfg supplies only the block size and thresholds
// the data was collected at. RefIDs must be non-negative, and the largest
// one sizes the dense reference table.
func Restore(cfg Config, refs []*RefData, clock uint64) *Engine {
	maxID := trace.RefID(-1)
	for _, rd := range refs {
		if rd != nil && rd.Ref > maxID {
			maxID = rd.Ref
		}
	}
	e := &Engine{
		cfg:   cfg,
		clock: clock,
		refs:  make([]*RefData, maxID+1),
		scale: 1,
		minTh: histo.Cold,
		// Persisted sampled data was scaled by Finish before the
		// snapshot; never scale it a second time.
		finished: true,
	}
	for _, rd := range refs {
		if rd != nil {
			e.refs[rd.Ref] = rd
		}
	}
	return e
}

// TotalCold sums compulsory accesses over all references.
func (e *Engine) TotalCold() uint64 {
	var n uint64
	for _, rd := range e.refs {
		if rd != nil {
			n += rd.Cold
		}
	}
	return n
}
