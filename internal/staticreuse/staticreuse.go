// Package staticreuse predicts per-reference reuse-distance histograms and
// carrying loops symbolically from the IR, without running the interpreter.
//
// The dynamic pipeline (internal/reusedist) measures reuse distance by
// executing every access. This package derives the same per-reference,
// per-(source scope, carrying scope) patterns from the symbolic address
// forms of Section III instead:
//
//  1. a single approximate walk of the program binds parameters and
//     estimates loop trip counts and per-reference access totals
//     (no array data is touched — see trips.go);
//  2. for every reference, candidate reuse sources are the members of its
//     related-reference group (internal/staticanalysis) shifted by small
//     iteration-lag vectors of the enclosing loop nest; a lag k is viable
//     when the residual byte offset between destination and shifted source
//     is less than one block;
//  3. viable sources are taken most recent first and assigned probability
//     mass over the block-offset ring [0, B): a source at residual r covers
//     the destination alignments for which both land in one block, and
//     closer sources shadow farther ones — uncovered mass becomes cold
//     misses. Only the sources that take mass are priced (step 4);
//  4. the reuse interval of a lag whose outermost non-zero component is m
//     iterations of loop L converts to a distinct-block count via the
//     footprint of m iterations of L's body, summed over the reference
//     groups nested under L (footprint.go);
//  5. the result is packaged as reusedist.RefData and restored into a
//     read-only collector, so cache/metrics/advise consume static
//     predictions exactly as they consume measured ones.
package staticreuse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"reusetool/internal/cache"
	"reusetool/internal/histo"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/reusedist"
	"reusetool/internal/staticanalysis"
	"reusetool/internal/symbolic"
	"reusetool/internal/trace"
)

// Options configures an estimate.
type Options struct {
	// Params override program parameter defaults.
	Params map[string]int64
	// HistRes is the histogram resolution (0 = default).
	HistRes int
}

// maxLags caps the candidate lag vectors enumerated per reference and
// source.
const maxLags = 4096

// Result is a static prediction: a read-only collector shaped exactly like
// the dynamic one, plus the static analysis built from estimated trips.
type Result struct {
	Info      *ir.Info
	Hier      *cache.Hierarchy
	Collector *reusedist.Collector
	Static    *staticanalysis.Result
	Stats     *Stats
	// Approx reports that trip estimation used fallbacks (unknown bounds,
	// undecidable branches).
	Approx bool
}

// Trips adapts the estimated trip counts for staticanalysis.
func (r *Result) Trips() staticanalysis.Trips {
	st := r.Stats
	return func(s trace.ScopeID) float64 { return st.Trips(s, 1) }
}

// Estimate runs the static reuse-distance estimation for all granularities
// of the hierarchy.
func Estimate(info *ir.Info, hier *cache.Hierarchy, opts Options) (*Result, error) {
	if hier == nil {
		hier = cache.ScaledItanium2()
	}
	mach, err := interp.Layout(info, opts.Params)
	if err != nil {
		return nil, fmt.Errorf("staticreuse: %w", err)
	}
	stats := collectStats(info, mach)
	trips := func(s trace.ScopeID) float64 { return stats.Trips(s, 1) }
	static := staticanalysis.Analyze(info, mach, trips)

	params := map[string]int64{}
	for name := range info.Prog.Defaults {
		params[name] = mach.Param(name)
	}

	est := &estimator{
		info:   info,
		mach:   mach,
		static: static,
		stats:  stats,
		params: params,
		res:    opts.HistRes,
	}
	if est.res == 0 {
		est.res = histo.DefaultResolution
	}

	grans := hier.Granularities()
	col := &reusedist.Collector{Grans: grans}
	for _, g := range grans {
		refs, clock := est.granularity(g)
		eng := reusedist.Restore(reusedist.Config{
			BlockBits:  g.BlockBits,
			Thresholds: g.Thresholds,
			HistRes:    est.res,
		}, refs, clock)
		eng.SetScopeAccesses(est.scopeAccesses())
		col.Engines = append(col.Engines, eng)
	}
	return &Result{
		Info:      info,
		Hier:      hier,
		Collector: col,
		Static:    static,
		Stats:     stats,
		Approx:    stats.Approx,
	}, nil
}

type estimator struct {
	info   *ir.Info
	mach   *interp.Machine
	static *staticanalysis.Result
	stats  *Stats
	params map[string]int64
	res    int
	// matches is enumerateMatches' output buffer, lags the arena its lag
	// vectors live in and outer the nest they index, outermost loop
	// first: every lag vector of one reference is len(outer) long. All
	// three are reused for every reference: assign consumes one
	// reference's matches, and keeps no pointer into them, before the
	// next reference is listed.
	matches []match
	lags    []int64
	outer   []nestLoop
	// heap, runs, links and taken are assign's working state, reused for
	// every reference.
	heap  []int32
	runs  []run
	links []link
	taken []appliedMatch
}

// scopeAccesses estimates block accesses per innermost static scope.
func (e *estimator) scopeAccesses() []uint64 {
	out := make([]uint64, e.info.Scopes.Len())
	for _, ref := range e.info.Refs {
		s := ref.Scope()
		if s >= 0 && int(s) < len(out) {
			out[s] += uint64(math.Round(e.stats.RefTotal(ref.ID())))
		}
	}
	return out
}

// nestLoop is one loop of a reference's effective dynamic nest with the
// reference's per-iteration stride and the loop's estimated trip count.
type nestLoop struct {
	loop   *ir.Loop
	stride int64
	trips  int64
	// period is the loop's iteration period in innermost-iteration units.
	period float64
}

// effectiveNest returns the dynamic loop chain of a reference, innermost
// first: its own enclosing loops extended by the dominant chain of its
// routine's call site.
func (e *estimator) effectiveNest(ref *ir.Ref) []*ir.Loop {
	own := e.info.LoopsOf(ref.ID())
	chain := e.stats.Chain(e.info, ref.Scope())
	if len(chain) == 0 {
		return own
	}
	out := make([]*ir.Loop, 0, len(own)+len(chain))
	out = append(out, own...)
	out = append(out, chain...)
	return out
}

// concretize substitutes parameter values into a form's constant term and
// reports whether the remainder is affine purely over the given nest
// variables.
func (e *estimator) concretize(f symbolic.Form, nest []*ir.Loop) (c int64, strides map[string]int64, ok bool) {
	if f.HasIndirect() || f.HasNonAffine() {
		return 0, nil, false
	}
	nestVar := map[string]bool{}
	for _, l := range nest {
		nestVar[l.Var.Name] = true
	}
	c = f.Const
	strides = map[string]int64{}
	for v, coeff := range f.Coeff {
		if coeff == 0 {
			continue
		}
		if nestVar[v] {
			strides[v] = coeff
			continue
		}
		if pv, isParam := e.params[v]; isParam {
			c += coeff * pv
			continue
		}
		// Coefficient on a Let-bound or otherwise unknown variable: the
		// address is not a pure function of the nest.
		return 0, nil, false
	}
	return c, strides, true
}

// match is one candidate reuse source for a destination reference. It
// carries no reuse distance: assign prices a match only once it takes
// mass (distance).
type match struct {
	srcScope trace.ScopeID
	carrying trace.ScopeID
	// lag is the offset of the iteration-lag vector in the estimator's
	// arena (lagsOf), or -1 for an irregular pseudo-match, which has none.
	lag int32
	// residual is dst.addr - src.addr in bytes for the shifted source.
	residual int64
	// timeAgo orders matches by recency (innermost-iteration units).
	timeAgo float64
	// srcOrder breaks timeAgo ties (higher = more recent).
	srcOrder int
	// boundary is the fraction of iterations at which the lag exists.
	boundary float64
}

// lagsOf returns m's iteration-lag vector, outermost loop first: empty for
// a reference outside every loop, nil for an irregular pseudo-match.
func (e *estimator) lagsOf(m *match) []int64 {
	if m.lag < 0 {
		return nil
	}
	return e.lags[m.lag : int(m.lag)+len(e.outer)]
}

// nested reports whether the iteration box of lag vector m is contained
// in a's (m is dominated by a) and whether a's is contained in m's. When
// m's box lies inside a's, every destination iteration at which the lag
// m exists also has the (more recent) lag a, so m can never be the
// actual predecessor there. This holds when a's per-loop lag constraints
// are implied by m's. An empty lag vector is neither dominated nor
// dominating.
func nested(m, a []int64) (mInA, aInM bool) {
	if len(m) == 0 || len(m) != len(a) {
		return false, false
	}
	mInA, aInM = true, true
	for i, ka := range a {
		km := m[i]
		if ka > 0 && km < ka || ka < 0 && km > ka {
			mInA = false
		}
		if km > 0 && ka < km || km < 0 && ka > km {
			aInM = false
		}
	}
	return mInA, aInM
}

// granularity runs the estimation at one block size and returns synthetic
// per-reference data plus the total block-access clock.
func (e *estimator) granularity(g reusedist.Granularity) ([]*reusedist.RefData, uint64) {
	bs := int64(1) << g.BlockBits
	fpMemo := map[fpKey]float64{}
	var refs []*reusedist.RefData
	var clock uint64

	for _, ref := range e.info.Refs {
		total := e.stats.RefTotal(ref.ID())
		if total < 0.5 {
			continue
		}
		clock += uint64(math.Round(total))
		rd := &reusedist.RefData{
			Ref:      ref.ID(),
			Scope:    ref.Scope(),
			Patterns: map[reusedist.PatternKey]*reusedist.Pattern{},
			Total:    uint64(math.Round(total)),
		}
		refs = append(refs, rd)

		nest := e.effectiveNest(ref)
		form := e.static.Form(ref.ID())
		_, _, affine := e.concretize(form, nest)
		var matches []match
		if affine {
			matches = e.enumerateMatches(ref, nest, bs)
		} else {
			matches = e.irregularMatches(ref, nest, total, bs)
		}
		price := func(m *match) uint64 { return e.distance(ref, m, total, bs, fpMemo) }
		e.assign(rd, matches, price, e.lattice(ref, nest, bs, affine), ref.Array.Elem, bs, total, g.Thresholds)
	}
	return refs, clock
}

// enumerateMatches lists candidate sources for an affine reference: group
// members shifted by iteration-lag vectors with sub-block residuals. The
// result aliases e.matches, its lag vectors e.lags and their nest
// e.outer; all are valid until the next call.
func (e *estimator) enumerateMatches(ref *ir.Ref, nest []*ir.Loop, bs int64) []match {
	group := e.static.GroupOf(ref.ID())
	dstC, dstStride, ok := e.concretize(e.static.Form(ref.ID()), nest)
	if !ok || group == nil {
		return nil
	}

	// Build the nest description outermost first for enumeration. Strides
	// are per iteration: the address coefficient times the loop step.
	outer := e.outer[:0]
	period := 1.0
	for _, l := range nest { // innermost first
		t := int64(math.Round(e.stats.Trips(l.Scope(), 1)))
		if t < 1 {
			t = 1
		}
		step := int64(l.Step.(ir.Const))
		outer = append(outer, nestLoop{loop: l, stride: dstStride[l.Var.Name] * step, trips: t, period: period})
		period *= float64(t)
	}
	slices.Reverse(outer)
	e.outer = outer
	// reach[i] is the max |Σ k·s| achievable by loops strictly inside
	// outer[i] (constant-stride components only; zero-stride loops add 0).
	reach := make([]int64, len(outer)+1)
	for i := len(outer) - 1; i >= 0; i-- {
		r := reach[i+1]
		if s := abs64(outer[i].stride); s != 0 {
			r += s * (outer[i].trips - 1)
		}
		reach[i] = r
	}

	dstOrder := e.stats.Order(ref.ID())
	out := e.matches[:0]
	e.lags = e.lags[:0]
	lags := make([]int64, len(outer))
	for gi, src := range group.Refs {
		srcC, srcStride, ok := e.concretize(group.Forms[gi], nest)
		if !ok || !sameStrides(dstStride, srcStride) {
			continue
		}
		delta := dstC - srcC
		srcOrder := e.stats.Order(src.ID())
		srcScope := src.Scope()

		// Recursive lag enumeration, outermost loop first.
		count := 0
		var enum func(i int, partial int64)
		enum = func(i int, partial int64) {
			if count >= maxLags {
				return
			}
			if i == len(outer) {
				e.emitLag(&out, ref, srcScope, srcOrder, dstOrder, lags, partial, bs)
				count++
				return
			}
			l := outer[i]
			if l.stride == 0 {
				// A zero-stride loop re-touches the same address every
				// iteration: only the previous iteration matters.
				for _, k := range [...]int64{0, 1} {
					if k < l.trips {
						lags[i] = k
						enum(i+1, partial)
					}
				}
				return
			}
			// |partial + k*s| must stay within one block after the inner
			// loops contribute at most reach[i+1].
			lim := bs - 1 + reach[i+1]
			lo := ceilDiv(-lim-partial, l.stride)
			hi := floorDiv(lim-partial, l.stride)
			if l.stride < 0 {
				lo, hi = ceilDiv(lim-partial, l.stride), floorDiv(-lim-partial, l.stride)
			}
			if lo < -(l.trips - 1) {
				lo = -(l.trips - 1)
			}
			if hi > l.trips-1 {
				hi = l.trips - 1
			}
			for k := lo; k <= hi; k++ {
				lags[i] = k
				enum(i+1, partial+k*l.stride)
			}
		}
		enum(0, delta)
	}
	e.matches = out
	return out
}

// emitLag validates one lag vector over e.outer and appends the
// resulting match, unpriced.
func (e *estimator) emitLag(out *[]match, dst *ir.Ref, srcScope trace.ScopeID,
	srcOrder, dstOrder int, lags []int64, residual int64, bs int64) {

	if residual >= bs || residual <= -bs {
		return
	}
	outer := e.outer
	timeAgo := 0.0
	boundary := 1.0
	carryIdx := -1
	for i, l := range outer {
		k := lags[i]
		if k == 0 {
			continue
		}
		if carryIdx < 0 {
			carryIdx = i
		}
		timeAgo += float64(k) * l.period
		boundary *= float64(l.trips-abs64(k)) / float64(l.trips)
	}
	if boundary <= 0 {
		return
	}
	if timeAgo < 0 || (timeAgo == 0 && srcOrder >= dstOrder) {
		return
	}

	carrying := dst.Scope()
	switch {
	case carryIdx >= 0:
		carrying = outer[carryIdx].loop.Scope()
	case len(outer) > 0:
		// Same-iteration reuse: carried by the innermost enclosing loop.
		carrying = outer[len(outer)-1].loop.Scope()
	}
	*out = append(*out, match{
		srcScope: srcScope,
		carrying: carrying,
		lag:      int32(len(e.lags)),
		residual: residual,
		timeAgo:  timeAgo,
		srcOrder: srcOrder,
		boundary: boundary,
	})
	e.lags = append(e.lags, lags...)
}

// distance prices a match of the reference dst, which makes total
// accesses: the estimated reuse distance in blocks of size bs.
func (e *estimator) distance(dst *ir.Ref, m *match, total float64, bs int64, fpMemo map[fpKey]float64) uint64 {
	if m.lag < 0 {
		// An irregular pseudo-match re-touches the array's working set.
		return uint64(math.Round(distinctDraws(e.arrayBlocks(dst.Array, bs), total)))
	}
	for i, k := range e.lagsOf(m) {
		if k != 0 {
			// Carried by the outermost loop with a non-zero lag: the
			// blocks its |k| iterations touch.
			return uint64(math.Round(e.footprint(e.outer[i].loop, abs64(k), bs, fpMemo)))
		}
	}
	return e.intraDistance(m.srcOrder, e.stats.Order(dst.ID()))
}

// intraDistance estimates the blocks touched between two accesses of the
// same innermost iteration: the distinct related groups accessed strictly
// between them in program order.
func (e *estimator) intraDistance(srcOrder, dstOrder int) uint64 {
	seen := map[*staticanalysis.Group]bool{}
	for _, id := range e.stats.orderedRefs {
		o := e.stats.Order(id)
		if o <= srcOrder || o >= dstOrder {
			continue
		}
		if g := e.static.GroupOf(id); g != nil {
			seen[g] = true
		}
	}
	return uint64(len(seen))
}

type fpKey struct {
	scope trace.ScopeID
	m     int64
}

// footprint estimates the distinct blocks touched by m iterations of the
// loop's body: for every related group executing under the loop, the
// blocks swept by its inner loops at full trips and by the carrying loop
// at m trips.
func (e *estimator) footprint(carry *ir.Loop, m int64, bs int64, memo map[fpKey]float64) float64 {
	key := fpKey{scope: carry.Scope(), m: m}
	if v, ok := memo[key]; ok {
		return v
	}
	total := 0.0
	for _, g := range e.static.Groups {
		if len(g.Refs) == 0 {
			continue
		}
		nest := e.effectiveNest(g.Refs[0])
		pos := -1
		for i, l := range nest {
			if l == carry {
				pos = i
				break
			}
		}
		if pos < 0 {
			continue
		}
		var consts []int64
		var dims []dim
		okAll := true
		for gi := range g.Refs {
			c, strides, ok := e.concretize(g.Forms[gi], nest)
			if !ok {
				okAll = false
				break
			}
			consts = append(consts, c)
			if gi == 0 {
				for i := 0; i < pos; i++ {
					l := nest[i]
					dims = append(dims, dim{
						stride: strides[l.Var.Name] * int64(l.Step.(ir.Const)),
						trips:  math.Max(1, e.stats.Trips(l.Scope(), 1)),
					})
				}
				mm := float64(m)
				if t := e.stats.Trips(carry.Scope(), 1); mm > t {
					mm = t
				}
				dims = append(dims, dim{
					stride: strides[carry.Var.Name] * int64(carry.Step.(ir.Const)),
					trips:  mm,
				})
			}
		}
		if !okAll {
			// Irregular group under this loop: accesses land uniformly over
			// the array, so count the expected distinct blocks hit by the
			// group's access volume across the covered iterations — which
			// caps the contribution at both the access count and the
			// array's extent (a single iteration touches ~1 block, not the
			// whole array).
			accesses := float64(len(g.Refs))
			for i := 0; i < pos; i++ {
				accesses *= math.Max(1, e.stats.Trips(nest[i].Scope(), 1))
			}
			mm := float64(m)
			if t := e.stats.Trips(carry.Scope(), 1); mm > t {
				mm = t
			}
			accesses *= mm
			total += distinctDraws(e.arrayBlocks(g.Array, bs), accesses)
			continue
		}
		total += blocksOf(consts, g.Array.Elem, dims, bs)
	}
	memo[key] = total
	return total
}

// arrayBlocks reports an array's total size in blocks.
func (e *estimator) arrayBlocks(a *ir.Array, bs int64) float64 {
	bytes := e.mach.ArrayLen(a) * a.Elem
	b := float64(bytes) / float64(bs)
	if b < 1 {
		b = 1
	}
	return b
}

// distinctDraws is the expected number of distinct blocks that n uniform
// draws over ab blocks touch.
func distinctDraws(ab, n float64) float64 {
	return ab * (1 - math.Exp(-n/ab))
}

// irregularMatches models a reference whose address is not affine over its
// nest (indirect or data-dependent): accesses are spread uniformly over
// the array, so a fraction of them re-touch previously seen blocks at a
// distance of about the array's working set, carried by the loop with the
// irregular stride (or the outermost loop). The one pseudo-match it
// returns aliases e.matches.
func (e *estimator) irregularMatches(ref *ir.Ref, nest []*ir.Loop, total float64, bs int64) []match {
	distinct := distinctDraws(e.arrayBlocks(ref.Array, bs), total)
	reuseFrac := 0.0
	if total > 0 {
		reuseFrac = 1 - distinct/total
	}
	if reuseFrac <= 0 {
		return nil
	}
	carrying := ref.Scope()
	if g := e.static.GroupOf(ref.ID()); g != nil && g.IrregularLoop != nil {
		carrying = g.IrregularLoop.Scope()
	} else if len(nest) > 0 {
		carrying = nest[len(nest)-1].Scope()
	}
	e.matches = append(e.matches[:0], match{
		srcScope: ref.Scope(),
		carrying: carrying,
		lag:      -1,
		boundary: reuseFrac,
	})
	return e.matches
}

// offsets is an arithmetic progression of block offsets: first,
// first+step, ..., n of them, all in [0, bs).
type offsets struct {
	first, step int64
	n           int
}

// within returns the index range [i, j) of the offsets that lie in
// [lo, hi).
func (o offsets) within(lo, hi int64) (i, j int) {
	if lo > o.first {
		i = int(min(int64(o.n), ceilDiv(lo-o.first, o.step)))
	}
	if hi > o.first {
		j = int(min(int64(o.n), ceilDiv(hi-o.first, o.step)))
	}
	return min(i, j), j
}

// lattice returns the block offsets a reference's accesses can land on:
// the coset of the subgroup of [0, bs) generated by its per-iteration
// strides. A non-affine reference is assumed uniform over element-aligned
// offsets.
func (e *estimator) lattice(ref *ir.Ref, nest []*ir.Loop, bs int64, affine bool) offsets {
	g := bs
	var x0 int64
	if affine {
		c, strides, _ := e.concretize(e.static.Form(ref.ID()), nest)
		for _, l := range nest {
			if s := strides[l.Var.Name] * int64(l.Step.(ir.Const)); s != 0 {
				g = gcd64(g, abs64(s))
			}
		}
		x0 = ((c % g) + g) % g
	} else if elem := ref.Array.Elem; elem < bs {
		g = elem
	}
	return offsets{first: x0, step: g, n: int(ceilDiv(bs-x0, g))}
}

// sameBlock returns the block offsets [lo, hi) at which a source at the
// given residual lands in the destination's block.
func sameBlock(residual, elem, bs int64) (lo, hi int64) {
	lo, hi = 0, bs
	if residual > 0 {
		lo = residual - (elem - 1)
	} else if residual < 0 {
		hi = min(bs, bs+residual+(elem-1))
	}
	return lo, hi
}

// recency is a binary min-heap of match indices that pops the most recent
// match first: timeAgo ascending, then srcOrder descending, then
// enumeration order — the order a stable sort on the first two keys
// leaves them in. Building it is linear, and assign pops only the
// matches it reaches before the reference's mass is covered.
type recency struct {
	matches []match
	heap    []int32
}

func (h *recency) less(a, b int32) bool {
	ma, mb := &h.matches[a], &h.matches[b]
	if ma.timeAgo != mb.timeAgo {
		return ma.timeAgo < mb.timeAgo
	}
	if ma.srcOrder != mb.srcOrder {
		return ma.srcOrder > mb.srcOrder
	}
	return a < b
}

// init fills the heap with every match index and heapifies it.
func (h *recency) init() {
	for i := range h.matches {
		h.heap = append(h.heap, int32(i))
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes and returns the most recent match left.
func (h *recency) pop() int32 {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	h.down(0)
	return top
}

func (h *recency) down(i int) {
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], h.heap[i]) {
			return
		}
		h.heap[i], h.heap[c] = h.heap[c], h.heap[i]
		i = c
	}
}

// appliedMatch is a match that took mass in assign: the lag vector and
// boundary the domination rule reads, and its domination relation to the
// match being applied, cached. The cache is valid while gen equals the
// current match's stamp, its rank in the recency order plus one.
type appliedMatch struct {
	lags      []int64
	boundary  float64
	gen       int32
	dominated bool // the applied match dominates the current one
	contains  bool // the current match dominates the applied one
}

// run is a stretch of consecutive positions in the reference's block
// offsets, from start up to the next run's start, that share the
// probability left that an access there has not yet found a predecessor,
// and the matches that took mass there (applied, the head of a list in
// links, newest first; -1 when empty).
type run struct {
	start   int32
	applied int32
	left    float64
}

// link is one entry of a run's applied list: a position in taken and the
// next, older entry. The runs split from one run share its list.
type link struct {
	slot, next int32
}

// assign distributes the reference's accesses over its matches with the
// block-offset coverage model and fills the synthetic RefData. positions
// are the block offsets the reference actually lands on, equally likely;
// elem is its element size and total its access count. price gives a
// match's reuse distance and is called once per match that takes mass.
func (e *estimator) assign(rd *reusedist.RefData, matches []match, price func(*match) uint64,
	positions offsets, elem, bs int64, total float64, thresholds []uint64) {

	byRecency := recency{matches: matches, heap: e.heap[:0]}
	byRecency.init()
	runs := append(e.runs[:0], run{left: 1, applied: -1})
	links := e.links[:0]
	taken := e.taken[:0]
	live := float64(positions.n)
	weight := 1 / float64(positions.n)
	pats := map[reusedist.PatternKey]map[uint64]float64{}

	for stamp := int32(1); live >= 1e-9 && len(byRecency.heap) > 0; stamp++ {
		mi := byRecency.pop()
		m := &matches[mi]
		lags := e.lagsOf(m)
		slot := int32(-1) // m's position in taken, once it takes mass
		lo, hi := positions.within(sameBlock(m.residual, elem, bs))
		first, end := int32(lo), int32(hi)
		if first >= end {
			continue // no position m's source can share a block with
		}
		r, found := slices.BinarySearchFunc(runs, first, func(ru run, at int32) int { return cmp.Compare(ru.start, at) })
		if !found {
			r-- // the run holding offset first
		}
		var got float64
		for ; r < len(runs) && runs[r].start < end; r++ {
			if runs[r].left <= 0 {
				continue
			}
			// m claims the iterations where its lag exists and no more
			// recent applied lag does: inside an applied box containing
			// m's box it can never be the predecessor (skip); an applied
			// box contained in m's box has already claimed its own
			// boundary fraction, so m gets only the difference.
			take := m.boundary
			for l := runs[r].applied; l >= 0; l = links[l].next {
				a := &taken[links[l].slot]
				if a.gen != stamp {
					a.gen = stamp
					a.dominated, a.contains = nested(lags, a.lags)
				}
				if a.dominated {
					take = 0
					break
				}
				if a.contains && take > m.boundary-a.boundary {
					take = m.boundary - a.boundary
				}
			}
			if take <= 0 {
				continue
			}
			if take > runs[r].left {
				take = runs[r].left
			}
			// m takes mass on the run's offsets in [first, end) only:
			// split the others off, sharing the run's state.
			if runs[r].start < first {
				runs = slices.Insert(runs, r+1, run{start: first, left: runs[r].left, applied: runs[r].applied})
				r++
			}
			stop := int32(positions.n)
			if r+1 < len(runs) {
				stop = runs[r+1].start
			}
			if stop > end {
				runs = slices.Insert(runs, r+1, run{start: end, left: runs[r].left, applied: runs[r].applied})
				stop = end
			}
			// One addition per offset, in offset order, so got rounds as
			// a per-offset sum does.
			for k := runs[r].start; k < stop; k++ {
				got += take
			}
			runs[r].left -= take
			if slot < 0 {
				slot = int32(len(taken))
				taken = append(taken, appliedMatch{lags: lags, boundary: m.boundary})
			}
			links = append(links, link{slot: slot, next: runs[r].applied})
			runs[r].applied = int32(len(links) - 1)
		}
		live -= got
		if got <= 0 {
			continue
		}
		key := reusedist.PatternKey{Source: m.srcScope, Carrying: m.carrying}
		counts := pats[key]
		if counts == nil {
			counts = map[uint64]float64{}
			pats[key] = counts
		}
		counts[price(m)] += got * weight
	}
	e.heap, e.runs, e.links, e.taken = byRecency.heap, runs, links, taken
	e.fill(rd, live*weight, pats, total, thresholds)
}

// fill writes a reference's cold count and patterns: cold is the share of
// its total accesses that found no predecessor, and pats the share at
// each reuse distance per pattern.
func (e *estimator) fill(rd *reusedist.RefData, cold float64, pats map[reusedist.PatternKey]map[uint64]float64,
	total float64, thresholds []uint64) {

	rd.Cold = uint64(math.Round(cold * total))
	var covered uint64
	keys := make([]reusedist.PatternKey, 0, len(pats))
	for k := range pats {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Source != keys[j].Source {
			return keys[i].Source < keys[j].Source
		}
		return keys[i].Carrying < keys[j].Carrying
	})
	for _, k := range keys {
		counts := pats[k]
		p := &reusedist.Pattern{
			Key:    k,
			Hist:   histo.NewRes(e.res),
			MissAt: make([]uint64, len(thresholds)),
		}
		dists := make([]uint64, 0, len(counts))
		for d := range counts {
			dists = append(dists, d)
		}
		sort.Slice(dists, func(i, j int) bool { return dists[i] < dists[j] })
		for _, d := range dists {
			n := uint64(math.Round(counts[d] * total))
			if n == 0 {
				continue
			}
			p.Hist.AddN(d, n)
			p.Count += n
			for ti, th := range thresholds {
				if d >= th {
					p.MissAt[ti] += n
				}
			}
		}
		if p.Count > 0 {
			rd.Patterns[k] = p
			covered += p.Count
		}
	}
	// Keep Total consistent with Cold + arcs after rounding.
	if rd.Cold+covered > rd.Total {
		rd.Total = rd.Cold + covered
	}
}

func sameStrides(a, b map[string]int64) bool {
	for v, s := range a {
		if s != 0 && b[v] != s {
			return false
		}
	}
	for v, s := range b {
		if s != 0 && a[v] != s {
			return false
		}
	}
	return true
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
