package staticreuse

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"reusetool/internal/histo"
	"reusetool/internal/reusedist"
	"reusetool/internal/trace"
)

// TestRecencyMatchesStableSort: the recency heap pops matches in exactly
// the order sort.SliceStable leaves them in when it sorts the structs by
// timeAgo ascending, then srcOrder descending. The keys come from tiny
// ranges, so most comparisons tie and enumeration order decides.
func TestRecencyMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		matches := make([]match, rng.Intn(300))
		for i := range matches {
			matches[i] = match{
				timeAgo:  float64(rng.Intn(3)) / 2,
				srcOrder: rng.Intn(3),
				residual: int64(i), // identifies the match after the reference sort
			}
		}
		h := recency{matches: matches}
		h.init()

		ref := append([]match(nil), matches...)
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].timeAgo != ref[j].timeAgo {
				return ref[i].timeAgo < ref[j].timeAgo
			}
			return ref[i].srcOrder > ref[j].srcOrder
		})
		for i := range ref {
			if mi := h.pop(); int64(mi) != ref[i].residual {
				t.Fatalf("trial %d: pop %d gives match %d, sort.SliceStable puts %d there", trial, i, mi, ref[i].residual)
			}
		}
		if len(h.heap) != 0 {
			t.Fatalf("trial %d: %d matches left after %d pops", trial, len(h.heap), len(ref))
		}
	}
}

// TestOffsetsWithinMatchesScan: for every lattice of block offsets a
// reference can have, every element size and every residual a match can
// carry, the index range the positions loop visits holds exactly the
// offsets the full scan would keep.
func TestOffsetsWithinMatchesScan(t *testing.T) {
	const bs = 64
	for _, elem := range []int64{1, 4, 8} {
		for step := int64(1); step <= bs; step++ {
			if bs%step != 0 {
				continue // a lattice step is a gcd with the block size, or an element size below it
			}
			for first := int64(0); first < step; first++ {
				pos := offsets{first: first, step: step, n: int(ceilDiv(bs-first, step))}
				var xs []int64
				for x := first; x < bs; x += step {
					xs = append(xs, x)
				}
				if len(xs) != pos.n {
					t.Fatalf("step %d first %d: %d offsets, lattice says %d", step, first, len(xs), pos.n)
				}
				for residual := int64(-bs + 1); residual < bs; residual++ {
					lo, hi := sameBlock(residual, elem, bs)
					i, j := pos.within(lo, hi)
					var want []int
					for k, x := range xs {
						if x >= lo && x < hi {
							want = append(want, k)
						}
					}
					if len(want) != j-i || (len(want) > 0 && want[0] != i) {
						t.Fatalf("elem %d step %d first %d residual %d: range [%d, %d), scan keeps %v",
							elem, step, first, residual, i, j, want)
					}
				}
			}
		}
	}
}

// assignByOffset is the reference for assign: the per-offset scan it
// replaced. Every match is sorted by recency up front, and coverage is
// kept per block offset: remaining[i] is the probability that an access
// at the i-th offset has not yet found a predecessor, and applied[i]
// lists, as positions in taken, the matches that took mass there.
func (e *estimator) assignByOffset(rd *reusedist.RefData, matches []match, price func(*match) uint64,
	positions offsets, elem, bs int64, total float64, thresholds []uint64) {

	order := make([]int32, len(matches))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := &matches[order[i]], &matches[order[j]]
		if a.timeAgo != b.timeAgo {
			return a.timeAgo < b.timeAgo
		}
		return a.srcOrder > b.srcOrder
	})

	remaining := make([]float64, positions.n)
	for i := range remaining {
		remaining[i] = 1
	}
	applied := make([][]int32, positions.n)
	type appliedMatch struct {
		index     int32 // into matches
		gen       int32
		dominated bool
		contains  bool
	}
	var taken []appliedMatch
	live := float64(positions.n)
	weight := 1 / float64(positions.n)
	pats := map[reusedist.PatternKey]map[uint64]float64{}

	for gen, mi := range order {
		if live < 1e-9 {
			break
		}
		m := &matches[mi]
		stamp := int32(gen + 1)
		slot := int32(-1)
		first, end := positions.within(sameBlock(m.residual, elem, bs))
		var got float64
		for i := first; i < end; i++ {
			if remaining[i] <= 0 {
				continue
			}
			take := m.boundary
			for _, ti := range applied[i] {
				d := &taken[ti]
				a := &matches[d.index]
				if d.gen != stamp {
					d.gen, d.dominated, d.contains = stamp, dominatedBy(e.lagsOf(m), e.lagsOf(a)), dominatedBy(e.lagsOf(a), e.lagsOf(m))
				}
				if d.dominated {
					take = 0
					break
				}
				if d.contains && take > m.boundary-a.boundary {
					take = m.boundary - a.boundary
				}
			}
			if take <= 0 {
				continue
			}
			if take > remaining[i] {
				take = remaining[i]
			}
			got += take
			remaining[i] -= take
			if slot < 0 {
				slot = int32(len(taken))
				taken = append(taken, appliedMatch{index: mi})
			}
			applied[i] = append(applied[i], slot)
		}
		live -= got
		if got <= 0 {
			continue
		}
		key := reusedist.PatternKey{Source: m.srcScope, Carrying: m.carrying}
		if pats[key] == nil {
			pats[key] = map[uint64]float64{}
		}
		pats[key][price(m)] += got * weight
	}
	e.fill(rd, live*weight, pats, total, thresholds)
}

// dominatedBy is the per-offset scan's domination test, one direction at
// a time: whether lag vector m's iteration box lies inside a's.
func dominatedBy(m, a []int64) bool {
	if len(m) == 0 || len(m) != len(a) {
		return false
	}
	for i, ka := range a {
		km := m[i]
		if ka > 0 && km < ka {
			return false
		}
		if ka < 0 && km > ka {
			return false
		}
	}
	return true
}

// assignCase is one generated reference for the assign differential: its
// matches over a lag arena, where its accesses land in a block, and how
// its matches are priced.
type assignCase struct {
	matches    []match
	lags       []int64
	depth      int
	positions  offsets
	elem, bs   int64
	total      float64
	thresholds []uint64
}

// genAssignCase draws a reference and up to maxMatches matches. The
// matches mix ties in timeAgo and srcOrder, residuals across the whole
// block, boundaries in (0, 1] (most from the lag vector as emitLag
// derives them, so nested boxes carry consistent boundaries), small lag
// vectors that nest in each other, and irregular pseudo-matches. The
// reference's lattice and element size vary, and so does its access
// count, up to 2^60.
func genAssignCase(rng *rand.Rand, maxMatches int) assignCase {
	c := assignCase{
		bs:         []int64{32, 64, 128, 4096}[rng.Intn(4)],
		depth:      rng.Intn(4),
		total:      float64(1 + rng.Intn(1_000_000)),
		thresholds: []uint64{4, 32, 256},
	}
	if rng.Intn(2) == 0 {
		// So many accesses that the rounded counts show the last bit of
		// every share, where a sum and a product of takes differ.
		c.total = float64(uint64(1) << (50 + rng.Intn(11)))
	}
	c.elem = min(c.bs, []int64{1, 2, 4, 8, 16}[rng.Intn(5)])
	step := c.elem
	if rng.Intn(2) == 0 {
		step = min(c.bs, int64(1)<<rng.Intn(7)) // a gcd of strides with the block size
	}
	first := rng.Int63n(step)
	c.positions = offsets{first: first, step: step, n: int(ceilDiv(c.bs-first, step))}

	trips := make([]int64, c.depth)
	period := make([]float64, c.depth)
	p := 1.0
	for i := c.depth - 1; i >= 0; i-- { // innermost last
		trips[i] = 1 + rng.Int63n(6)
		period[i] = p
		p *= float64(trips[i])
	}
	irregular := rng.Intn(3) == 0
	for n := rng.Intn(maxMatches + 1); len(c.matches) < n; {
		m := match{
			srcScope: trace.ScopeID(rng.Intn(3)),
			carrying: trace.ScopeID(rng.Intn(3)),
			srcOrder: rng.Intn(3),
			lag:      -1,
		}
		switch rng.Intn(4) {
		case 0:
			m.residual = 0
		case 1:
			m.residual = (rng.Int63n(2*c.bs/c.elem-1) - (c.bs/c.elem - 1)) * c.elem
		default:
			m.residual = rng.Int63n(2*c.bs-1) - (c.bs - 1)
		}
		if irregular && rng.Intn(8) == 0 {
			m.boundary = 1 - rng.Float64() // in (0, 1]
			c.matches = append(c.matches, m)
			continue
		}
		m.lag = int32(len(c.lags))
		m.boundary = 1
		for i := 0; i < c.depth; i++ {
			k := rng.Int63n(2*trips[i]-1) - (trips[i] - 1)
			if rng.Intn(2) == 0 {
				k = 0
			}
			c.lags = append(c.lags, k)
			m.timeAgo += float64(k) * period[i]
			m.boundary *= float64(trips[i]-abs64(k)) / float64(trips[i])
		}
		if m.timeAgo < 0 {
			m.timeAgo = -m.timeAgo
		}
		switch rng.Intn(4) {
		case 0:
			m.timeAgo = float64(rng.Intn(3)) / 2
		case 1:
			m.boundary = 1 - rng.Float64()
		}
		c.matches = append(c.matches, m)
	}
	return c
}

// run assigns the case with the given implementation and returns the
// reference's data and the number of times each match was priced.
func (c assignCase) run(assign func(e *estimator, rd *reusedist.RefData, matches []match,
	price func(*match) uint64, positions offsets, elem, bs int64, total float64, thresholds []uint64)) (*reusedist.RefData, map[*match]int) {

	e := &estimator{res: histo.DefaultResolution, lags: c.lags, outer: make([]nestLoop, c.depth)}
	priced := map[*match]int{}
	price := func(m *match) uint64 {
		priced[m]++
		d := uint64(abs64(m.residual)%5) + 3*uint64(m.srcOrder)
		for _, k := range e.lagsOf(m) {
			d = 7*d + uint64(abs64(k))
		}
		return d * d
	}
	rd := &reusedist.RefData{Patterns: map[reusedist.PatternKey]*reusedist.Pattern{}, Total: uint64(c.total)}
	assign(e, rd, c.matches, price, c.positions, c.elem, c.bs, c.total, c.thresholds)
	return rd, priced
}

// sameRefData reports how got differs from want: cold count, total,
// pattern keys, arc and miss counts, and every histogram bin.
func sameRefData(got, want *reusedist.RefData) error {
	if got.Cold != want.Cold || got.Total != want.Total {
		return fmt.Errorf("cold %d total %d, the per-offset scan gives cold %d total %d", got.Cold, got.Total, want.Cold, want.Total)
	}
	gp, wp := got.PatternsByKey(), want.PatternsByKey()
	if len(gp) != len(wp) {
		return fmt.Errorf("%d patterns, the per-offset scan gives %d", len(gp), len(wp))
	}
	bins := func(h *histo.Histogram) (out []histo.Bin) {
		h.Each(func(b histo.Bin) { out = append(out, b) })
		return out
	}
	for i, w := range wp {
		g := gp[i]
		if g.Key != w.Key || g.Count != w.Count || !slices.Equal(g.MissAt, w.MissAt) || !slices.Equal(bins(g.Hist), bins(w.Hist)) {
			return fmt.Errorf("pattern %d: %+v count %d miss %v bins %v, the per-offset scan gives %+v count %d miss %v bins %v",
				i, g.Key, g.Count, g.MissAt, bins(g.Hist), w.Key, w.Count, w.MissAt, bins(w.Hist))
		}
	}
	return nil
}

// FuzzAssignMatchesByOffset: on generated match sets, assign (recency
// heap, offset runs, lazy pricing) fills a reference's data bit for bit
// as the per-offset scan does, and prices exactly the matches the scan
// prices, each once.
func FuzzAssignMatchesByOffset(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint16(10+seed*10))
	}
	f.Fuzz(func(t *testing.T, seed int64, maxMatches uint16) {
		c := genAssignCase(rand.New(rand.NewSource(seed)), int(min(maxMatches, 2000)))
		got, gotPriced := c.run((*estimator).assign)
		want, wantPriced := c.run((*estimator).assignByOffset)
		if err := sameRefData(got, want); err != nil {
			t.Fatalf("%d matches, %d offsets (step %d, elem %d, bs %d), depth %d: %v",
				len(c.matches), c.positions.n, c.positions.step, c.elem, c.bs, c.depth, err)
		}
		if !maps.Equal(gotPriced, wantPriced) {
			t.Fatalf("priced %d matches, the per-offset scan %d", len(gotPriced), len(wantPriced))
		}
		for m, n := range gotPriced {
			if n != 1 {
				t.Fatalf("match %+v priced %d times", *m, n)
			}
		}
	})
}
