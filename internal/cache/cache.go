// Package cache turns architecture-independent reuse-distance data into
// cache-miss predictions for concrete memory hierarchies.
//
// For a fully-associative LRU cache the translation is exact: a reuse at
// distance d hits iff d is smaller than the cache capacity in blocks
// (Section I of the paper). For set-associative caches the package
// implements the probabilistic model of Marin & Mellor-Crummey [14]: the d
// intervening distinct blocks are assumed to fall uniformly across sets, so
// a reuse survives in an A-way cache with S sets with probability
// P(X < A), X ~ Binomial(d, 1/S).
package cache

import (
	"fmt"
	"math"

	"reusetool/internal/histo"
	"reusetool/internal/reusedist"
)

// Level describes one cache or TLB level.
type Level struct {
	Name string
	// LineBits is log2 of the block (line or page) size in bytes.
	LineBits uint
	// Sets is the number of sets; 1 means fully associative.
	Sets int
	// Assoc is the number of ways per set.
	Assoc int
	// Latency is the miss penalty in cycles charged by the timing model.
	Latency float64
}

// CapacityBlocks reports the total capacity in blocks.
func (l Level) CapacityBlocks() uint64 { return uint64(l.Sets) * uint64(l.Assoc) }

// CapacityBytes reports the total capacity in bytes.
func (l Level) CapacityBytes() uint64 { return l.CapacityBlocks() << l.LineBits }

// LineSize reports the block size in bytes.
func (l Level) LineSize() uint64 { return 1 << l.LineBits }

// String implements fmt.Stringer.
func (l Level) String() string {
	return fmt.Sprintf("%s[%dB x %d sets x %d ways = %dKB]",
		l.Name, l.LineSize(), l.Sets, l.Assoc, l.CapacityBytes()/1024)
}

// PMiss returns the probability that a reuse at distance d misses in this
// level under the probabilistic set-associative model. For fully
// associative levels (Sets == 1) the result is exactly 0 or 1.
func (l Level) PMiss(d uint64) float64 {
	if l.Sets <= 1 {
		if d >= uint64(l.Assoc) {
			return 1
		}
		return 0
	}
	if d < uint64(l.Assoc) {
		// Fewer intervening blocks than ways: cannot be evicted even if
		// they all map to the same set.
		return 0
	}
	// P(hit) = P(Binomial(d, 1/S) <= A-1), computed as A terms iterated in
	// ordinary floating point: t_0 = (1-p)^d via exp/log1p for stability,
	// t_{k+1} = t_k * (d-k)/(k+1) * p/(1-p).
	p := 1 / float64(l.Sets)
	logT := float64(d) * math.Log1p(-p)
	t := math.Exp(logT)
	if t == 0 {
		// (1-p)^d underflows only when the expected count d/S is huge,
		// where the hit probability is numerically zero anyway.
		return 1
	}
	ratio := p / (1 - p)
	sum := t
	for k := 0; k < l.Assoc-1; k++ {
		t *= float64(d-uint64(k)) / float64(k+1) * ratio
		sum += t
	}
	if sum > 1 {
		sum = 1
	}
	return 1 - sum
}

// ExpectedMisses integrates PMiss over a reuse-distance histogram collected
// at this level's block size, using bin midpoints. Compulsory (cold)
// accesses always miss and are included.
func (l Level) ExpectedMisses(h *histo.Histogram) float64 {
	if h == nil {
		return 0
	}
	sum := float64(h.Cold())
	h.Each(func(b histo.Bin) {
		mid := b.Lo + (b.Hi-b.Lo)/2
		sum += float64(b.Count) * l.PMiss(mid)
	})
	return sum
}

// FullyAssocMisses predicts misses under a fully-associative LRU cache of
// the same capacity, thresholding the histogram at CapacityBlocks.
// Compulsory accesses are included.
func (l Level) FullyAssocMisses(h *histo.Histogram) float64 {
	if h == nil {
		return 0
	}
	return float64(h.Cold()) + h.CountAtLeast(l.CapacityBlocks())
}

// Hierarchy is an ordered set of cache levels (closest first) plus the
// scalar parameters the timing model needs.
type Hierarchy struct {
	Name   string
	Levels []Level
	// BaseCPI is the no-stall cost in cycles per memory access used by the
	// timing model.
	BaseCPI float64
	// PageBits is log2 of the virtual-memory page size.
	PageBits uint
}

// Level returns the named level, or nil.
func (h *Hierarchy) Level(name string) *Level {
	for i := range h.Levels {
		if h.Levels[i].Name == name {
			return &h.Levels[i]
		}
	}
	return nil
}

// Granularities groups the hierarchy's levels by block size into the
// granularity list a reusedist.Collector needs: levels sharing a block size
// share one collection engine, with one exact-miss threshold per level (its
// fully-associative capacity in blocks).
func (h *Hierarchy) Granularities() []reusedist.Granularity {
	var out []reusedist.Granularity
	byBits := map[uint]int{}
	for _, l := range h.Levels {
		idx, ok := byBits[l.LineBits]
		if !ok {
			idx = len(out)
			byBits[l.LineBits] = idx
			out = append(out, reusedist.Granularity{
				Name:      fmt.Sprintf("block%d", l.LineSize()),
				BlockBits: l.LineBits,
			})
		}
		out[idx].Thresholds = append(out[idx].Thresholds, l.CapacityBlocks())
		out[idx].LevelNames = append(out[idx].LevelNames, l.Name)
	}
	return out
}

// Itanium2 is the hierarchy used throughout the paper's evaluation:
// 256KB 8-way L2 and 1.5MB 6-way L3 with 128-byte lines, and a 128-entry
// fully-associative TLB with 16KB pages. (The Itanium2 L1 does not hold
// floating-point data and the paper models L2/L3/TLB only.) Latencies are
// approximate Itanium2 (Madison) miss costs in cycles.
func Itanium2() *Hierarchy {
	return &Hierarchy{
		Name: "Itanium2",
		Levels: []Level{
			{Name: "L2", LineBits: 7, Sets: 256, Assoc: 8, Latency: 8},
			{Name: "L3", LineBits: 7, Sets: 2048, Assoc: 6, Latency: 120},
			{Name: "TLB", LineBits: 14, Sets: 1, Assoc: 128, Latency: 30},
		},
		BaseCPI:  1.0,
		PageBits: 14,
	}
}

// ScaledItanium2 is the Itanium2 hierarchy with capacities divided by 16
// and 4KB pages. The repository's experiments run problem sizes scaled
// down from the paper's (mesh 20–200 becomes 8–40, etc.); shrinking the
// caches by the same factor preserves the working-set/capacity ratios —
// and therefore the crossover shapes of Figures 8 and 11 — at laptop-scale
// run times.
func ScaledItanium2() *Hierarchy {
	return &Hierarchy{
		Name: "ScaledItanium2",
		Levels: []Level{
			{Name: "L2", LineBits: 7, Sets: 16, Assoc: 8, Latency: 8},
			{Name: "L3", LineBits: 7, Sets: 128, Assoc: 6, Latency: 120},
			{Name: "TLB", LineBits: 12, Sets: 1, Assoc: 32, Latency: 30},
		},
		BaseCPI:  1.0,
		PageBits: 12,
	}
}

// Opteron is a contemporary comparison machine with 64-byte lines (a
// different collection granularity than the Itanium2): 1MB 16-way L2 as
// the last cache level and a 512-entry 4-way TLB with 4KB pages.
func Opteron() *Hierarchy {
	return &Hierarchy{
		Name: "Opteron",
		Levels: []Level{
			{Name: "L2", LineBits: 6, Sets: 1024, Assoc: 16, Latency: 12},
			{Name: "TLB", LineBits: 12, Sets: 128, Assoc: 4, Latency: 25},
		},
		BaseCPI:  1.0,
		PageBits: 12,
	}
}

// ByName maps a hierarchy name, as the v1 API and saved models spell
// it, to the machine model: "" and "scaled" select ScaledItanium2,
// "full" Itanium2 and "opteron" Opteron.
func ByName(name string) (*Hierarchy, error) {
	switch name {
	case "", "scaled":
		return ScaledItanium2(), nil
	case "full":
		return Itanium2(), nil
	case "opteron":
		return Opteron(), nil
	}
	return nil, fmt.Errorf("unknown hierarchy %q (want scaled, full, or opteron)", name)
}

// UnionGranularities merges the collection granularities of several
// hierarchies, so one instrumented run can serve predictions for all of
// them (levels sharing a block size share an engine; their thresholds
// and names are concatenated).
func UnionGranularities(hiers ...*Hierarchy) []reusedist.Granularity {
	var out []reusedist.Granularity
	byBits := map[uint]int{}
	for _, h := range hiers {
		for _, g := range h.Granularities() {
			idx, ok := byBits[g.BlockBits]
			if !ok {
				byBits[g.BlockBits] = len(out)
				out = append(out, g)
				continue
			}
			out[idx].Thresholds = append(out[idx].Thresholds, g.Thresholds...)
			out[idx].LevelNames = append(out[idx].LevelNames, g.LevelNames...)
		}
	}
	return out
}
