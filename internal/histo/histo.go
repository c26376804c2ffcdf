// Package histo implements reuse-distance histograms.
//
// Distances are binned exactly for small values and logarithmically above,
// with a configurable number of sub-buckets per power-of-two octave. This is
// the usual trade-off for reuse-distance tools: short distances (the ones
// near small cache capacities) are kept exact, long ones are compressed.
// Section II of the paper notes that collecting one histogram per
// (source scope, carrying scope) pair yields "more but smaller histograms".
//
// The bucket store is a growable flat []uint64 indexed by bin number
// (linear bins first, then octave*sub + sub-bucket). The per-access Add is
// the hottest function of the whole toolkit — every reuse arc of every
// engine lands here — so the flat layout buys an indexed add with no
// hashing, and the small-distance fast path skips the log2 entirely. The
// slice grows lazily to the highest touched bin, so an
// almost-single-distance pattern still costs only a few hundred bytes
// (bin indices grow logarithmically with distance). The gob wire format
// stays sparse: occupied (bin, count) pairs in increasing bin order (see
// gob.go), which is also byte-deterministic, unlike the map encoding it
// replaces.
package histo

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// linearMax is the exclusive upper bound of the exactly-binned range.
// Distances below linearMax each get their own bin.
const linearMax = 256

const linearLog = 8 // log2(linearMax)

// Cold is the distance value used to record compulsory (first-touch)
// accesses, which have no finite reuse distance.
const Cold = math.MaxUint64

// Histogram counts reuse distances. The zero value of H is NOT ready to
// use; construct with New or NewRes.
type Histogram struct {
	sub    uint64   // sub-buckets per octave above linearMax; power of two
	counts []uint64 // flat bin store, indexed by bin number
	occ    int      // occupied (non-zero) bins
	cold   uint64
	total  uint64 // finite-distance samples only
	maxD   uint64
}

// DefaultResolution is the default number of sub-buckets per octave.
const DefaultResolution = 8

// New returns an empty histogram with DefaultResolution sub-buckets per
// octave.
func New() *Histogram { return NewRes(DefaultResolution) }

// NewRes returns an empty histogram with the given sub-buckets per octave.
// res must be a power of two in [1, 256].
func NewRes(res int) *Histogram {
	if !ValidRes(uint64(res)) {
		panic(fmt.Sprintf("histo: invalid resolution %d", res))
	}
	return &Histogram{sub: uint64(res)}
}

// ValidRes reports whether res is a resolution NewRes accepts: a power
// of two in [1, 256].
func ValidRes(res uint64) bool {
	return res >= 1 && res <= linearMax && res&(res-1) == 0
}

// Resolution reports the sub-buckets per octave.
func (h *Histogram) Resolution() int { return int(h.sub) }

// binIndex maps a finite distance to its bin.
func (h *Histogram) binIndex(d uint64) uint32 {
	if d < linearMax {
		return uint32(d)
	}
	return h.logIndex(d)
}

// logIndex maps a finite distance >= linearMax to its logarithmic bin.
func (h *Histogram) logIndex(d uint64) uint32 {
	o := uint(bits.Len64(d) - 1) // 2^o <= d < 2^(o+1)
	step := uint64(1) << o / h.sub
	k := (d - uint64(1)<<o) / step
	return uint32(linearMax) + uint32(o-linearLog)*uint32(h.sub) + uint32(k)
}

// binBounds returns the inclusive [lo, hi] distance range of bin idx.
func (h *Histogram) binBounds(idx uint32) (lo, hi uint64) {
	if idx < linearMax {
		return uint64(idx), uint64(idx)
	}
	rel := uint64(idx - linearMax)
	o := uint(rel/h.sub) + linearLog
	k := rel % h.sub
	step := uint64(1) << o / h.sub
	lo = uint64(1)<<o + k*step
	return lo, lo + step - 1
}

// Add records one sample of distance d. Pass Cold for compulsory accesses.
// This is the per-reuse-arc hot path: small distances (the common case on
// stencil/stream reuse) index the flat store directly without the log2.
//
//reuse:hotpath
func (h *Histogram) Add(d uint64) {
	if d < linearMax && int(d) < len(h.counts) {
		// Fast path: linear bin already allocated — one indexed add.
		if h.counts[d] == 0 {
			h.occ++
		}
		h.counts[d]++
		h.total++
		if d > h.maxD {
			h.maxD = d
		}
		return
	}
	h.AddN(d, 1)
}

// AddN records n samples of distance d.
//
//reuse:hotpath
func (h *Histogram) AddN(d uint64, n uint64) {
	if n == 0 {
		return
	}
	if d == Cold {
		h.cold += n
		return
	}
	idx := h.binIndex(d)
	if int(idx) >= len(h.counts) {
		h.grow(int(idx))
	}
	if h.counts[idx] == 0 {
		h.occ++
	}
	h.counts[idx] += n
	h.total += n
	if d > h.maxD {
		h.maxD = d
	}
}

// grow extends the flat store so bin idx is addressable. Capacity is
// rounded up so repeated growth amortizes; bin indices grow
// logarithmically with distance, so the store stays small.
func (h *Histogram) grow(idx int) {
	newLen := 2 * len(h.counts)
	if newLen < 64 {
		newLen = 64
	}
	if newLen <= idx {
		newLen = idx + 1
	}
	grown := make([]uint64, newLen)
	copy(grown, h.counts)
	h.counts = grown
}

// Total reports the number of finite-distance samples.
func (h *Histogram) Total() uint64 { return h.total }

// Cold reports the number of compulsory (first-touch) samples.
func (h *Histogram) Cold() uint64 { return h.cold }

// Max reports the largest recorded finite distance (0 if none).
func (h *Histogram) Max() uint64 { return h.maxD }

// Bins reports the number of occupied bins.
func (h *Histogram) Bins() int { return h.occ }

// Bin is one occupied histogram bin: count samples whose distances fall in
// the inclusive range [Lo, Hi].
type Bin struct {
	Lo, Hi uint64
	Count  uint64
}

// Each calls f for every occupied bin in increasing distance order.
func (h *Histogram) Each(f func(Bin)) {
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := h.binBounds(uint32(idx))
		f(Bin{Lo: lo, Hi: hi, Count: c})
	}
}

// Merge adds all samples of other into h. Resolutions must match.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if h.sub != other.sub {
		panic("histo: merging histograms of different resolutions")
	}
	if len(other.counts) > len(h.counts) {
		h.grow(len(other.counts) - 1)
	}
	for idx, c := range other.counts {
		if c == 0 {
			continue
		}
		if h.counts[idx] == 0 {
			h.occ++
		}
		h.counts[idx] += c
	}
	h.cold += other.cold
	h.total += other.total
	if other.maxD > h.maxD {
		h.maxD = other.maxD
	}
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{sub: h.sub, occ: h.occ,
		cold: h.cold, total: h.total, maxD: h.maxD}
	if len(h.counts) > 0 {
		c.counts = make([]uint64, len(h.counts))
		copy(c.counts, h.counts)
	}
	return c
}

// CountAtLeast estimates the number of finite samples with distance >=
// threshold, assuming distances are uniformly distributed within each bin.
// Cold samples are not included.
func (h *Histogram) CountAtLeast(threshold uint64) float64 {
	var sum float64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := h.binBounds(uint32(idx))
		switch {
		case lo >= threshold:
			sum += float64(c)
		case hi < threshold:
			// entirely below
		default:
			width := float64(hi-lo) + 1
			above := float64(hi-threshold) + 1
			sum += float64(c) * above / width
		}
	}
	return sum
}

// Quantile returns an approximate distance q of the way (0..1) through the
// finite-sample distribution, using the midpoint of the containing bin.
// Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.total)
	var acc float64
	var result uint64
	done := false
	h.Each(func(b Bin) {
		if done {
			return
		}
		acc += float64(b.Count)
		if acc >= target {
			result = b.Lo + (b.Hi-b.Lo)/2
			done = true
		}
	})
	if !done {
		result = h.maxD
	}
	return result
}

// Mean returns the approximate mean finite distance using bin midpoints.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := h.binBounds(uint32(idx))
		mid := float64(lo) + float64(hi-lo)/2
		sum += mid * float64(c)
	}
	return sum / float64(h.total)
}

// String renders a compact textual summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "histo{total=%d cold=%d", h.total, h.cold)
	if h.total > 0 {
		fmt.Fprintf(&b, " mean=%.1f p50=%d max=%d", h.Mean(), h.Quantile(0.5), h.maxD)
	}
	b.WriteString("}")
	return b.String()
}
