// Package sampling implements SHARDS-style spatial hashed sampling of
// memory-block addresses (Waldspurger et al., "Efficient MRC Construction
// with SHARDS", FAST'15 — see PAPERS.md "Beyond Reuse Distance Analysis"
// for the fidelity/tractability trade it builds on).
//
// The idea: instead of tracking every memory block, hash each block number
// with a fixed-seed 64-bit mixer and admit it into the analysis only when
//
//	hash(block) mod P  <  T
//
// for a power-of-two modulus P and threshold T. Admission is a pure
// function of (seed, block), so every access to a sampled block is
// analyzed and every access to an unsampled block is rejected by a single
// hash test — the engine's block table and order-statistic tree only ever
// see the admitted ~T/P fraction of the address space. Reuse distances
// measured in the sampled address space are scaled by the rate R = P/T,
// and histogram counts are scaled by R at report time, recovering an
// estimate of the exact histogram whose error shrinks as the number of
// sampled reuse arcs grows.
//
// Two modes are provided:
//
//   - Fixed rate (Rate > 1, MaxBlocks == 0): T = P/R forever. Memory is
//     O(footprint/R).
//   - Adaptive rate (MaxBlocks > 0): the sample set is bounded. Whenever
//     the number of tracked blocks exceeds MaxBlocks the threshold halves
//     (rate doubles), blocks whose hash no longer passes are evicted, and
//     retained counts are rescaled by 1/2 — so a count recorded at rate
//     R_k carries, after the final report-time scaling by R_final, an
//     effective weight of exactly R_k, the inverse of its admission
//     probability. Total memory is a hard constant regardless of trace
//     length or footprint.
//
// Rate 1 with no cap admits every block and perturbs nothing: an R=1 run
// is bit-identical (by engine fingerprint) to an exact run.
package sampling

import (
	"fmt"
	"math/bits"
)

const (
	// ModulusBits is log2 of the admission modulus P. Hashes are reduced
	// to this many bits before the threshold compare, as in SHARDS
	// (which uses P = 2^24): large enough that T = P/R is exact for any
	// practical power-of-two rate, small enough that the admitted
	// fraction is representable exactly.
	ModulusBits = 24
	// Modulus is P.
	Modulus = 1 << ModulusBits
	// MaxRate bounds the configured fixed rate (the adaptive mode may
	// exceed it up to Modulus as the threshold halves).
	MaxRate = 1 << 20
	// DefaultSeed mixes block numbers when Config.Seed is zero. The value
	// is arbitrary but fixed: admission must be reproducible across runs,
	// processes and machines so sampled analyses are deterministic and
	// cacheable.
	DefaultSeed = 0x9E3779B97F4A7C15
	// MinMaxBlocks is the smallest accepted adaptive cap; below it the
	// sample set thrashes and estimates are meaningless.
	MinMaxBlocks = 16
)

// Config selects a sampling mode. The zero value disables sampling
// (exact analysis).
type Config struct {
	// Rate is the spatial sampling rate R: roughly 1 in R memory blocks
	// is admitted. Must be a power of two (so the admission threshold
	// P/R is exact); 0 and 1 both mean "admit everything". In adaptive
	// mode this is the starting rate.
	Rate uint64
	// MaxBlocks, when positive, bounds the number of distinct blocks
	// tracked per engine: the adaptive mode lowers the admission
	// threshold as the sample set fills, keeping memory constant no
	// matter how large the trace footprint grows.
	MaxBlocks int
	// Seed perturbs the admission hash; 0 selects DefaultSeed. Runs with
	// the same (seed, rate, cap) admit exactly the same blocks. A nonzero
	// seed needs sampling enabled: Validate refuses it otherwise.
	Seed uint64
}

// Enabled reports whether the configuration engages the sampling
// machinery. Rate 1 counts as enabled: it admits every block (the
// threshold equals the modulus) and therefore reproduces the exact
// result bit for bit, but it runs the full admission path — which is
// exactly what the R=1 differential tests verify. Only the zero Rate
// with no cap is off.
func (c Config) Enabled() bool { return c.Rate >= 1 || c.MaxBlocks > 0 }

// Validate rejects configurations the sampler cannot honor exactly.
func (c Config) Validate() error {
	if c.Rate > MaxRate {
		return fmt.Errorf("sampling: rate %d exceeds maximum %d", c.Rate, MaxRate)
	}
	if c.Rate > 1 && bits.OnesCount64(c.Rate) != 1 {
		return fmt.Errorf("sampling: rate %d is not a power of two", c.Rate)
	}
	if c.MaxBlocks < 0 {
		return fmt.Errorf("sampling: negative max blocks %d", c.MaxBlocks)
	}
	if c.MaxBlocks > 0 && c.MaxBlocks < MinMaxBlocks {
		return fmt.Errorf("sampling: max blocks %d below minimum %d", c.MaxBlocks, MinMaxBlocks)
	}
	if c.Seed != 0 && !c.Enabled() {
		// The run would be exact and the seed silently ignored.
		return fmt.Errorf("sampling: seed %d without a rate or a max blocks cap samples nothing", c.Seed)
	}
	return nil
}

// Normalized fills defaults: rate 0 becomes 1, seed 0 becomes
// DefaultSeed. Cache keys and samplers are built from the normalized
// form so equivalent spellings of a configuration coincide.
func (c Config) Normalized() Config {
	if c.Rate == 0 {
		c.Rate = 1
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// CapBlocks bounds a distinct-block capacity estimate by the sampling
// configuration: an engine sampling at rate R over a footprint of n
// blocks admits about n/R of them, and the adaptive cap bounds the
// tracked set outright. Exact configurations return n unchanged.
func (c Config) CapBlocks(n int) int {
	c = c.Normalized()
	if c.Rate > 1 {
		n = int(uint64(n) / c.Rate)
	}
	if c.MaxBlocks > 0 && n > c.MaxBlocks {
		n = c.MaxBlocks
	}
	return n
}

// String renders the mode for report footers and logs.
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	c = c.Normalized()
	if c.MaxBlocks > 0 {
		return fmt.Sprintf("adaptive(start 1/%d, max %d blocks)", c.Rate, c.MaxBlocks)
	}
	return fmt.Sprintf("fixed 1/%d", c.Rate)
}

// Hash reduces a block number to its ModulusBits-bit admission value
// under a seed, using the 64-bit finalizer of MurmurHash3 (fmix64) — a
// bijective mixer whose low bits pass avalanche tests, so the admitted
// set is an unbiased spatial sample regardless of the address stride.
// It is a pure function: the same (seed, block) always yields the same
// value, which makes sampled runs exactly reproducible.
func Hash(seed, block uint64) uint64 {
	x := block ^ seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x & (Modulus - 1)
}

// Sampler is the per-engine admission state. Create with New. The
// threshold only ever decreases (Halve), so a block rejected once is
// never admitted later.
type Sampler struct {
	seed      uint64
	threshold uint64
	rate      uint64
	maxBlocks int
}

// New builds a sampler for a validated configuration. It panics on an
// invalid one — callers at the API boundary (CLI flags, daemon request
// validation) run Config.Validate first.
func New(c Config) *Sampler {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	c = c.Normalized()
	return &Sampler{
		seed:      c.Seed,
		threshold: Modulus / c.Rate,
		rate:      c.Rate,
		maxBlocks: c.MaxBlocks,
	}
}

// Admit reports whether the block is in the spatial sample at the
// current threshold. This is the per-access gate: for the rejected
// majority it is the entire cost of the access.
//
//reuse:hotpath
func (s *Sampler) Admit(block uint64) bool {
	return Hash(s.seed, block) < s.threshold
}

// Rate reports the current rate R = P/T. Distances measured in the
// sampled address space scale by it.
func (s *Sampler) Rate() uint64 { return s.rate }

// Seed reports the admission seed in effect.
func (s *Sampler) Seed() uint64 { return s.seed }

// Threshold reports the current admission threshold T.
func (s *Sampler) Threshold() uint64 { return s.threshold }

// MaxBlocks reports the adaptive cap (0 in fixed-rate mode).
func (s *Sampler) MaxBlocks() int { return s.maxBlocks }

// Adaptive reports whether the sampler bounds its sample set.
func (s *Sampler) Adaptive() bool { return s.maxBlocks > 0 }

// CanHalve reports whether the threshold can still be lowered.
func (s *Sampler) CanHalve() bool { return s.threshold > 1 }

// Halve lowers the admission threshold by half (doubling the rate).
// The caller evicts now-rejected blocks and rescales retained counts by
// 1/2; see the package comment for why that keeps the estimator
// consistent.
func (s *Sampler) Halve() {
	if !s.CanHalve() {
		return
	}
	s.threshold >>= 1
	s.rate <<= 1
}
