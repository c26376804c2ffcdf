package experiments

import (
	"fmt"
	"time"

	"reusetool/internal/cache"
	"reusetool/internal/reusedist"
	"reusetool/internal/sampling"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

// The sampling suite is the differential harness for the SHARDS sampled
// engine (internal/sampling, DESIGN.md §14): every built-in workload is
// recorded once and replayed through exact and sampled collectors, so
// the rows compare the estimates against ground truth measured on the
// very same event stream.
//
// Two error regimes are documented and asserted by the tests:
//
//   - R=1 is not an estimate at all: the admission threshold equals the
//     modulus, every block is admitted, and the collector fingerprint
//     must equal the exact run's bit for bit.
//   - R>1 estimates are in contract only for levels whose capacity
//     stays resolvable in the sampled address space: a level of D
//     blocks sampled at rate R crosses its miss threshold after D/R
//     admitted blocks, and when D/R drops below
//     SamplingContractCapacity the threshold test quantizes so coarsely
//     that the estimate is noise (the scaled hierarchy's 128-block L2
//     at R=64 resolves to two sampled blocks). In-contract levels stay
//     within SamplingErrBound relative miss-count error on every
//     built-in workload; out-of-contract levels (including TLB page
//     counts at high rates on these scaled-down footprints) are
//     reported but not bounded.

// SamplingErrBound is the documented per-level relative miss-count
// error bound for in-contract levels (capacity >= 16R blocks) on the
// built-in workload suite. Replay is deterministic, so the bound is a
// hard assertion, not a statistical one; README "Sampling" tabulates
// the measured errors, which sit well inside it at R=8 (<15%) and
// inside it at R=64 on the full-size hierarchy (<22%).
const SamplingErrBound = 0.25

// SamplingContractCapacity is the minimum sampled-space capacity D/R
// (in blocks) for a level's estimate to be in contract.
const SamplingContractCapacity = 16

// SamplingLevelRow compares one cache level's fully-associative miss
// count (distance >= capacity, plus cold) between exact and sampled.
type SamplingLevelRow struct {
	Level string
	// Capacity is the level's size in blocks at its granularity.
	Capacity uint64
	Exact    uint64
	Sampled  uint64
	RelErr   float64
	// Line marks line-granularity levels.
	Line bool
	// InContract marks levels SamplingErrBound covers at this rate:
	// line granularity with Capacity >= SamplingContractCapacity * R.
	InContract bool
}

// SamplingRateRow is one sampled replay of a workload.
type SamplingRateRow struct {
	// Rate is the configured spatial rate R.
	Rate uint64
	// EffectiveRate is the final rate (differs from Rate only in
	// adaptive mode).
	EffectiveRate uint64
	// Identical reports fingerprint equality with the exact run (the
	// R=1 contract).
	Identical bool
	// AdmittedBlocks and SampledArcs sum over granularities.
	AdmittedBlocks int
	SampledArcs    uint64
	NsPerAccess    float64
	// Speedup is exact ns/access over sampled ns/access.
	Speedup float64
	Levels  []SamplingLevelRow
}

// MaxContractErr returns the worst in-contract relative error, the
// quantity SamplingErrBound caps.
func (r *SamplingRateRow) MaxContractErr() float64 {
	var worst float64
	for _, l := range r.Levels {
		if l.InContract && l.RelErr > worst {
			worst = l.RelErr
		}
	}
	return worst
}

// SamplingRow is one workload's differential comparison.
type SamplingRow struct {
	Workload string
	// Accesses counts the reference accesses the recording stands for.
	Accesses uint64
	// ExactNs is the exact replay cost per access; ExactFP the exact
	// collector fingerprint.
	ExactNs float64
	ExactFP uint64
	Rates   []SamplingRateRow
}

// SamplingWorkloads lists every built-in workload, the population the
// R=1 identity check runs over.
func SamplingWorkloads() []string { return workloads.Names() }

// levelMisses extracts per-level fully-associative miss counts
// (distance >= capacity arcs plus cold accesses) from a finished
// collector. Line levels are those not at the coarsest page block
// size; rate decides which levels the error bound covers (0 = exact).
func levelMisses(col *reusedist.Collector, rate uint64) []SamplingLevelRow {
	var pageBits uint
	for _, g := range col.Grans {
		if g.BlockBits > pageBits {
			pageBits = g.BlockBits
		}
	}
	var out []SamplingLevelRow
	for i, g := range col.Grans {
		e := col.Engines[i]
		for j, name := range g.LevelNames {
			line := g.BlockBits < pageBits || len(col.Grans) == 1
			out = append(out, SamplingLevelRow{
				Level:      name,
				Capacity:   g.Thresholds[j],
				Exact:      e.TotalMissAt(j) + e.TotalCold(),
				Line:       line,
				InContract: line && rate > 0 && g.Thresholds[j] >= SamplingContractCapacity*rate,
			})
		}
	}
	return out
}

// Sampling runs the differential suite: each named workload is recorded
// once and replayed exactly and at every rate in rates; each replay is
// repeated repeat times and the fastest wins.
func Sampling(names []string, hier *cache.Hierarchy, rates []uint64, repeat int) ([]SamplingRow, error) {
	if repeat < 1 {
		repeat = 1
	}
	var rows []SamplingRow
	for _, name := range names {
		rec, err := HotpathTrace(name)
		if err != nil {
			return nil, err
		}
		var count trace.Counter
		rec.Replay(&count)
		accesses := count.Accesses
		row := SamplingRow{Workload: name, Accesses: accesses}

		var exactLevels []SamplingLevelRow
		for r := 0; r < repeat; r++ {
			col := reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{})
			start := time.Now()
			rec.Replay(col)
			ns := float64(time.Since(start).Nanoseconds()) / float64(accesses)
			if row.ExactNs == 0 || ns < row.ExactNs {
				row.ExactNs = ns
			}
			if r == 0 {
				row.ExactFP = col.Fingerprint()
				exactLevels = levelMisses(col, 0)
			}
		}

		for _, rate := range rates {
			rr := SamplingRateRow{Rate: rate}
			for r := 0; r < repeat; r++ {
				col := reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{
					Sampling: sampling.Config{Rate: rate},
				})
				start := time.Now()
				rec.Replay(col)
				ns := float64(time.Since(start).Nanoseconds()) / float64(accesses)
				if rr.NsPerAccess == 0 || ns < rr.NsPerAccess {
					rr.NsPerAccess = ns
				}
				if r > 0 {
					continue
				}
				col.Finish()
				rr.Identical = col.Fingerprint() == row.ExactFP
				_, infos := col.Sampled()
				for _, info := range infos {
					rr.AdmittedBlocks += info.AdmittedBlocks
					rr.SampledArcs += info.Arcs
					if info.Rate > rr.EffectiveRate {
						rr.EffectiveRate = info.Rate
					}
				}
				rr.Levels = levelMisses(col, rate)
				for k := range rr.Levels {
					exact := exactLevels[k].Exact
					rr.Levels[k].Sampled, rr.Levels[k].Exact = rr.Levels[k].Exact, exact
					diff := float64(rr.Levels[k].Sampled) - float64(exact)
					if diff < 0 {
						diff = -diff
					}
					if exact > 0 {
						rr.Levels[k].RelErr = diff / float64(exact)
					}
				}
			}
			rr.Speedup = row.ExactNs / rr.NsPerAccess
			row.Rates = append(row.Rates, rr)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SamplingDemoResult reports the bounded-memory demonstration: a
// synthetic access stream far larger than any recorded workload, driven
// straight into a sampled collector under an adaptive block cap.
type SamplingDemoResult struct {
	Accesses  uint64
	MaxBlocks int
	// PeakBlocks is the largest per-engine tracked-block count observed
	// while streaming — the bounded-memory claim is PeakBlocks <=
	// MaxBlocks at every checkpoint.
	PeakBlocks int
	// FinalRate is the adaptive rate after the run; AdmittedBlocks the
	// final per-engine maximum of tracked blocks.
	FinalRate      uint64
	AdmittedBlocks int
	// EstAccesses is the scaled total-access estimate of the line
	// engine; RelErr compares it to the true access count.
	EstAccesses uint64
	RelErr      float64
	NsPerAccess float64
	Seconds     float64
}

// SamplingAdaptiveDemo streams accesses uniform pseudo-random 64-bit
// block addresses over a footprint of footprintBlocks cache lines into
// an adaptively sampled collector capped at maxBlocks tracked blocks
// per engine. The stream is synthetic — no interpreter, no recorded
// trace — so the access count can exceed any buffer: the ISSUE's
// billion-access configuration runs in a few tens of seconds and a few
// megabytes regardless of footprint.
func SamplingAdaptiveDemo(accesses, footprintBlocks uint64, maxBlocks int, hier *cache.Hierarchy) (*SamplingDemoResult, error) {
	if footprintBlocks == 0 {
		return nil, fmt.Errorf("sampling demo: zero footprint")
	}
	cfg := sampling.Config{MaxBlocks: maxBlocks}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	col := reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{
		Sampling: cfg,
	})
	res := &SamplingDemoResult{
		Accesses:  accesses,
		MaxBlocks: maxBlocks,
	}
	col.EnterScope(0)
	const checkEvery = 1 << 20
	var x uint64 = 0x2545F4914F6CDD1D
	start := time.Now()
	for i := uint64(0); i < accesses; i++ {
		// SplitMix64 step: cheap, full-period, uniform over the footprint.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		col.Access(0, (z%footprintBlocks)<<7, 8, false)
		if i%checkEvery == 0 {
			for _, e := range col.Engines {
				if n := e.DistinctBlocks(); n > res.PeakBlocks {
					res.PeakBlocks = n
				}
			}
		}
	}
	col.ExitScope(0)
	res.Seconds = time.Since(start).Seconds()
	res.NsPerAccess = res.Seconds * 1e9 / float64(accesses)
	for _, e := range col.Engines {
		if n := e.DistinctBlocks(); n > res.PeakBlocks {
			res.PeakBlocks = n
		}
	}
	col.Finish()
	_, infos := col.Sampled()
	for _, info := range infos {
		if info.Rate > res.FinalRate {
			res.FinalRate = info.Rate
		}
		if info.AdmittedBlocks > res.AdmittedBlocks {
			res.AdmittedBlocks = info.AdmittedBlocks
		}
	}
	res.EstAccesses = col.Engines[0].TotalAccesses()
	diff := float64(res.EstAccesses) - float64(accesses)
	if diff < 0 {
		diff = -diff
	}
	res.RelErr = diff / float64(accesses)
	return res, nil
}
