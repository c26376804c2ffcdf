package reusedist

// SHARDS-style sampled collection (see internal/sampling for the
// admission model). The engine's sampled state is maintained in sampled
// units while the stream is live:
//
//   - the logical clock and the order-statistic tree advance only on
//     admitted accesses, so measured stack distances are "distinct
//     sampled blocks" and are scaled to full-trace units by the current
//     rate R the moment they are recorded (accessBlock);
//   - per-reference counts (Total, Cold, pattern counts, MissAt, scope
//     accesses) stay raw.
//
// Adaptive mode keeps the admitted block set under a hard cap: when a
// cold insert pushes the table past MaxBlocks, the sampler's threshold
// halves (rate doubles), blocks whose hash no longer passes are evicted
// from the table and the tree, and every retained count is halved with
// deterministic rounding. A count recorded at rate R_k is therefore
// halved once per subsequent doubling, leaving it with weight
// R_k/R_final just before the final scaling.
//
// Finish applies the report-time scaling: every count is multiplied by
// the final rate (an exact integer multiply), giving each sample an
// effective weight equal to the rate in force when it was recorded —
// the inverse of its admission probability, which is what makes the
// histogram an unbiased estimate. After Finish the engine reads exactly
// like an exact engine (metrics, persist, fingerprint all unchanged
// downstream); rate-1 engines have nothing to scale, which is why an
// R=1 sampled run is fingerprint-identical to an exact run.

import (
	"math"

	"reusetool/internal/blocktable"
	"reusetool/internal/sampling"
)

// SampleInfo describes the sampling state of an engine, for report
// footers and service metrics.
type SampleInfo struct {
	// Enabled is false for exact engines; the remaining fields are zero.
	Enabled bool
	// Rate is the effective (final) sampling rate R.
	Rate uint64
	// Adaptive reports bounded-sample-set mode; MaxBlocks is its cap.
	Adaptive  bool
	MaxBlocks int
	// Seed is the admission-hash seed in effect.
	Seed uint64
	// AdmittedBlocks counts distinct blocks currently tracked (0 for a
	// restored engine, whose block table is gone).
	AdmittedBlocks int
	// Arcs counts raw sampled reuse arcs (never rescaled); the error
	// estimate derives from it.
	Arcs uint64
}

// ErrEstimate is a rough relative standard error for miss-count
// estimates, 1/sqrt(sampled arcs): binomial sampling error of counts
// aggregated over the sampled reuse arcs. NaN-free: returns 1 when no
// arcs were sampled.
func (s SampleInfo) ErrEstimate() float64 {
	if !s.Enabled {
		return 0
	}
	if s.Arcs == 0 {
		return 1
	}
	return 1 / math.Sqrt(float64(s.Arcs))
}

// Sample reports the engine's sampling state.
func (e *Engine) Sample() SampleInfo {
	if e.sampler == nil {
		return SampleInfo{}
	}
	info := SampleInfo{
		Enabled:   true,
		Rate:      e.sampler.Rate(),
		Adaptive:  e.sampler.Adaptive(),
		MaxBlocks: e.sampler.MaxBlocks(),
		Seed:      e.sampler.Seed(),
		Arcs:      e.arcs,
	}
	if e.table != nil {
		info.AdmittedBlocks = e.table.Blocks()
	}
	return info
}

// rescale restores the adaptive invariant table.Blocks() <= maxSample:
// halve the admission threshold, evict no-longer-admitted blocks from
// the block table and the order-statistic tree, and halve retained
// counts. The front's marks go into the tree first, so every evicted
// mark is found there. Out of line — it runs at most log2(P) times per
// engine lifetime.
//
//reuse:coldpath
func (e *Engine) rescale() {
	e.flushFront()
	for e.table.Blocks() > e.maxSample && e.sampler.CanHalve() {
		e.sampler.Halve()
		threshold := e.sampler.Threshold()
		seed := e.sampler.Seed()
		e.table.Evict(func(block uint64, ent blocktable.Entry) bool {
			if sampling.Hash(seed, block) < threshold {
				return false
			}
			e.tree.Delete(ent.Time)
			return true
		})
		e.halveCounts()
	}
	e.scale = e.sampler.Rate()
}

// halveCounts rescales all retained counts by 1/2 with deterministic
// rounding: histograms use largest-remainder rounding, scalar counters
// round half up. Iteration is over dense slices in index order, so the
// result is identical across runs.
func (e *Engine) halveCounts() {
	for _, rd := range e.refs {
		if rd == nil {
			continue
		}
		rd.Total = (rd.Total + 1) >> 1
		rd.Cold = (rd.Cold + 1) >> 1
		for _, p := range rd.pats {
			p.Hist.Scale(0.5)
			p.Count = p.Hist.Total()
			for i := range p.MissAt {
				p.MissAt[i] = (p.MissAt[i] + 1) >> 1
			}
		}
	}
	for i, v := range e.scopeAccesses {
		e.scopeAccesses[i] = (v + 1) >> 1
	}
}

// Finish applies the report-time rate scaling to a sampled engine. Call
// it exactly once, after the event stream ends and before reading
// counts, persisting, or fingerprinting. It is a no-op on exact
// engines, rate-1 samplers, and engines already finished (including
// engines restored from persisted — already scaled — data). The engine
// must not receive further events afterwards.
func (e *Engine) Finish() {
	if e.finished || e.sampler == nil {
		return
	}
	e.finished = true
	rate := e.sampler.Rate()
	if rate == 1 {
		return
	}
	r := float64(rate)
	var total uint64
	for _, rd := range e.refs {
		if rd == nil {
			continue
		}
		rd.Total *= rate
		rd.Cold *= rate
		total += rd.Total
		for _, p := range rd.pats {
			p.Hist.Scale(r)
			p.Count = p.Hist.Total()
			for i := range p.MissAt {
				p.MissAt[i] *= rate
			}
		}
	}
	for i, v := range e.scopeAccesses {
		e.scopeAccesses[i] = v * rate
	}
	// The clock advanced once per admitted access; the scaled estimate
	// of total accesses is the scaled sum of per-reference totals.
	e.clock = total
}

// Finish finishes every engine of the collector (see Engine.Finish).
func (c *Collector) Finish() {
	for _, e := range c.Engines {
		e.Finish()
	}
}

// Sampled reports whether any engine of the collector samples, along
// with the per-granularity sampling states (indexed like c.Grans).
func (c *Collector) Sampled() (bool, []SampleInfo) {
	infos := make([]SampleInfo, len(c.Engines))
	any := false
	for i, e := range c.Engines {
		infos[i] = e.Sample()
		any = any || infos[i].Enabled
	}
	return any, infos
}
