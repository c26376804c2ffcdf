package reusedist

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"reusetool/internal/sampling"
	"reusetool/internal/trace"
)

// cyclicSweep replays k full passes over n 64-byte blocks: every access
// after the first pass has exact reuse distance n-1.
func cyclicSweep(e *Engine, n, k int) {
	e.EnterScope(0)
	for pass := 0; pass < k; pass++ {
		scan(e, 1, n)
	}
	e.ExitScope(0)
}

func TestSamplingRate1Identity(t *testing.T) {
	cfgs := []Config{
		{BlockBits: 6, Thresholds: []uint64{64, 2048}, Sampling: sampling.Config{Rate: 1}},
		// An adaptive sampler whose cap is never reached also admits
		// everything and must be identical too.
		{BlockBits: 6, Thresholds: []uint64{64, 2048}, Sampling: sampling.Config{MaxBlocks: 1 << 20}},
	}
	exact := New(Config{BlockBits: 6, Thresholds: []uint64{64, 2048}})
	cyclicSweep(exact, 5000, 3)
	exact.Finish()
	want := exact.Fingerprint()
	for i, cfg := range cfgs {
		e := New(cfg)
		cyclicSweep(e, 5000, 3)
		e.Finish()
		if got := e.Fingerprint(); got != want {
			t.Errorf("config %d: fingerprint %x, want exact %x", i, got, want)
		}
	}
}

func TestSamplingFixedRateEstimates(t *testing.T) {
	const n, k, rate = 1 << 16, 4, 64
	// Thresholds straddle the working set: every reuse (distance n-1)
	// misses at n/2 and hits at 2n.
	th := []uint64{n / 2, 2 * n}
	exact := New(Config{BlockBits: 6, Thresholds: th})
	cyclicSweep(exact, n, k)
	s := New(Config{BlockBits: 6, Thresholds: th, Sampling: sampling.Config{Rate: rate}})
	cyclicSweep(s, n, k)
	s.Finish()

	info := s.Sample()
	if !info.Enabled || info.Rate != rate {
		t.Fatalf("sample info = %+v", info)
	}
	if info.AdmittedBlocks >= n/8 {
		t.Fatalf("admitted %d of %d blocks at rate %d", info.AdmittedBlocks, n, rate)
	}
	rd, xd := s.Ref(1), exact.Ref(1)
	relerr := func(got, want uint64) float64 {
		return math.Abs(float64(got)-float64(want)) / float64(want)
	}
	if e := relerr(rd.Total, xd.Total); e > 0.05 {
		t.Errorf("Total = %d, exact %d (relerr %.3f)", rd.Total, xd.Total, e)
	}
	if e := relerr(rd.Cold, xd.Cold); e > 0.05 {
		t.Errorf("Cold = %d, exact %d (relerr %.3f)", rd.Cold, xd.Cold, e)
	}
	if e := relerr(rd.MissAt(0), xd.MissAt(0)); e > 0.05 {
		t.Errorf("MissAt(0) = %d, exact %d (relerr %.3f)", rd.MissAt(0), xd.MissAt(0), e)
	}
	if e := relerr(rd.MissAt(1), xd.MissAt(1)); e > 0.05 {
		t.Errorf("MissAt(1) = %d, exact %d (relerr %.3f)", rd.MissAt(1), xd.MissAt(1), e)
	}
	// Scaled clock approximates total accesses.
	if e := relerr(s.TotalAccesses(), exact.TotalAccesses()); e > 0.05 {
		t.Errorf("TotalAccesses = %d, exact %d (relerr %.3f)",
			s.TotalAccesses(), exact.TotalAccesses(), e)
	}
	// Median scaled distance lands near the true n-1 (within one
	// logarithmic bin plus sampling noise).
	for _, p := range rd.Patterns {
		med := p.Hist.Quantile(0.5)
		if med < n/2 || med > 2*n {
			t.Errorf("median scaled distance %d, want ~%d", med, n-1)
		}
	}
}

func TestSamplingAdaptiveCap(t *testing.T) {
	const n, k, cap = 1 << 16, 3, 1024
	th := []uint64{n / 2, 2 * n}
	exact := New(Config{BlockBits: 6, Thresholds: th})
	cyclicSweep(exact, n, k)
	a := New(Config{BlockBits: 6, Thresholds: th, Sampling: sampling.Config{MaxBlocks: cap}})
	cyclicSweep(a, n, k)

	pre := a.Sample()
	if pre.AdmittedBlocks > cap {
		t.Fatalf("admitted %d blocks, cap %d", pre.AdmittedBlocks, cap)
	}
	if pre.Rate <= 1 {
		t.Fatalf("adaptive sampler never raised its rate (%d)", pre.Rate)
	}
	a.Finish()
	rd, xd := a.Ref(1), exact.Ref(1)
	relerr := func(got, want uint64) float64 {
		return math.Abs(float64(got)-float64(want)) / float64(want)
	}
	// Rescaling rounds at every halving, so the tolerance is looser than
	// fixed-rate; the estimates must still land within 10%.
	if e := relerr(rd.Total, xd.Total); e > 0.10 {
		t.Errorf("Total = %d, exact %d (relerr %.3f)", rd.Total, xd.Total, e)
	}
	if e := relerr(rd.MissAt(0), xd.MissAt(0)); e > 0.10 {
		t.Errorf("MissAt(0) = %d, exact %d (relerr %.3f)", rd.MissAt(0), xd.MissAt(0), e)
	}
}

func TestSamplingDeterministic(t *testing.T) {
	run := func() [2]uint64 {
		fixed := New(Config{BlockBits: 6, Thresholds: []uint64{256}, Sampling: sampling.Config{Rate: 8}})
		cyclicSweep(fixed, 4096, 2)
		fixed.Finish()
		adaptive := New(Config{BlockBits: 6, Thresholds: []uint64{256}, Sampling: sampling.Config{MaxBlocks: 64}})
		cyclicSweep(adaptive, 4096, 2)
		adaptive.Finish()
		return [2]uint64{fixed.Fingerprint(), adaptive.Fingerprint()}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("sampled runs not deterministic: %x vs %x", a, b)
	}
}

func TestSamplingSeedChangesFingerprint(t *testing.T) {
	run := func(seed uint64) uint64 {
		e := New(Config{BlockBits: 6, Sampling: sampling.Config{Rate: 8, Seed: seed}})
		// Skewed access counts: the aggregate depends on which blocks the
		// seed admits, not just on how many.
		e.EnterScope(0)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 4096; i++ {
				for rep := 0; rep <= i%13; rep++ {
					e.Access(1, uint64(i)*64, 8, false)
				}
			}
		}
		e.ExitScope(0)
		e.Finish()
		return e.Fingerprint()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical sampled fingerprints")
	}
}

func TestFinishIdempotent(t *testing.T) {
	e := New(Config{BlockBits: 6, Sampling: sampling.Config{Rate: 8}})
	cyclicSweep(e, 4096, 2)
	e.Finish()
	fp := e.Fingerprint()
	total := e.Ref(1).Total
	e.Finish()
	if e.Fingerprint() != fp || e.Ref(1).Total != total {
		t.Fatal("second Finish rescaled the engine")
	}
}

func TestCollectorFinishAndSampled(t *testing.T) {
	grans := []Granularity{
		{Name: "line", BlockBits: 6, Thresholds: []uint64{256}, LevelNames: []string{"L2"}},
		{Name: "page", BlockBits: 14, Thresholds: []uint64{128}, LevelNames: []string{"TLB"}},
	}
	c := NewCollectorWith(grans, Config{Sampling: sampling.Config{Rate: 8}})
	c.EnterScope(0)
	for i := 0; i < 3; i++ {
		scan(c, 1, 4096)
	}
	c.ExitScope(0)
	c.Finish()
	any, infos := c.Sampled()
	if !any || len(infos) != 2 {
		t.Fatalf("Sampled = %v, %d infos", any, len(infos))
	}
	for i, info := range infos {
		if !info.Enabled || info.Rate != 8 {
			t.Errorf("engine %d info = %+v", i, info)
		}
	}
	exact := NewCollectorWith(grans, Config{})
	exact.EnterScope(0)
	for i := 0; i < 3; i++ {
		scan(exact, 1, 4096)
	}
	exact.ExitScope(0)
	if any, _ := exact.Sampled(); any {
		t.Fatal("exact collector reports sampling")
	}
}

func TestSampleInfoErrEstimate(t *testing.T) {
	if got := (SampleInfo{}).ErrEstimate(); got != 0 {
		t.Fatalf("exact ErrEstimate = %v, want 0", got)
	}
	if got := (SampleInfo{Enabled: true}).ErrEstimate(); got != 1 {
		t.Fatalf("zero-arc ErrEstimate = %v, want 1", got)
	}
	if got := (SampleInfo{Enabled: true, Arcs: 10000}).ErrEstimate(); got != 0.01 {
		t.Fatalf("ErrEstimate = %v, want 0.01", got)
	}
}

// TestSamplingHintCap is the capacity-hints regression test: with a
// sampling config capping admitted blocks, New must size the block
// table and tree window from the capped estimate, not the full
// footprint. An uncapped engine over the same footprint allocates tens
// of megabytes of tree window up front; the capped one must stay under
// a megabyte.
func TestSamplingHintCap(t *testing.T) {
	hints := CapacityHints{FootprintBytes: 1 << 28} // 4M blocks at 64B lines
	alloc := func(cfg Config) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := New(cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(e)
		return after.TotalAlloc - before.TotalAlloc
	}
	exact := alloc(Config{BlockBits: 6, Hints: hints})
	capped := alloc(Config{BlockBits: 6, Hints: hints,
		Sampling: sampling.Config{Rate: 8, MaxBlocks: 4096}})
	if exact < 8<<20 {
		t.Fatalf("uncapped engine allocated only %d bytes; hint not taking effect", exact)
	}
	if capped > 1<<20 {
		t.Fatalf("capped engine allocated %d bytes up front, want < 1MB (uncapped: %d)",
			capped, exact)
	}
	// Fixed-rate capping alone divides the estimate by R.
	rateOnly := alloc(Config{BlockBits: 6, Hints: hints,
		Sampling: sampling.Config{Rate: 64}})
	if rateOnly > exact/16 {
		t.Fatalf("rate-64 engine allocated %d bytes, want well under uncapped %d/16",
			rateOnly, exact)
	}
}

// TestAdmissionMemoExact feeds one stream to two sampling engines, one
// of which has its admission memo wiped after every access and so
// hashes every block, and checks that they end identical: the memo
// turns away only blocks the hash would reject, across the adaptive
// sampler's halvings too.
func TestAdmissionMemoExact(t *testing.T) {
	for _, smp := range []sampling.Config{{Rate: 8}, {Rate: 64}, {MaxBlocks: 16}, {Rate: 4, MaxBlocks: 16}} {
		cfg := Config{BlockBits: 6, Thresholds: []uint64{16, 256}, Sampling: smp}
		memo, hashed := New(cfg), New(cfg)
		rng := rand.New(rand.NewSource(1))
		var addr [8]uint64
		for _, e := range []*Engine{memo, hashed} {
			e.EnterScope(0)
		}
		for i := 0; i < 200000; i++ {
			ref := rng.Intn(len(addr))
			if rng.Intn(64) == 0 {
				addr[ref] = uint64(rng.Intn(1 << 22))
			} else {
				addr[ref] += 8
			}
			for _, e := range []*Engine{memo, hashed} {
				e.Access(trace.RefID(ref), addr[ref], 8, false)
			}
			clear(hashed.rejected)
		}
		for _, e := range []*Engine{memo, hashed} {
			e.ExitScope(0)
			e.Finish()
		}
		if memo.Fingerprint() != hashed.Fingerprint() || memo.Sample() != hashed.Sample() {
			t.Errorf("%v: with the memo %#x %+v, hashing every block %#x %+v", smp,
				memo.Fingerprint(), memo.Sample(), hashed.Fingerprint(), hashed.Sample())
		}
	}
}
