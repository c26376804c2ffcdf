package experiments

import (
	"testing"

	"reusetool/internal/cache"
)

// TestSamplingDifferential is the suite's core contract on the scaled
// hierarchy: R=1 is fingerprint-identical to exact on every built-in
// workload, and every in-contract level estimate stays within the
// documented bound. Replay is deterministic, so these are hard
// assertions.
func TestSamplingDifferential(t *testing.T) {
	names := SamplingWorkloads()
	rows, err := Sampling(names, cache.ScaledItanium2(), []uint64{1, 8, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(names) {
		t.Fatalf("got %d rows for %d workloads", len(rows), len(names))
	}
	for _, r := range rows {
		if len(r.Rates) != 3 {
			t.Fatalf("%s: %d rate rows", r.Workload, len(r.Rates))
		}
		for _, rr := range r.Rates {
			if rr.Rate == 1 {
				if !rr.Identical {
					t.Errorf("%s: R=1 fingerprint differs from exact", r.Workload)
				}
				if rr.EffectiveRate != 1 {
					t.Errorf("%s: R=1 effective rate %d", r.Workload, rr.EffectiveRate)
				}
				continue
			}
			// A sampled estimate carries scaled counts; it can never
			// reproduce the exact fingerprint on these workloads.
			if rr.Identical {
				t.Errorf("%s: R=%d unexpectedly fingerprint-identical", r.Workload, rr.Rate)
			}
			if rr.AdmittedBlocks == 0 || rr.SampledArcs == 0 {
				t.Errorf("%s: R=%d empty sample (%d blocks, %d arcs)",
					r.Workload, rr.Rate, rr.AdmittedBlocks, rr.SampledArcs)
			}
			for _, l := range rr.Levels {
				if l.InContract && l.RelErr > SamplingErrBound {
					t.Errorf("%s: R=%d %s: rel err %.1f%% exceeds documented bound %.0f%% (exact %d, sampled %d)",
						r.Workload, rr.Rate, l.Level, l.RelErr*100, SamplingErrBound*100, l.Exact, l.Sampled)
				}
			}
		}
		// The scaled hierarchy's L2 (128 blocks) and L3 (768 blocks) are
		// in contract at R=8 — the bound must actually cover something.
		r8 := r.Rates[1]
		contract := 0
		for _, l := range r8.Levels {
			if l.InContract {
				contract++
			}
		}
		if contract != 2 {
			t.Errorf("%s: R=8 has %d in-contract levels, want 2 (L2+L3)", r.Workload, contract)
		}
	}
}

// TestSamplingHighRateFullHierarchy asserts the R=64 contract: on the
// full-size Itanium2 (L2 2048 blocks, L3 12288 blocks) both line
// levels remain in contract at R=64 and every workload's estimates
// stay within the documented bound.
func TestSamplingHighRateFullHierarchy(t *testing.T) {
	rows, err := Sampling(SamplingWorkloads(), cache.Itanium2(), []uint64{64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		rr := r.Rates[0]
		contract := 0
		for _, l := range rr.Levels {
			if !l.InContract {
				continue
			}
			contract++
			if l.RelErr > SamplingErrBound {
				t.Errorf("%s: R=64 %s: rel err %.1f%% exceeds documented bound %.0f%% (exact %d, sampled %d)",
					r.Workload, l.Level, l.RelErr*100, SamplingErrBound*100, l.Exact, l.Sampled)
			}
		}
		if contract != 2 {
			t.Errorf("%s: R=64 has %d in-contract levels on the full hierarchy, want 2", r.Workload, contract)
		}
	}
}

// TestSamplingDeterministicRows reruns one workload and requires
// byte-identical estimates — the property that makes the sampling
// suite's asserted errors stable across machines.
func TestSamplingDeterministicRows(t *testing.T) {
	run := func() SamplingRow {
		rows, err := Sampling([]string{"fig2"}, cache.ScaledItanium2(), []uint64{8}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0]
	}
	a, b := run(), run()
	if a.ExactFP != b.ExactFP {
		t.Fatal("exact fingerprints differ between runs")
	}
	la, lb := a.Rates[0].Levels, b.Rates[0].Levels
	for i := range la {
		if la[i].Sampled != lb[i].Sampled {
			t.Fatalf("%s: sampled miss count differs between runs: %d vs %d",
				la[i].Level, la[i].Sampled, lb[i].Sampled)
		}
	}
}

// TestSamplingAdaptiveDemoBounded is the scaled-down bounded-memory
// demonstration: a synthetic stream whose footprint is 256x the cap
// completes with the tracked-block count never exceeding the cap and a
// sane total-access estimate. The ISSUE's full 1e9-access configuration
// runs via `cmd/experiments -exp sampling -sampling-demo-accesses
// 1000000000`; this test keeps the same structure at test-suite cost.
func TestSamplingAdaptiveDemoBounded(t *testing.T) {
	const (
		accesses  = 1 << 21
		footprint = 1 << 18
		cap       = 1024
	)
	r, err := SamplingAdaptiveDemo(accesses, footprint, cap, cache.ScaledItanium2())
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakBlocks > cap {
		t.Fatalf("peak tracked blocks %d exceeded cap %d", r.PeakBlocks, cap)
	}
	if r.FinalRate <= 1 {
		t.Fatalf("final rate %d: the cap never engaged on a %d-block footprint", r.FinalRate, footprint)
	}
	if r.RelErr > 0.10 {
		t.Fatalf("total-access estimate off by %.1f%% (est %d, true %d)",
			r.RelErr*100, r.EstAccesses, r.Accesses)
	}
}
