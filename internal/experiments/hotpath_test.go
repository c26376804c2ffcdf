package experiments

import (
	"fmt"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/interp"
	"reusetool/internal/reusedist"
	"reusetool/internal/sampling"
	"reusetool/internal/trace"
)

// TestHotpathTraceCountsEveryAccess: a recording keeps runs, so it
// holds far fewer events than accesses; replayed, it stands for every
// access the interpreter counted. BenchmarkHotpath and the sampling
// suite divide by this count.
func TestHotpathTraceCountsEveryAccess(t *testing.T) {
	for _, name := range HotpathWorkloads() {
		rec, err := HotpathTrace(name)
		if err != nil {
			t.Fatal(err)
		}
		var count trace.Counter
		rec.Replay(&count)
		prog, init, err := hotpathProgram(name)
		if err != nil {
			t.Fatal(err)
		}
		info, err := prog.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		var opts []interp.Option
		if init != nil {
			opts = append(opts, interp.WithInit(init))
		}
		res, err := interp.Run(info, nil, trace.Discard{}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if count.Accesses != res.Accesses {
			t.Errorf("%s: the recording stands for %d accesses, the interpreter made %d", name, count.Accesses, res.Accesses)
		}
	}
}

// seedFingerprints pins the reuse-distance collector's output on every
// hotpath workload to the values measured on the pre-optimization (seed)
// engine. The hot-path rewrite (flat histograms, pattern interning, epoch
// compaction, SoA block table) must keep every histogram bin, miss count
// and cold count bit-identical; any drift shows up here as a fingerprint
// mismatch.
var seedFingerprints = map[string]uint64{
	"fig1a":     0x9fd3ba170a770954,
	"fig2":      0x2c94aae43559c686,
	"stream":    0x6abbe663b7ca2929,
	"stencil":   0x18896d76f5012dd9,
	"transpose": 0xeb18224dea627267,
	"sweep3d":   0x075f9f1f39d82be7,
	"gtc":       0xb1030dbf6236fb7a,
}

// TestHotpathFingerprintsPinned replays every hotpath workload trace
// through a fresh collector and checks the output against the seed
// goldens.
func TestHotpathFingerprintsPinned(t *testing.T) {
	hier := cache.ScaledItanium2()
	for _, name := range HotpathWorkloads() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "sweep3d" || name == "gtc") {
				t.Skip("large trace; skipped in -short")
			}
			rec, err := HotpathTrace(name)
			if err != nil {
				t.Fatal(err)
			}
			col := HotpathCollector(hier)
			rec.Replay(col)
			want, ok := seedFingerprints[name]
			if !ok {
				t.Fatalf("no seed fingerprint for %q", name)
			}
			if got := col.Fingerprint(); got != want {
				t.Errorf("fingerprint = %#x, want seed %#x (engine output changed)", got, want)
			}
		})
	}
}

// sampledFingerprints pins the sampled collectors on every hotpath
// workload: fixed rate R=8, fixed rate R=64, and adaptive with the
// smallest cap (sampling.MinMaxBlocks), which halves the line engines'
// threshold 7 to 10 times and the page engines' 1 to 6 times. The values
// were recorded before the engine kept its newest marks outside the
// tree, so they guard the sampled admission path and the adaptive
// rescale (which must evict from those marks too) against any drift.
var sampledFingerprints = map[string][3]uint64{
	"fig1a":     {0x7d071aa20770545b, 0xfad2fc67e2ee60ef, 0xac0772d9741cfbd0},
	"fig2":      {0x326cfe40fc09fe27, 0x89496f956a32aad8, 0x5700a097a6e30793},
	"stream":    {0xadf8955d11cc6d71, 0x61b96ba4e7c7a823, 0xd47be55653045267},
	"stencil":   {0x7eee3b3f75af7fd2, 0x1b2a11ec12be6029, 0x9fda29685b9cb270},
	"transpose": {0x4ec1c893ca8d3d26, 0xdd0720a7d8cd1d1a, 0xfee572f196ac0e79},
	"sweep3d":   {0x7a9ef4003721230d, 0x1e0c1a1f783cefca, 0x9c993460f76ee46c},
	"gtc":       {0x5b2af67089edb918, 0x0c32315ca1da7416, 0x47972e5a0dd6d889},
}

// TestSampledFingerprintsPinned replays every hotpath workload through
// sampled collectors and checks each finished collector against its pin.
// The adaptive run must rescale the line engine at least three times.
func TestSampledFingerprintsPinned(t *testing.T) {
	hier := cache.ScaledItanium2()
	modes := [3]sampling.Config{{Rate: 8}, {Rate: 64}, {MaxBlocks: sampling.MinMaxBlocks}}
	for _, name := range HotpathWorkloads() {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "sweep3d" || name == "gtc") {
				t.Skip("large trace; skipped in -short")
			}
			rec, err := HotpathTrace(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, mode := range modes {
				col := reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{Sampling: mode})
				rec.Replay(col)
				if mode.MaxBlocks > 0 {
					if r := col.Engines[0].Sample().Rate; r < 8 {
						t.Errorf("%v: line engine ended at rate %d, want at least 3 rescales", mode, r)
					}
				}
				col.Finish()
				if got, want := col.Fingerprint(), sampledFingerprints[name][i]; got != want {
					t.Errorf("%v: fingerprint = %#x, want %#x (sampled engine output changed)", mode, got, want)
				}
			}
		})
	}
}

// seedAdvice pins the full pipeline's ranked, legality-gated advice on the
// acceptance workloads, captured from the seed engine. Advice depends on
// the collected histograms and per-threshold miss counts through several
// layers (metrics, fragmentation, dependence gating), so agreement here is
// an end-to-end check that the optimized hot path changes nothing
// observable.
var seedAdvice = map[string]map[string][]string{
	"fig1a": {
		"L2": {
			`interchange/blocking |  | src=4 dst=4 carry=3 | share=0.4687 | legality=legal`,
			`interchange/blocking |  | src=4 dst=4 carry=3 | share=0.4687 | legality=legal`,
		},
		"L3": {
			`interchange/blocking |  | src=4 dst=4 carry=3 | share=0.3720 | legality=legal`,
			`interchange/blocking |  | src=4 dst=4 carry=3 | share=0.3720 | legality=legal`,
		},
	},
	"fig2": {"L2": {}, "L3": {}},
	"stencil": {
		"L2": {
			`time-skew/intrinsic |  | src=5 dst=5 carry=3 | share=0.3745 | legality=legal`,
			`time-skew/intrinsic |  | src=5 dst=5 carry=3 | share=0.3706 | legality=legal`,
		},
		"L3": {
			`time-skew/intrinsic |  | src=5 dst=5 carry=3 | share=0.3770 | legality=legal`,
			`time-skew/intrinsic |  | src=5 dst=5 carry=3 | share=0.3730 | legality=legal`,
		},
	},
	"transpose": {
		"L2": {
			`interchange/blocking |  | src=4 dst=4 carry=3 | share=0.8819 | legality=legal`,
		},
		"L3": {
			`interchange/blocking |  | src=4 dst=4 carry=3 | share=0.1343 | legality=legal`,
		},
	},
	"sweep3d": {
		"L2": {
			`interchange/blocking |  | src=10 dst=10 carry=5 | share=0.1295 | legality=illegal`,
			`interchange/blocking |  | src=14 dst=14 carry=5 | share=0.1295 | legality=illegal`,
			`interchange/blocking |  | src=15 dst=15 carry=5 | share=0.1295 | legality=illegal`,
			`interchange/blocking |  | src=15 dst=15 carry=6 | share=0.0834 | legality=illegal`,
			`interchange/blocking |  | src=14 dst=14 carry=6 | share=0.0828 | legality=illegal`,
			`interchange/blocking |  | src=10 dst=10 carry=6 | share=0.0828 | legality=illegal`,
		},
		"L3": {
			`interchange/blocking |  | src=14 dst=14 carry=5 | share=0.1613 | legality=illegal`,
			`interchange/blocking |  | src=10 dst=10 carry=5 | share=0.1613 | legality=illegal`,
			`interchange/blocking |  | src=15 dst=15 carry=5 | share=0.1612 | legality=illegal`,
			`interchange/blocking |  | src=10 dst=10 carry=4 | share=0.0740 | legality=illegal`,
			`interchange/blocking |  | src=14 dst=14 carry=4 | share=0.0740 | legality=illegal`,
			`interchange/blocking |  | src=15 dst=15 carry=4 | share=0.0740 | legality=illegal`,
			`interchange/blocking |  | src=8 dst=8 carry=5 | share=0.0538 | legality=illegal`,
			`interchange/blocking |  | src=11 dst=11 carry=5 | share=0.0538 | legality=illegal`,
			`interchange/blocking |  | src=12 dst=12 carry=5 | share=0.0537 | legality=illegal`,
		},
	},
	"gtc": {
		"L2": {
			`split-array | zion | src=-1 dst=-1 carry=-1 | share=0.1737 | legality=legal`,
			`reorder |  | src=24 dst=24 carry=24 | share=0.1232 | legality=unknown`,
			`interchange/blocking |  | src=20 dst=20 carry=18 | share=0.1097 | legality=legal`,
			`interchange/blocking |  | src=14 dst=14 carry=12 | share=0.0641 | legality=unknown`,
			`interchange/blocking |  | src=14 dst=14 carry=12 | share=0.0641 | legality=unknown`,
			`time-skew/intrinsic |  | src=22 dst=30 carry=28 | share=0.0623 | legality=legal`,
			`fuse |  | src=24 dst=25 carry=23 | share=0.0623 | legality=legal`,
			`time-skew/intrinsic |  | src=9 dst=24 carry=28 | share=0.0623 | legality=legal`,
			`time-skew/intrinsic |  | src=29 dst=9 carry=28 | share=0.0623 | legality=legal`,
			`strip-mine+fuse |  | src=25 dst=22 carry=23 | share=0.0623 | legality=legal`,
		},
		"L3": {
			`split-array | zion | src=-1 dst=-1 carry=-1 | share=0.2324 | legality=legal`,
			`interchange/blocking |  | src=14 dst=14 carry=12 | share=0.0858 | legality=unknown`,
			`interchange/blocking |  | src=14 dst=14 carry=12 | share=0.0858 | legality=unknown`,
			`time-skew/intrinsic |  | src=9 dst=24 carry=28 | share=0.0834 | legality=legal`,
			`time-skew/intrinsic |  | src=29 dst=9 carry=28 | share=0.0834 | legality=legal`,
			`fuse |  | src=24 dst=25 carry=23 | share=0.0834 | legality=legal`,
			`strip-mine+fuse |  | src=25 dst=22 carry=23 | share=0.0834 | legality=legal`,
			`time-skew/intrinsic |  | src=22 dst=30 carry=28 | share=0.0834 | legality=legal`,
		},
	},
}

// TestHotpathAdviceGolden runs the full dynamic pipeline on the acceptance
// workloads and pins the collector fingerprint and the ranked advice
// verdicts at L2 and L3 against the seed engine's output.
func TestHotpathAdviceGolden(t *testing.T) {
	for _, name := range []string{"fig1a", "fig2", "stencil", "transpose", "sweep3d", "gtc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "sweep3d" || name == "gtc") {
				t.Skip("large trace; skipped in -short")
			}
			prog, init, err := hotpathProgram(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Pipeline{Source: core.DynamicSource{Prog: prog, Init: init}}.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Collector.Fingerprint(), seedFingerprints[name]; got != want {
				t.Errorf("pipeline fingerprint = %#x, want seed %#x", got, want)
			}
			for _, level := range []string{"L2", "L3"} {
				var got []string
				for _, rec := range res.Advice(level, 0.05) {
					got = append(got, fmt.Sprintf("%v | %s | src=%d dst=%d carry=%d | share=%.4f | legality=%v",
						rec.Kind, rec.Array, rec.Source, rec.Dest, rec.Carrying, rec.Share, rec.Legality))
				}
				want := seedAdvice[name][level]
				if len(got) != len(want) {
					t.Errorf("%s: %d recommendations, want %d\ngot: %v", level, len(got), len(want), got)
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s advice[%d]:\n got %s\nwant %s", level, i, got[i], want[i])
					}
				}
			}
		})
	}
}
