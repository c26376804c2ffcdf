package repro

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices called out in DESIGN.md.
// Each figure benchmark regenerates the underlying data via
// internal/experiments (the same code cmd/experiments and the golden
// tests use) and reports the headline quantities as custom metrics, so
//
//	go test -bench=Fig -benchmem
//
// reproduces the whole evaluation. Shapes are asserted in
// internal/experiments tests; EXPERIMENTS.md records measured vs paper.

import (
	"sync"
	"testing"
	"time"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/depend"
	"reusetool/internal/experiments"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/metrics"
	"reusetool/internal/reusecheck"
	"reusetool/internal/sampling"
	"reusetool/internal/staticreuse"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

func hier() *cache.Hierarchy { return cache.ScaledItanium2() }

func BenchmarkFig1_LoopInterchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(256, 256, hier())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MissesBad/r.MissesGood, "improvement_x")
		b.ReportMetric(r.CarriedByOuterBad*100, "outer_carried_pct")
	}
}

func BenchmarkFig2_Fragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(400, 100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FragA, "fragA")
		b.ReportMetric(r.FragB, "fragB")
	}
}

func BenchmarkFig5_CarriedMisses(b *testing.B) {
	cfg := workloads.DefaultSweep3D()
	cfg.N = 16
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(cfg, hier())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Share("L2", "loop idiag")*100, "idiag_L2_pct") // paper: 75
		b.ReportMetric(r.Share("L3", "loop idiag")*100, "idiag_L3_pct") // paper: 68
		b.ReportMetric(r.Share("L3", "loop iq")*100, "iq_L3_pct")       // paper: 22
		b.ReportMetric(r.Share("TLB", "loop jkm")*100, "jkm_TLB_pct")   // paper: 79
	}
}

func BenchmarkTable2_L2Breakdown(b *testing.B) {
	cfg := workloads.DefaultSweep3D()
	cfg.N = 16
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(cfg, hier())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ArrayTotal["src"]*100, "src_pct")   // paper: 26.7
		b.ReportMetric(r.ArrayTotal["flux"]*100, "flux_pct") // paper: 26.9
		b.ReportMetric(r.ArrayTotal["face"]*100, "face_pct") // paper: 19.7
		b.ReportMetric(r.RowShare("src", "idiag")*100, "src_idiag_pct")
	}
}

// fig8 runs the mesh sweep once and reports one sub-benchmark per panel.
func fig8Rows(b *testing.B) []experiments.Fig8Row {
	b.Helper()
	rows, err := experiments.Fig8([]int64{8, 12, 16, 20}, hier())
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

func BenchmarkFig8a_L2MissesVsMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig8Rows(b)
		orig := experiments.Fig8Find(rows, "Original", 20)
		blk6 := experiments.Fig8Find(rows, "Block size 6", 20)
		b.ReportMetric(orig.L2PerCell, "orig_L2_per_cell")
		b.ReportMetric(blk6.L2PerCell, "blk6_L2_per_cell")
		b.ReportMetric(orig.L2PerCell/blk6.L2PerCell, "reduction_x") // paper: ~6
	}
}

func BenchmarkFig8b_L3MissesVsMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig8Rows(b)
		orig := experiments.Fig8Find(rows, "Original", 20)
		blk6 := experiments.Fig8Find(rows, "Block size 6", 20)
		b.ReportMetric(orig.L3PerCell, "orig_L3_per_cell")
		b.ReportMetric(blk6.L3PerCell, "blk6_L3_per_cell")
	}
}

func BenchmarkFig8c_TLBMissesVsMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig8Rows(b)
		orig := experiments.Fig8Find(rows, "Original", 20)
		ic := experiments.Fig8Find(rows, "Blk6+dimIC", 20)
		b.ReportMetric(orig.TLBPerCell, "orig_TLB_per_cell")
		b.ReportMetric(ic.TLBPerCell, "dimIC_TLB_per_cell")
	}
}

func BenchmarkFig8d_CyclesVsMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig8Rows(b)
		orig := experiments.Fig8Find(rows, "Original", 20)
		ic := experiments.Fig8Find(rows, "Blk6+dimIC", 20)
		b.ReportMetric(orig.CyclesPerCell, "orig_cycles_per_cell")
		b.ReportMetric(ic.CyclesPerCell, "tuned_cycles_per_cell")
		b.ReportMetric(orig.CyclesPerCell/ic.CyclesPerCell, "speedup_x") // paper: 2.5
		b.ReportMetric(ic.NonStallPerCell, "nonstall_per_cell")
	}
}

func BenchmarkFig9_FragArrays(b *testing.B) {
	cfg := workloads.DefaultGTC()
	cfg.Micell = 10
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(cfg, hier())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ZionShareOfFrag*100, "zion_frag_share_pct")        // paper: 95
		b.ReportMetric(r.ZionFragShareOfZionMisses*100, "frag_of_zion_pct") // paper: 48
		b.ReportMetric(r.ZionFragShareOfProgram*100, "frag_of_program_pct") // paper: 13.7
	}
}

func BenchmarkFig10a_L3Carriers(b *testing.B) {
	cfg := workloads.DefaultGTC()
	cfg.Micell = 10
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(cfg, hier())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MainLoopsL3*100, "main_loops_L3_pct") // paper: ~40
		b.ReportMetric(r.PushiL3*100, "pushi_L3_pct")          // paper: ~20
	}
}

func BenchmarkFig10b_TLBCarriers(b *testing.B) {
	cfg := workloads.DefaultGTC()
	cfg.Micell = 10
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(cfg, hier())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SmoothTLB*100, "smooth_TLB_pct") // paper: ~64
	}
}

func fig11Rows(b *testing.B) []experiments.Fig11Row {
	b.Helper()
	rows, err := experiments.Fig11(workloads.DefaultGTC(), []int64{2, 5, 10, 15}, hier())
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

func BenchmarkFig11a_L2MissesVsMicell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig11Rows(b)
		orig := experiments.Fig11Find(rows, "gtc_original", 15)
		final := experiments.Fig11Find(rows, "+pushi tiling/fusion", 15)
		b.ReportMetric(orig.L2PerMicell, "orig_L2_per_mc")
		b.ReportMetric(final.L2PerMicell, "tuned_L2_per_mc")
	}
}

func BenchmarkFig11b_L3MissesVsMicell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig11Rows(b)
		orig := experiments.Fig11Find(rows, "gtc_original", 15)
		final := experiments.Fig11Find(rows, "+pushi tiling/fusion", 15)
		b.ReportMetric(orig.L3PerMicell/final.L3PerMicell, "reduction_x") // paper: >= 2
	}
}

func BenchmarkFig11c_TLBMissesVsMicell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig11Rows(b)
		before := experiments.Fig11Find(rows, "+poisson transforms", 15)
		after := experiments.Fig11Find(rows, "+smooth LI", 15)
		b.ReportMetric(before.TLBPerMicell, "before_smoothLI_TLB_per_mc")
		b.ReportMetric(after.TLBPerMicell, "after_smoothLI_TLB_per_mc")
	}
}

func BenchmarkFig11d_TimeVsMicell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig11Rows(b)
		orig := experiments.Fig11Find(rows, "gtc_original", 15)
		final := experiments.Fig11Find(rows, "+pushi tiling/fusion", 15)
		b.ReportMetric(orig.CyclesPerMicell/final.CyclesPerMicell, "speedup_x") // paper: 1.5
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md section 5).
// ---------------------------------------------------------------------

// BenchmarkHotpath is the per-workload engine-throughput suite: each
// sub-benchmark replays one recording through a fresh collector and
// reports ns per reference access, with B/op and allocs/op beside it.
// The recording keeps the interpreter's access runs, so the engines
// take them through AccessRun as they do in production. It is the
// engine-only timing; TestHotpathFingerprintsPinned
// (internal/experiments) pins the same replays' output. CI replays every
// workload once (-bench=Hotpath -benchtime=1x) as a smoke test.
func BenchmarkHotpath(b *testing.B) {
	h := hier()
	for _, name := range experiments.HotpathWorkloads() {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			rec, err := experiments.HotpathTrace(name)
			if err != nil {
				b.Fatal(err)
			}
			var count trace.Counter
			rec.Replay(&count)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col := experiments.HotpathCollector(h)
				rec.Replay(col)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(count.Accesses), "ns/access")
		})
	}
}

// BenchmarkEnginePair is the fan-out's false-sharing check. It replays
// the sweep3d hot-path recording, runs kept, into the two engines of a
// scaled Itanium 2 collector (128-byte lines and 4 KB pages), first one
// engine after the other and then each on its own goroutine, and
// reports both times and their ratio. On two idle CPUs, engines that
// share no written cache line take little more than the larger
// engine's share of the work (the 128-byte engine does 63–74% of it,
// and pair/seq reads about 0.7–0.8); a line that one engine writes
// while the other reads it holds the pair near 1.0. CI runs it once
// (-bench=EnginePair -benchtime=1x) as a smoke test.
func BenchmarkEnginePair(b *testing.B) {
	rec, err := experiments.HotpathTrace("sweep3d")
	if err != nil {
		b.Fatal(err)
	}
	h := hier()
	var seq, pair time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := experiments.HotpathCollector(h)
		t0 := time.Now()
		for _, e := range col.Engines {
			rec.Replay(e)
		}
		seq += time.Since(t0)

		col = experiments.HotpathCollector(h)
		t0 = time.Now()
		var wg sync.WaitGroup
		for _, e := range col.Engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec.Replay(e)
			}()
		}
		wg.Wait()
		pair += time.Since(t0)
	}
	b.ReportMetric(seq.Seconds()*1e3/float64(b.N), "seq_ms")
	b.ReportMetric(pair.Seconds()*1e3/float64(b.N), "pair_ms")
	b.ReportMetric(pair.Seconds()/seq.Seconds(), "pair/seq")
}

// BenchmarkStaticEstimate times one static reuse-distance estimate
// (internal/staticreuse) of the whole hierarchy per built-in workload,
// with B/op and allocs/op beside it: the cost a static request pays
// once, for its report and its ranked opportunities alike. A dynamic
// request's ranking no longer pays it: it estimates the ranked level
// alone (BenchmarkOpportunities). Stencil enumerates ~80k candidate
// sources and covers its mass with a few thousand; stream's page
// granularity splits a reference's 512 block offsets into 512 runs; gtc
// and sweep3d have the deepest nests. CI runs each once
// (-bench=StaticEstimate -benchtime=1x) as a smoke test.
func BenchmarkStaticEstimate(b *testing.B) {
	h := hier()
	for _, name := range []string{"fig2", "stencil", "stream", "transpose", "sweep3d", "gtc"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			prog, _, err := workloads.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			info, err := prog.Finalize()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := staticreuse.Estimate(info, h, staticreuse.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpportunities times the report's opportunity ranking at L2
// (reusecheck.Opportunities) as a dynamic, saved or trace request runs
// it: the dependence analysis is handed in and no estimate is, so the
// ranking estimates the L2 block size itself. CI runs each once
// (-bench='StaticEstimate|Opportunities' -benchtime=1x) as a smoke test.
func BenchmarkOpportunities(b *testing.B) {
	h := hier()
	for _, name := range []string{"sweep3d", "gtc", "gtc-tuned", "stencil"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			prog, _, err := workloads.Build(name)
			if err != nil {
				b.Fatal(err)
			}
			info, err := prog.Finalize()
			if err != nil {
				b.Fatal(err)
			}
			given := reusecheck.Analyses{Deps: depend.Analyze(info, nil)}
			opts := reusecheck.Options{Hier: h, Level: "L2"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reusecheck.Opportunities(info, given, opts)
			}
		})
	}
}

// BenchmarkAblation_HistogramResolution measures analysis cost and
// prediction fidelity at different histogram resolutions.
func BenchmarkAblation_HistogramResolution(b *testing.B) {
	for _, res := range []int{2, 8, 64} {
		b.Run(map[int]string{2: "res2", 8: "res8", 64: "res64"}[res], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.Pipeline{Source: core.DynamicSource{Prog: workloads.Stencil(96, 2)},
					Options: core.Options{HistRes: res}}.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Report.Level("L3").TotalMisses, "predicted_L3")
			}
		})
	}
}

// BenchmarkAblation_PatternGranularity quantifies the paper's claim that
// per-(source,carrying) histograms are "more but smaller": it reports the
// number of histograms and their total occupied bins for the Sweep3D
// trace, versus the single-histogram-per-reference baseline.
func BenchmarkAblation_PatternGranularity(b *testing.B) {
	cfg := workloads.DefaultSweep3D()
	cfg.N = 10
	cfg.Octants = 2
	for i := 0; i < b.N; i++ {
		prog, err := workloads.Sweep3D(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Pipeline{Source: core.DynamicSource{Prog: prog}}.Run()
		if err != nil {
			b.Fatal(err)
		}
		eng, _ := res.Collector.Level("L2")
		var patterns, bins, refs int
		var perRefBins int
		for _, rd := range eng.Refs() {
			refs++
			merged := 0
			for _, p := range rd.Patterns {
				patterns++
				bins += p.Hist.Bins()
				merged += p.Hist.Bins()
			}
			// The baseline merges all patterns of a reference into one
			// histogram; its bin count is at most the union.
			if merged > 0 {
				perRefBins += merged
			}
		}
		b.ReportMetric(float64(patterns), "histograms")
		b.ReportMetric(float64(patterns)/float64(refs), "histograms_per_ref")
		b.ReportMetric(float64(bins)/float64(patterns), "bins_per_histogram")
	}
}

// BenchmarkAblation_PredictionModel compares the exact fully-associative
// thresholding against the probabilistic set-associative model on the
// same collected data.
func BenchmarkAblation_PredictionModel(b *testing.B) {
	for _, m := range []metrics.Model{metrics.FullyAssoc, metrics.SetAssoc} {
		name := "FullyAssoc"
		if m == metrics.SetAssoc {
			name = "SetAssoc"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.Pipeline{Source: core.DynamicSource{Prog: workloads.Stencil(96, 2)},
					Options: core.Options{Model: m, Simulate: true}}.Run()
				if err != nil {
					b.Fatal(err)
				}
				pred := r.Report.Level("L3").TotalMisses
				sim := float64(r.Sim.Misses("L3"))
				b.ReportMetric(pred, "predicted_L3")
				b.ReportMetric(pred/sim, "pred_over_sim")
			}
		})
	}
}

// BenchmarkEngineThroughput measures raw reuse-distance engine throughput
// on the GTC trace (accesses per second across both granularities).
func BenchmarkEngineThroughput(b *testing.B) {
	cfg := workloads.DefaultGTC()
	cfg.Micell = 5
	for i := 0; i < b.N; i++ {
		prog, init, err := workloads.GTC(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Pipeline{Source: core.DynamicSource{Prog: prog, Init: init}}.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Run.Accesses), "accesses")
	}
}

// ---------------------------------------------------------------------
// Parallel fan-out (internal/pipeline).
// ---------------------------------------------------------------------

// fanoutHier is a three-granularity hierarchy (64-byte L1, 128-byte
// L2/L3, 4KB TLB): in parallel mode the collector splits into three
// reuse-distance engines plus the simulator, each on its own goroutine.
func fanoutHier() *cache.Hierarchy {
	return &cache.Hierarchy{
		Name: "fanout3g",
		Levels: []cache.Level{
			{Name: "L1", LineBits: 6, Sets: 64, Assoc: 4, Latency: 2},
			{Name: "L2", LineBits: 7, Sets: 16, Assoc: 8, Latency: 8},
			{Name: "L3", LineBits: 7, Sets: 128, Assoc: 6, Latency: 120},
			{Name: "TLB", LineBits: 12, Sets: 1, Assoc: 32, Latency: 30},
		},
		BaseCPI:  1.0,
		PageBits: 12,
	}
}

// benchFanout times a whole dynamic analysis, sequentially or through
// the goroutine fan-out, in two shapes:
//
//   - stream: a ~1M-access streaming workload through three engines and
//     the simulator (fanoutHier), four consumers;
//   - sweep3d: what the daemon runs for a cold {"workload": "sweep3d"}
//     request: the scaled Itanium 2's two engines and no simulator;
//   - sweep3d-sampled: the same at perfbench's sampled-large shape
//     (it=jt=kt=24, SHARDS R=64), where the engines reject most blocks
//     and the producer's side of the fan-out dominates.
//
// CI runs each once (-bench=Fanout -benchtime=1x) as a smoke test;
// compare the two paths with -bench=Fanout -count=N.
func benchFanout(b *testing.B, parallel bool) {
	b.Run("stream", func(b *testing.B) {
		fanoutRun(b, workloads.Stream(1<<18, 4), nil,
			core.Options{Hierarchy: fanoutHier(), Simulate: true, Parallel: parallel})
	})
	b.Run("sweep3d", func(b *testing.B) {
		prog, init, err := workloads.Build("sweep3d")
		if err != nil {
			b.Fatal(err)
		}
		fanoutRun(b, prog, init, core.Options{Hierarchy: hier(), Parallel: parallel})
	})
	b.Run("sweep3d-sampled", func(b *testing.B) {
		prog, init, err := workloads.Build("sweep3d")
		if err != nil {
			b.Fatal(err)
		}
		fanoutRun(b, prog, init, core.Options{Hierarchy: hier(), Parallel: parallel,
			Params: map[string]int64{"it": 24, "jt": 24, "kt": 24}, Sampling: sampling.Config{Rate: 64}})
	})
}

func fanoutRun(b *testing.B, prog *ir.Program, init func(*interp.Machine) error, opts core.Options) {
	info, err := prog.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	var accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Pipeline{Source: core.DynamicSource{Info: info, Init: init}, Options: opts}.Run()
		if err != nil {
			b.Fatal(err)
		}
		accesses = res.Run.Accesses
	}
	b.ReportMetric(float64(accesses), "accesses")
}

func BenchmarkFanoutSequential(b *testing.B) { benchFanout(b, false) }
func BenchmarkFanoutParallel(b *testing.B)   { benchFanout(b, true) }
