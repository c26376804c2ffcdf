package core

import (
	"bytes"
	"strings"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/metrics"
	"reusetool/internal/reusedist"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

// runDynamic runs the dynamic pipeline on prog.
func runDynamic(prog *ir.Program, opts Options) (*Result, error) {
	return Pipeline{Source: DynamicSource{Prog: prog}, Options: opts}.Run()
}

func TestAnalyzeFig1EndToEnd(t *testing.T) {
	res, err := runDynamic(workloads.Fig1(false), Options{Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Static == nil || res.Sim == nil {
		t.Fatal("missing result components")
	}
	l2 := res.Report.Level("L2")
	if l2 == nil || l2.TotalMisses == 0 {
		t.Fatal("no L2 misses for the bad loop order")
	}
	// The interchanged version must predict far fewer L2 misses.
	res2, err := runDynamic(workloads.Fig1(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := res2.Report.Level("L2").TotalMisses
	bad := l2.TotalMisses
	if good*2 > bad {
		t.Errorf("interchange should cut misses at least 2x: %v -> %v", bad, good)
	}
	// Advice for the bad version mentions interchange.
	var sawInterchange bool
	for _, r := range res.Advice("L2", 0.05) {
		if strings.Contains(r.Kind.String(), "interchange") {
			sawInterchange = true
		}
	}
	if !sawInterchange {
		t.Error("no interchange advice for Figure 1(a)")
	}
}

func TestPredictionMatchesSimulationFullyAssoc(t *testing.T) {
	// With a fully-associative hierarchy and the FullyAssoc model, the
	// prediction and the simulation agree exactly, access for access.
	hier := &cache.Hierarchy{
		Name: "fa",
		Levels: []cache.Level{
			{Name: "L2", LineBits: 7, Sets: 1, Assoc: 128, Latency: 8},
			{Name: "TLB", LineBits: 12, Sets: 1, Assoc: 16, Latency: 30},
		},
	}
	res, err := runDynamic(workloads.Stencil(64, 3), Options{
		Hierarchy: hier, Model: metrics.FullyAssoc, Simulate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"L2", "TLB"} {
		pred := res.Report.Level(name).TotalMisses
		sim := float64(res.Sim.Misses(name))
		if pred != sim {
			t.Errorf("%s: predicted %v, simulated %v", name, pred, sim)
		}
	}
}

func TestSetAssocPredictionTracksSimulation(t *testing.T) {
	// On the real (set-associative) scaled hierarchy, the probabilistic
	// model must track the simulator within 20% on a non-trivial code.
	res, err := runDynamic(workloads.Stencil(96, 3), Options{Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"L2", "L3"} {
		pred := res.Report.Level(name).TotalMisses
		sim := float64(res.Sim.Misses(name))
		if sim == 0 {
			continue
		}
		rel := (pred - sim) / sim
		if rel < -0.2 || rel > 0.2 {
			t.Errorf("%s: predicted %.0f vs simulated %.0f (%.0f%% off)", name, pred, sim, rel*100)
		}
	}
}

func TestSimulateLightPath(t *testing.T) {
	res, err := runDynamic(workloads.Stream(4096, 3), Options{SimulateOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil || res.Collector != nil {
		t.Error("SimulateOnly should skip reuse-distance collection and the report")
	}
	if res.Run.Accesses != 3*4096 {
		t.Errorf("accesses = %d, want %d", res.Run.Accesses, 3*4096)
	}
	if res.Misses("L2") == 0 {
		t.Error("streaming 32KB through a 16KB L2 should miss")
	}
	b := res.Cycles(1)
	if b.Total <= b.NonStall {
		t.Error("cycles should include stall time")
	}
}

func TestParamOverrides(t *testing.T) {
	res, err := runDynamic(workloads.Stream(4096, 3), Options{SimulateOnly: true, Params: map[string]int64{"T": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Accesses != 4096 {
		t.Errorf("accesses = %d, want 4096", res.Run.Accesses)
	}
}

func TestWriteXMLAndSummary(t *testing.T) {
	res, err := runDynamic(workloads.Fig2(), Options{Params: map[string]int64{"N": 64, "M": 16}})
	if err != nil {
		t.Fatal(err)
	}
	var xmlBuf bytes.Buffer
	if err := res.WriteXML(&xmlBuf); err != nil {
		t.Fatal(err)
	}
	s := xmlBuf.String()
	for _, want := range []string{"ReuseToolExperiment", "PatternDatabase", "ScopeTree", "fig2"} {
		if !strings.Contains(s, want) {
			t.Errorf("XML missing %q", want)
		}
	}
	var sumBuf bytes.Buffer
	if err := res.WriteSummary(&sumBuf, "L2", 0.01); err != nil {
		t.Fatal(err)
	}
	out := sumBuf.String()
	for _, want := range []string{"SCOPE", "CARRYING SCOPE", "ARRAY", "fragmentation"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	// Unfinalizable program.
	p := workloads.Fig1(false)
	if _, err := runDynamic(p, Options{Params: map[string]int64{"BOGUS": 1}}); err == nil {
		t.Error("bogus parameter should fail")
	}
}

func TestAnalyzeSavedRebuildsReport(t *testing.T) {
	// Live analysis of fig2.
	live, err := runDynamic(workloads.Fig2(), Options{Params: map[string]int64{"N": 64, "M": 16}})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild from the collected data only (as -load does), against a
	// fresh finalize of the same program.
	info2, err := workloads.Fig2().Finalize()
	if err != nil {
		t.Fatal(err)
	}
	saved, err := Pipeline{
		Source:  SavedSource{Info: info2, Collector: live.Collector},
		Options: Options{Params: map[string]int64{"N": 64, "M": 16}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []string{"L2", "L3", "TLB"} {
		if saved.Report.Level(lvl).TotalMisses != live.Report.Level(lvl).TotalMisses {
			t.Errorf("%s totals differ: %v vs %v", lvl,
				saved.Report.Level(lvl).TotalMisses, live.Report.Level(lvl).TotalMisses)
		}
	}
	// Static analysis ran with default trips and still found fig2's
	// fragmentation.
	if saved.Report.Level("L2").FragMissesByArray["A"] <= 0 {
		t.Error("the saved source lost fragmentation attribution")
	}
}

// TestCrossArchitectureCollection: one instrumented run with union
// granularities serves predictions for two machines with different line
// sizes — the architecture-independence claim at the heart of
// reuse-distance analysis.
func TestCrossArchitectureCollection(t *testing.T) {
	small := cache.ScaledItanium2()
	big := cache.Opteron()
	grans := cache.UnionGranularities(small, big)

	info, err := workloads.Stencil(96, 2).Finalize()
	if err != nil {
		t.Fatal(err)
	}
	col := reusedist.NewCollectorWith(grans, reusedist.Config{})
	if _, err := interpRun(info, col); err != nil {
		t.Fatal(err)
	}

	repSmall, err := metrics.Build(info, col, nil, small, metrics.SetAssoc)
	if err != nil {
		t.Fatal(err)
	}
	repBig, err := metrics.Build(info, col, nil, big, metrics.SetAssoc)
	if err != nil {
		t.Fatal(err)
	}
	// The Opteron's 1MB L2 holds the stencil working set (two 72KB
	// arrays); the scaled Itanium's 16KB L2 cannot.
	if repBig.Level("L2").TotalMisses >= repSmall.Level("L2").TotalMisses {
		t.Errorf("1MB L2 predicted %v misses vs 16KB's %v",
			repBig.Level("L2").TotalMisses, repSmall.Level("L2").TotalMisses)
	}
	// Asking for a machine whose granularities were not collected fails
	// loudly rather than silently using the wrong block size.
	foreign := &cache.Hierarchy{Name: "x", Levels: []cache.Level{
		{Name: "L2", LineBits: 9, Sets: 64, Assoc: 4},
	}}
	if _, err := metrics.Build(info, col, nil, foreign, metrics.SetAssoc); err == nil {
		t.Error("foreign block size should fail")
	}
}

// interpRun is a tiny helper for tests that drive a collector directly.
func interpRun(info *ir.Info, h trace.Handler) (*interp.Result, error) {
	return interp.Run(info, nil, h)
}
