package core

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"reusetool/internal/advise"
	"reusetool/internal/histo"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/metrics"
	"reusetool/internal/reusecheck"
	"reusetool/internal/staticreuse"
	"reusetool/internal/workloads"
)

// checkerOpportunities is the report's ranking computed from the full
// checker: every check runs and advise keeps the opportunities.
func checkerOpportunities(r *Result, level string, params map[string]int64) []advise.Recommendation {
	diags := reusecheck.Check(r.Info, reusecheck.Options{
		Params:            params,
		AssumeInitialized: true,
		Hier:              r.Hier,
		Level:             level,
	})
	return advise.Opportunities(diags, r.Report.Level(level).TotalMisses)
}

func sameRecommendations(t *testing.T, name string, got, want []advise.Recommendation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d opportunities, the checker ranks %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: opportunity %d differs from the checker's\n got %+v\nwant %+v", name, i, got[i], want[i])
		}
	}
}

// testPrograms names every built-in workload and shipped .loop program.
func testPrograms(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "programs", "*.loop"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no .loop programs found: %v", err)
	}
	sort.Strings(files)
	return append([]string{
		"fig1a", "fig1b", "fig2", "stream", "stencil", "transpose",
		"sweep3d", "sweep3d-blk6", "sweep3d-blk6ic", "gtc", "gtc-tuned",
	}, files...)
}

// runSource runs the static or the dynamic pipeline on a built-in
// workload or a .loop file.
func runSource(t *testing.T, name string, static bool, opts Options) *Result {
	t.Helper()
	var (
		prog *ir.Program
		init func(*interp.Machine) error
		err  error
	)
	if strings.HasSuffix(name, ".loop") {
		var data []byte
		if data, err = os.ReadFile(name); err == nil {
			prog, init, err = lang.Parse(string(data))
		}
	} else {
		prog, init, err = workloads.Build(name)
	}
	if err != nil {
		t.Fatal(err)
	}
	var src Source = DynamicSource{Prog: prog, Init: init}
	if static {
		src = StaticSource{Prog: prog}
	}
	res, err := Pipeline{Source: src, Options: opts}.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestOpportunitiesMatchChecker: the report's ranking, which hands the
// pipeline's own analyses to the detectors, ranks exactly what the full
// checker ranks — on every program in static mode and on the small
// built-ins in dynamic mode.
func TestOpportunitiesMatchChecker(t *testing.T) {
	small := map[string]bool{"fig1a": true, "fig1b": true, "fig2": true, "stream": true, "stencil": true, "transpose": true}
	for _, name := range testPrograms(t) {
		t.Run(filepath.Base(name), func(t *testing.T) {
			res := runSource(t, name, true, Options{})
			if res.estimate == nil {
				t.Fatal("static result at the default resolution and model keeps no estimate")
			}
			for _, level := range []string{"L2", "L3"} {
				sameRecommendations(t, "static "+level, res.Opportunities(level, res.Params), checkerOpportunities(res, level, res.Params))
			}
			if small[name] {
				dyn := runSource(t, name, false, Options{})
				sameRecommendations(t, "dynamic", dyn.Opportunities("L2", dyn.Params), checkerOpportunities(dyn, "L2", dyn.Params))
			}
		})
	}
}

// TestOpportunitiesFallbacks: where the pipeline's estimate or analyses
// do not describe what the ranking would compute, the ranking computes
// its own, as the checker does. The default resolution named explicitly
// still hands the estimate over.
func TestOpportunitiesFallbacks(t *testing.T) {
	res := runSource(t, "stencil", true, Options{HistRes: histo.DefaultResolution})
	if res.estimate == nil {
		t.Error("a static result at the explicit default resolution keeps no estimate")
	}
	sameRecommendations(t, "default histres", res.Opportunities("L2", res.Params), checkerOpportunities(res, "L2", res.Params))

	res = runSource(t, "stencil", true, Options{HistRes: 64})
	if res.estimate != nil {
		t.Error("a static result at resolution 64 keeps its estimate")
	}
	sameRecommendations(t, "histres 64", res.Opportunities("L2", res.Params), checkerOpportunities(res, "L2", res.Params))

	res = runSource(t, "stencil", true, Options{Model: metrics.FullyAssoc})
	if res.estimate != nil {
		t.Error("a static FullyAssoc result keeps its estimate")
	}
	sameRecommendations(t, "fully associative", res.Opportunities("L2", res.Params), checkerOpportunities(res, "L2", res.Params))

	res = runSource(t, "stencil", true, Options{Params: map[string]int64{"N": 100}})
	other := map[string]int64{"N": 64}
	want := checkerOpportunities(res, "L2", other)
	sameRecommendations(t, "other params", res.Opportunities("L2", other), want)
	if reflect.DeepEqual(want, checkerOpportunities(res, "L2", res.Params)) {
		t.Error("N=64 ranks as N=100 does; the case does not tell the two estimates apart")
	}
}

// TestStaticOpportunitiesReuseEstimate: a static result's ranking reuses
// the pipeline's estimate. The same reusecheck.Opportunities call with the
// estimate and report withheld has to estimate the program itself, so it
// allocates at least half an estimate more than the ranking does.
func TestStaticOpportunitiesReuseEstimate(t *testing.T) {
	prog, _, err := workloads.Build("stencil")
	if err != nil {
		t.Fatal(err)
	}
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Pipeline{Source: StaticSource{Info: info}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	ranking := testing.AllocsPerRun(3, func() { res.Opportunities("L2", res.Params) })
	withheld := testing.AllocsPerRun(3, func() {
		reusecheck.Opportunities(info, reusecheck.Analyses{Deps: res.Deps},
			reusecheck.Options{Params: res.Params, Hier: res.Hier, Level: "L2"})
	})
	estimate := testing.AllocsPerRun(1, func() {
		if _, err := staticreuse.Estimate(info, res.Hier, staticreuse.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations: ranking %.0f, ranking with the estimate withheld %.0f, one estimate %.0f", ranking, withheld, estimate)
	if withheld-ranking < estimate/2 {
		t.Errorf("the ranking allocates %.0f times, %.0f with the estimate withheld, one estimate %.0f: it re-estimates the program",
			ranking, withheld, estimate)
	}
}
