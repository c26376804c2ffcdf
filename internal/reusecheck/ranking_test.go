package reusecheck_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/depend"
	"reusetool/internal/histo"
	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/metrics"
	"reusetool/internal/reusecheck"
	"reusetool/internal/staticreuse"
	"reusetool/internal/workloads"
)

// rankingProgram is one program instance the ranking is checked on.
type rankingProgram struct {
	name   string
	info   *ir.Info
	params map[string]int64
}

// rankingPrograms returns the built-in workloads, the shipped .loop
// programs and the two larger bindings the sampled batch benchmark
// analyzes.
func rankingPrograms(t *testing.T) []rankingProgram {
	t.Helper()
	finalize := func(name string, prog *ir.Program, params map[string]int64) rankingProgram {
		info, err := prog.Finalize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rankingProgram{name: name, info: info, params: params}
	}
	build := func(name string) *ir.Program {
		prog, _, err := workloads.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	var out []rankingProgram
	for _, name := range []string{
		"fig1a", "fig1b", "fig2", "stream", "stencil", "transpose",
		"sweep3d", "sweep3d-blk6", "sweep3d-blk6ic", "gtc", "gtc-tuned",
	} {
		out = append(out, finalize(name, build(name), nil))
	}
	out = append(out,
		finalize("sweep3d{it=24,jt=24,kt=24}", build("sweep3d"), map[string]int64{"it": 24, "jt": 24, "kt": 24}),
		finalize("gtc{micell=60}", build("gtc"), map[string]int64{"micell": 60}))
	files, err := filepath.Glob(filepath.Join("..", "..", "programs", "*.loop"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no .loop programs found: %v", err)
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err := lang.Parse(string(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, finalize(filepath.Base(f), prog, nil))
	}
	return out
}

// TestRankingMatchesFullHierarchyEstimate: the ranking's own estimate
// covers the ranked level only, and ranks exactly as an estimate of the
// whole hierarchy does. For each program and hierarchy, the full
// estimate and its report are built once and handed in at every level;
// the ranking given only the dependence analysis, and the checker's
// opportunities, must be identical to that.
func TestRankingMatchesFullHierarchyEstimate(t *testing.T) {
	hiers := []*cache.Hierarchy{cache.ScaledItanium2(), cache.Itanium2(), cache.Opteron()}
	for _, p := range rankingPrograms(t) {
		deps := depend.Analyze(p.info, p.params)
		for _, hier := range hiers {
			t.Run(p.name+"/"+hier.Name, func(t *testing.T) {
				est, err := staticreuse.Estimate(p.info, hier, staticreuse.Options{Params: p.params, HistRes: histo.DefaultResolution})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := metrics.Build(p.info, est.Collector, est.Static, hier, metrics.SetAssoc)
				if err != nil {
					t.Fatal(err)
				}
				for _, lvl := range hier.Levels {
					opts := reusecheck.Options{Params: p.params, Hier: hier, Level: lvl.Name}
					want := reusecheck.Opportunities(p.info, reusecheck.Analyses{Deps: deps, Estimate: est, Report: rep}, opts)
					if got := reusecheck.Opportunities(p.info, reusecheck.Analyses{Deps: deps}, opts); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: the ranking's own estimate ranks\n%v\nthe full hierarchy's ranks\n%v", lvl.Name, got, want)
					}
					var checked []reusecheck.Diagnostic
					for _, d := range reusecheck.Check(p.info, opts) {
						if d.Severity == reusecheck.SevOpportunity {
							checked = append(checked, d)
						}
					}
					if !reflect.DeepEqual(checked, want) {
						t.Errorf("%s: the checker ranks\n%v\nthe full hierarchy's estimate ranks\n%v", lvl.Name, checked, want)
					}
				}
			})
		}
	}
}
