// Package core is the top-level façade of the reuse-distance analysis
// toolkit: it wires the workload interpreter, the online reuse-distance
// engines, the static fragmentation analysis, the cache models, and the
// metric/advice computation behind one entry point:
//
//	res, err := core.Pipeline{Source: core.DynamicSource{Prog: prog}}.Run()
//
// The Source selects where reuse data comes from — instrumented
// execution (DynamicSource), symbolic prediction from the IR
// (StaticSource), previously persisted histograms (SavedSource), or a
// recorded event trace (TraceSource) — and Options selects the target
// machine, the miss model, and whether the event stream fans out to the
// consumers in parallel (see internal/pipeline).
//
// Each source runs its own pipeline, and a pointer to a source works as
// well as the value. A dynamic run's data-array initializer travels in
// DynamicSource.Init.
package core

import (
	"fmt"
	"io"
	"maps"

	"reusetool/internal/advise"
	"reusetool/internal/cache"
	"reusetool/internal/cachesim"
	"reusetool/internal/depend"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/metrics"
	"reusetool/internal/reusecheck"
	"reusetool/internal/reusedist"
	"reusetool/internal/sampling"
	"reusetool/internal/staticanalysis"
	"reusetool/internal/staticreuse"
	"reusetool/internal/timing"
	"reusetool/internal/trace"
	"reusetool/internal/viewer"
	"reusetool/internal/xmlout"
)

// Options configures an analysis.
type Options struct {
	// Hierarchy is the target machine; nil selects cache.ScaledItanium2.
	Hierarchy *cache.Hierarchy
	// Params override program parameter defaults.
	Params map[string]int64
	// Model selects the histogram-to-miss conversion (default SetAssoc,
	// the paper's predictor).
	Model metrics.Model
	// HistRes overrides the histogram resolution (0 = default).
	HistRes int
	// Simulate additionally runs the execution-driven cache simulator on
	// the same trace (for prediction-vs-simulation comparisons).
	Simulate bool
	// SimulateOnly runs only the cache simulator: reuse-distance
	// collection, the static analysis and the report are skipped
	// (Result.Report, .Static and .Collector are nil). This is the
	// order-of-magnitude-faster path the Figure 8/11 parameter sweeps
	// use.
	SimulateOnly bool
	// Parallel fans the event stream out to the consumers — each
	// per-granularity reuse-distance engine, the simulator, the Tee — on
	// dedicated goroutines with bounded ring buffers instead of invoking
	// them inline (see internal/pipeline). Results are bit-identical to
	// the sequential path; only wall-clock time changes. It has no
	// effect when GOMAXPROCS is 1.
	Parallel bool
	// Sampling selects SHARDS-style spatial sampling of the block stream
	// (see internal/sampling): the reuse-distance engines admit ~1/Rate
	// of all memory blocks and report scaled estimates, bounding memory
	// and per-access cost on huge traces. The zero value analyzes
	// exactly. Only dynamic and trace sources sample; static and saved
	// sources reject an enabled config.
	Sampling sampling.Config
	// Tee, when non-nil, additionally receives the raw event stream
	// (e.g. a tracefile.Writer recording the run).
	Tee trace.Handler
}

func (o *Options) hierarchy() *cache.Hierarchy {
	if o.Hierarchy != nil {
		return o.Hierarchy
	}
	return cache.ScaledItanium2()
}

// Result bundles everything one analysis produces. Fields are nil when
// the source or options exclude them: Info is nil for TraceSource (the
// recovered program structure is Report.Source); Report, Static and
// Collector are nil with Options.SimulateOnly; Sim is nil unless
// simulation ran; Run is nil unless a program executed.
type Result struct {
	Info      *ir.Info
	Hier      *cache.Hierarchy
	Report    *metrics.Report
	Static    *staticanalysis.Result
	Collector *reusedist.Collector
	Run       *interp.Result
	Sim       *cachesim.Sim
	// Deps is the symbolic dependence analysis of the program; the
	// advice and summary writers use it to gate each recommendation on
	// legality. Nil for trace-only sources (no IR to analyze).
	Deps *depend.Analysis
	// Params are the parameter overrides the result was built with,
	// so the summary's static-opportunity section checks the same
	// program instance that was measured.
	Params map[string]int64

	// estimate is a static request's own estimate, kept when Report is
	// exactly the report the opportunity ranking would rebuild from it
	// (reusecheck.RanksWith), so the ranking reuses both instead of
	// estimating the program again.
	estimate *staticreuse.Result
}

// Misses reports total simulated misses at a level; it requires a
// Result whose options ran the simulator.
func (r *Result) Misses(level string) uint64 { return r.Sim.Misses(level) }

// Cycles evaluates the timing model on the simulated miss counts; it
// requires a Result from an executed program with simulation on.
func (r *Result) Cycles(nonStallScale float64) timing.Breakdown {
	m := timing.New(r.Hier)
	misses := map[string]float64{}
	for _, l := range r.Hier.Levels {
		misses[l.Name] = float64(r.Sim.Misses(l.Name))
	}
	return m.Cycles(r.Run.Accesses, misses, nonStallScale)
}

// Advice returns ranked Table I recommendations for one level, each
// legality-gated by the dependence analysis when one is available.
func (r *Result) Advice(level string, minShare float64) []advise.Recommendation {
	return advise.AdviseWith(r.Report, r.Deps, level, minShare)
}

// Opportunities runs the static reuse checker's opportunity detectors
// over the analyzed program and returns their diagnostics (hoistable
// invariant loads, redundant region re-sweeps, layout mismatches) as
// ranked advice items at one level. params must match the parameter
// overrides the result was built with; Share is computed against the
// level's total misses from this result's report. When params equal
// the result's own, the ranking reuses the result's dependence analysis,
// and a static result's own estimate where it has one.
func (r *Result) Opportunities(level string, params map[string]int64) []advise.Recommendation {
	if r.Info == nil {
		return nil
	}
	var given reusecheck.Analyses
	if maps.Equal(params, r.Params) {
		given.Deps = r.Deps
		if r.estimate != nil {
			given.Estimate, given.Report = r.estimate, r.Report
		}
	}
	diags := reusecheck.Opportunities(r.Info, given, reusecheck.Options{
		Params: params,
		Hier:   r.Hier,
		Level:  level,
	})
	total := 0.0
	if r.Report != nil {
		if lr := r.Report.Level(level); lr != nil {
			total = lr.TotalMisses
		}
	}
	return advise.Opportunities(diags, total)
}

// xmlAdviceShare bounds the recommendations exported to XML to the same
// default share the CLI uses.
const xmlAdviceShare = 0.05

// WriteXML serializes the report in the hpcviewer-style XML format,
// including the legality-gated Advice section when dependences were
// analyzed.
func (r *Result) WriteXML(w io.Writer) error {
	data, err := xmlout.MarshalWith(r.Report, r.Deps, xmlAdviceShare)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteSummary renders the standard text views (scope tree, carried
// misses, patterns, fragmentation, advice) for one level, followed by
// the static reuse checker's ranked opportunities when it finds any.
func (r *Result) WriteSummary(w io.Writer, level string, minShare float64) error {
	if err := viewer.SummaryWith(w, r.Report, r.Deps, level, minShare); err != nil {
		return err
	}
	recs := r.Opportunities(level, r.Params)
	if len(recs) > 0 {
		fmt.Fprintf(w, "\nStatic reuse opportunities (reusecheck, ranked by predicted %s miss reduction):\n", level)
		for i, rec := range recs {
			fmt.Fprintf(w, "%2d. [%s, %s] saves ~%.0f misses: %s\n", i+1, rec.Kind, rec.Legality, rec.Misses, rec.Rationale)
			if rec.LegalityNote != "" {
				fmt.Fprintf(w, "      legality: %s\n", rec.LegalityNote)
			}
		}
	}
	r.writeSampleFooter(w)
	return nil
}

// writeSampleFooter appends the sampling disclosure when any engine of
// the result sampled: the effective rate, the admitted block count and
// a rough relative-error estimate per granularity. Exact results write
// nothing, so existing report goldens are unaffected.
func (r *Result) writeSampleFooter(w io.Writer) {
	if r.Collector == nil {
		return
	}
	any, infos := r.Collector.Sampled()
	if !any {
		return
	}
	fmt.Fprintf(w, "\nSampling: SHARDS spatial sampling was in effect; all counts above are scaled estimates.\n")
	for i, info := range infos {
		if !info.Enabled {
			continue
		}
		g := r.Collector.Grans[i]
		mode := "fixed"
		if info.Adaptive {
			mode = fmt.Sprintf("adaptive, max %d blocks", info.MaxBlocks)
		}
		fmt.Fprintf(w, "  %-10s rate 1/%d (%s), %d blocks admitted, %d sampled arcs, est. rel. error ~%.1f%%\n",
			g.Name+":", info.Rate, mode, info.AdmittedBlocks, info.Arcs, 100*info.ErrEstimate())
	}
}
