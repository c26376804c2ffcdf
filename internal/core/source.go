package core

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"reusetool/internal/cachesim"
	"reusetool/internal/depend"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/metrics"
	"reusetool/internal/pipeline"
	"reusetool/internal/reusecheck"
	"reusetool/internal/reusedist"
	"reusetool/internal/staticanalysis"
	"reusetool/internal/staticreuse"
	"reusetool/internal/trace"
	"reusetool/internal/tracefile"
)

// Source is where a Pipeline gets its reuse data from. The four
// implementations cover the toolkit's ingestion modes:
//
//   - DynamicSource: instrumented execution of an IR program (the
//     paper's Section II event stream);
//   - StaticSource: symbolic prediction from the IR, no execution;
//   - SavedSource: previously collected reuse-distance data (collect
//     once, predict for many cache configurations);
//   - TraceSource: a recorded event trace in the tracefile format (the
//     seam for traces produced outside this library).
//
// The interface is sealed: each source's unexported run method is the
// pipeline for that mode. A pointer to any of the four is a Source too.
type Source interface {
	run(ctx context.Context, p Pipeline) (*Result, error)
}

// DynamicSource executes a program under instrumentation. Exactly one of
// Prog and Info must be set; Prog is finalized internally.
type DynamicSource struct {
	Prog *ir.Program
	Info *ir.Info
	// Init fills data arrays before execution (see interp.WithInit).
	Init func(*interp.Machine) error
}

// StaticSource predicts reuse symbolically from the IR without running
// the interpreter (internal/staticreuse). Exactly one of Prog and Info
// must be set.
type StaticSource struct {
	Prog *ir.Program
	Info *ir.Info
}

// SavedSource rebuilds a report from previously collected reuse-distance
// data (see internal/persist): no instrumented run happens; the static
// analysis and miss predictions are recomputed against the pipeline's
// hierarchy — which may differ from the collection-time machine as long
// as the block-size granularities match.
type SavedSource struct {
	Prog *ir.Program
	Info *ir.Info
	// Collector holds the restored reuse-distance data.
	Collector *reusedist.Collector
	// Trips supplies average loop trip counts for the fragmentation
	// analysis; nil means a constant 1.
	Trips staticanalysis.Trips
}

// TraceSource replays a recorded trace in the tracefile text format. The
// report is built against the scope tree recovered from the trace
// header; there is no IR, so the fragmentation analysis is skipped and
// Result.Info is nil (the program structure is Result.Report.Source).
type TraceSource struct {
	R io.Reader
}

// Pipeline is the single entry point of the toolkit: a Source feeding
// the reuse-distance engines, the cache models and the report builder,
// configured by Options.
//
//	res, err := core.Pipeline{
//	    Source:  core.DynamicSource{Prog: prog},
//	    Options: core.Options{Simulate: true, Parallel: true},
//	}.Run()
type Pipeline struct {
	Source Source
	Options
}

// Run executes the pipeline and builds the full Result. It is the
// no-context convenience entry point; use RunContext to bound the run.
//
//reuse:ctx-root
func (p Pipeline) Run() (*Result, error) {
	return p.RunContext(context.Background())
}

// RunContext is Run under a context: a canceled or expired ctx aborts
// the analysis promptly — the interpreter stops within one access batch
// (see interp.RunContext) and the stage boundaries between ingestion,
// the static analyses and the report build are also checkpoints. The
// returned error wraps ctx.Err(), so callers can errors.Is it against
// context.Canceled / context.DeadlineExceeded.
func (p Pipeline) RunContext(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if p.Source == nil {
		return nil, fmt.Errorf("core: pipeline has no source")
	}
	return p.Source.run(ctx, p)
}

// finalized resolves the prog-or-info pair every IR-backed source
// carries.
func finalized(prog *ir.Program, info *ir.Info) (*ir.Info, error) {
	switch {
	case info != nil && prog != nil:
		return nil, fmt.Errorf("core: source has both Prog and Info; set exactly one")
	case info != nil:
		return info, nil
	case prog != nil:
		info, err := prog.Finalize()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		return info, nil
	}
	return nil, fmt.Errorf("core: source has neither Prog nor Info")
}

// newCollector builds the per-granularity engine set for the target
// hierarchy. footprint (bytes spanned by the laid-out arrays, 0 if
// unknown) and the finalized IR feed the engines' capacity hints, so the
// block tables, tree windows and per-ref/per-scope tables are sized once
// up front instead of growing on the per-access path.
func (p Pipeline) newCollector(info *ir.Info, footprint uint64) *reusedist.Collector {
	base := reusedist.Config{HistRes: p.HistRes, Sampling: p.Sampling}
	base.Hints.FootprintBytes = footprint
	if info != nil {
		base.Hints.Refs = len(info.Refs)
		base.Hints.Scopes = info.Scopes.Len()
	}
	return reusedist.NewCollectorWith(p.hierarchy().Granularities(), base)
}

// fanOut wires the consumer set into a single trace.Handler. With
// Options.Parallel, more than one consumer and more than one CPU
// (GOMAXPROCS) it builds a pipeline.Fanout — every consumer drains its
// own bounded ring on a dedicated goroutine, which is bit-identical to
// the sequential path because each consumer still sees the exact ordered
// stream. Otherwise it returns the sequential reference path: the
// consumers invoked inline (via trace.Multi when there are several); on
// one CPU the goroutines could only take turns, so a Fanout would be
// pure overhead. The returned close function must be called after the
// producer finishes; it joins the consumer goroutines and surfaces the
// first consumer error.
//
// In parallel mode a Collector is split into its per-granularity
// engines, so a 3-granularity hierarchy overlaps its three O(log M)
// tree updates instead of paying them serially per event.
func (p Pipeline) fanOut(consumers ...trace.Handler) (trace.Handler, func() error) {
	noop := func() error { return nil }
	parallel := p.Parallel && runtime.GOMAXPROCS(0) > 1
	flat := make([]trace.Handler, 0, len(consumers)+2)
	for _, h := range consumers {
		if h == nil {
			continue
		}
		if col, ok := h.(*reusedist.Collector); ok && parallel {
			for _, e := range col.Engines {
				flat = append(flat, e)
			}
			continue
		}
		flat = append(flat, h)
	}
	switch {
	case len(flat) == 0:
		return trace.Discard{}, noop
	case len(flat) == 1:
		return flat[0], noop
	case parallel:
		f := pipeline.NewFanout(flat...)
		return f, f.Close
	}
	return trace.Multi(flat), noop
}

// stream runs produce into the consumers, wired by fanOut, and joins the
// consumers on every exit path — a panicking producer included, so a
// recovered panic leaves no consumer goroutine parked on its ring. It
// returns produce's error, else the first consumer error.
func (p Pipeline) stream(produce func(trace.Handler) error, consumers ...trace.Handler) (err error) {
	handler, join := p.fanOut(consumers...)
	defer func() {
		if jerr := join(); err == nil {
			err = jerr
		}
	}()
	return produce(handler)
}

// checkpoint reports the context's error at a stage boundary, wrapped
// for core callers.
func checkpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

func (s DynamicSource) run(ctx context.Context, p Pipeline) (*Result, error) {
	info, err := finalized(s.Prog, s.Info)
	if err != nil {
		return nil, err
	}
	if err := p.Sampling.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	hier := p.hierarchy()

	var col *reusedist.Collector
	if !p.SimulateOnly {
		var footprint uint64
		if m, err := interp.Layout(info, p.Params); err == nil {
			footprint = m.DataFootprint()
		}
		col = p.newCollector(info, footprint)
	}
	var sim *cachesim.Sim
	if p.Simulate || p.SimulateOnly {
		sim = cachesim.New(hier)
	}
	var consumers []trace.Handler
	if col != nil {
		consumers = append(consumers, col)
	}
	if sim != nil {
		consumers = append(consumers, sim)
	}
	if p.Tee != nil {
		consumers = append(consumers, p.Tee)
	}
	var runOpts []interp.Option
	if s.Init != nil {
		runOpts = append(runOpts, interp.WithInit(s.Init))
	}
	var run *interp.Result
	if err := p.stream(func(h trace.Handler) (err error) {
		run, err = interp.RunContext(ctx, info, p.Params, h, runOpts...)
		return err
	}, consumers...); err != nil {
		return nil, fmt.Errorf("core: run: %w", err)
	}

	res := &Result{Info: info, Hier: hier, Run: run, Sim: sim, Params: p.Params}
	if p.SimulateOnly {
		return res, nil
	}
	if err := checkpoint(ctx); err != nil {
		return nil, err
	}
	// Apply the sampled engines' report-time rate scaling before anything
	// reads counts (metrics, persist, fingerprints). No-op when exact.
	col.Finish()
	static := staticanalysis.Analyze(info, run.Machine, staticanalysis.TripsFromRun(run, 1))
	rep, err := metrics.Build(info, col, static, hier, p.Model)
	if err != nil {
		return nil, fmt.Errorf("core: metrics: %w", err)
	}
	res.Report, res.Static, res.Collector = rep, static, col
	res.Deps = depend.Analyze(info, p.Params)
	return res, nil
}

func (s StaticSource) run(ctx context.Context, p Pipeline) (*Result, error) {
	info, err := finalized(s.Prog, s.Info)
	if err != nil {
		return nil, err
	}
	if p.Sampling.Enabled() {
		return nil, fmt.Errorf("core: static analysis does not sample; disable the sampling config")
	}
	hier := p.hierarchy()
	est, err := staticreuse.Estimate(info, hier, staticreuse.Options{
		Params:  p.Params,
		HistRes: p.HistRes,
	})
	if err != nil {
		return nil, fmt.Errorf("core: static: %w", err)
	}
	if err := checkpoint(ctx); err != nil {
		return nil, err
	}
	rep, err := metrics.Build(info, est.Collector, est.Static, hier, p.Model)
	if err != nil {
		return nil, fmt.Errorf("core: metrics: %w", err)
	}
	res := &Result{
		Info:      info,
		Hier:      hier,
		Report:    rep,
		Static:    est.Static,
		Collector: est.Collector,
		Deps:      depend.Analyze(info, p.Params),
		Params:    p.Params,
	}
	if reusecheck.RanksWith(p.HistRes, p.Model) {
		res.estimate = est
	}
	return res, nil
}

func (s SavedSource) run(ctx context.Context, p Pipeline) (*Result, error) {
	info, err := finalized(s.Prog, s.Info)
	if err != nil {
		return nil, err
	}
	if s.Collector == nil {
		return nil, fmt.Errorf("core: saved source has no collector")
	}
	if p.Sampling.Enabled() {
		return nil, fmt.Errorf("core: saved data was collected with its own sampling config; disable the sampling option")
	}
	hier := p.hierarchy()
	mach, err := interp.Layout(info, p.Params)
	if err != nil {
		return nil, fmt.Errorf("core: layout: %w", err)
	}
	trips := s.Trips
	if trips == nil {
		trips = staticanalysis.ConstTrips(1)
	}
	if err := checkpoint(ctx); err != nil {
		return nil, err
	}
	static := staticanalysis.Analyze(info, mach, trips)
	rep, err := metrics.Build(info, s.Collector, static, hier, p.Model)
	if err != nil {
		return nil, fmt.Errorf("core: metrics: %w", err)
	}
	return &Result{
		Info:      info,
		Hier:      hier,
		Report:    rep,
		Static:    static,
		Collector: s.Collector,
		Deps:      depend.Analyze(info, p.Params),
		Params:    p.Params,
	}, nil
}

func (s TraceSource) run(ctx context.Context, p Pipeline) (*Result, error) {
	if s.R == nil {
		return nil, fmt.Errorf("core: trace source has no reader")
	}
	if err := p.Sampling.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	hier := p.hierarchy()
	col := p.newCollector(nil, 0)
	var sim *cachesim.Sim
	if p.Simulate || p.SimulateOnly {
		sim = cachesim.New(hier)
	}
	consumers := []trace.Handler{col}
	if sim != nil {
		consumers = append(consumers, sim)
	}
	if p.Tee != nil {
		consumers = append(consumers, p.Tee)
	}
	var meta *tracefile.Meta
	if err := p.stream(func(h trace.Handler) (err error) {
		meta, err = tracefile.Read(s.R, h)
		return err
	}, consumers...); err != nil {
		return nil, fmt.Errorf("core: trace: %w", err)
	}
	res := &Result{Hier: hier, Sim: sim}
	if p.SimulateOnly {
		return res, nil
	}
	if err := checkpoint(ctx); err != nil {
		return nil, err
	}
	col.Finish()
	rep, err := metrics.Build(meta, col, nil, hier, p.Model)
	if err != nil {
		return nil, fmt.Errorf("core: metrics: %w", err)
	}
	res.Report, res.Collector = rep, col
	return res, nil
}
