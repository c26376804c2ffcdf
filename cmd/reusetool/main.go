// Command reusetool analyzes a named workload with the reuse-distance
// toolkit and prints the paper's reports: the top-down scope tree, the
// carried-misses table, the reuse-pattern database, the fragmentation
// table, and Table I transformation advice — or the raw XML database.
//
// Usage:
//
//	reusetool -workload sweep3d [-level L2] [-xml] [-full]
//	          [-param N=16 -param micell=5 ...] [-parallel=false]
//	          [-save data.rd | -load data.rd]
//	          [-dump-trace run.trace | -from-trace run.trace]
//	          [-static | -static-validate]
//	          [-sample-rate 64] [-sample-max-blocks 1000000] [-sample-seed 7]
//	          [-timeout 30s]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	reusetool -check prog.loop [more.loop ...]
//	reusetool -check -workload gtc
//	reusetool -remote http://127.0.0.1:8375 -workload sweep3d
//
// -timeout bounds the whole analysis; when the deadline fires the run
// is abandoned mid-interpretation and the exit status is 3 (distinct
// from 1, analysis failure, and 2, usage errors).
//
// -remote submits the analysis to a running reusetoold daemon (see
// cmd/reusetoold) instead of executing it in-process: the client posts
// the workload name or .loop source to /v1/analyze, polls the job, and
// prints the daemon's report. Repeat submissions are served from the
// daemon's content-addressed cache without re-running the interpreter.
// -timeout applies end to end: it rides along as the job deadline and
// bounds the client-side poll.
//
// -cpuprofile and -memprofile write pprof profiles covering whatever the
// invocation does (any mode), for profiling the per-access hot path on a
// real workload:
//
//	reusetool -workload gtc -cpuprofile cpu.pprof > /dev/null
//	go tool pprof cpu.pprof
//
// -check runs the static checker (internal/reusecheck) instead of any
// analysis: it parses each .loop file (or builds the -workload/-program)
// and reports defects — provably out-of-bounds subscripts (oob),
// uninitialized data arrays (uninit-data), unused parameters
// (unused-param), provably empty loops (empty-loop), stores overwritten
// before any read (dead-store), provably constant guards (dead-guard) —
// and ranked reuse opportunities, each with a predicted miss reduction
// and a dependence-legality verdict: hoistable loop-invariant loads
// (invariant-load), regions re-swept by an outer loop
// (redundant-region), and access orders that fight the memory layout
// (layout-mismatch). Provable in-bounds accesses are reported as
// bounds-proved notes with -notes (always present in -json output).
// Diagnostics are deduplicated and sorted by file:line:code across all
// targets, so output is byte-reproducible.
//
// Checker exit codes:
//
//	0  clean (no defects or opportunities; notes do not count)
//	1  findings reported
//	2  usage or parse errors
//
// -check -json emits one machine-readable JSON object instead of text:
// {"findings": N, "diagnostics": [...]} with the same ordering.
//
// Workloads: fig1a, fig1b, fig2, stream, stencil, transpose, sweep3d,
// sweep3d-blk6, sweep3d-blk6ic, gtc, gtc-tuned.
//
// The flags select one of five analysis modes, resolved by a single
// mode table (see resolveMode): dynamic execution (the default),
// -static symbolic prediction, -load of saved reuse-distance data,
// -from-trace replay of a recorded event stream, and -static-validate
// which runs the dynamic and static pipelines side by side. Flags that
// require executing the workload (-save, -dump-trace, -cct, -parallel)
// conflict with modes that do not execute it; conflicts are reported in
// one consistent error listing the offending flags.
//
// -parallel (default on) fans the event stream out to the analysis
// consumers on dedicated goroutines (one per reuse-distance granularity,
// plus the simulator and trace recorder); results are bit-identical to
// -parallel=false, which keeps the sequential reference path. The
// training runs of -fit and -predict always fan out, so those modes
// refuse it.
//
// -sample-rate R enables SHARDS-style spatial sampling: roughly 1 in R
// memory blocks is analyzed and every reported count is a scaled
// estimate, cutting memory and per-access time by ~R on big traces.
// -sample-max-blocks additionally bounds the tracked blocks per engine,
// raising the rate adaptively as the cap fills so memory stays constant
// for arbitrarily long runs. Sampled reports end with a footer stating
// the effective rate, the admitted block count and an estimated relative
// error per granularity; -sample-rate 1 is bit-identical to an exact
// run. Sampling applies to the dynamic, -from-trace and -remote modes;
// it cannot be combined with -static, -static-validate, -load, or
// -check.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"reusetool/internal/cache"
	"reusetool/internal/cct"
	"reusetool/internal/core"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/persist"
	"reusetool/internal/reusecheck"
	"reusetool/internal/sampling"
	"reusetool/internal/trace"
	"reusetool/internal/tracefile"
	"reusetool/internal/viewer"
	"reusetool/internal/workloads"
	"reusetool/pkg/client"
)

type paramList map[string]int64

func (p paramList) String() string { return fmt.Sprintf("%v", map[string]int64(p)) }

func (p paramList) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected name=value, got %q", s)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return err
	}
	p[k] = n
	return nil
}

// Analysis modes. Each corresponds to one core.Source implementation
// (modeValidate runs two pipelines; modeDumpProgram runs none).
const (
	modeDynamic     = "dynamic"
	modeStatic      = "static"
	modeSaved       = "saved"
	modeTrace       = "trace"
	modeValidate    = "static-validate"
	modeDumpProgram = "dump-program"
	modeCheck       = "check"
	modeRemote      = "remote"
	modeFit         = "fit"
	modePredict     = "predict"
)

// modeTable maps flag combinations to an analysis mode. selector is the
// flag that picks the mode (unset for the default dynamic mode);
// rejects lists the flags the mode cannot be combined with, each with
// the reason rendered in the error. Selector flags are mutually
// exclusive with each other by construction.
var modeTable = []struct {
	selector string
	mode     string
	rejects  []string
	reason   string
}{
	{
		selector: "", mode: modeDynamic,
		rejects: []string{"json", "notes", "train", "model"},
		reason:  "-json/-notes shape the -check output; -train/-model belong to -fit and -predict",
	},
	{
		selector: "static", mode: modeStatic,
		rejects: []string{"save", "dump-trace", "cct", "parallel", "json", "notes", "train", "model", "sample-rate", "sample-max-blocks", "sample-seed"},
		reason:  "they require executing the workload or belong to another mode; the symbolic prediction cannot sample",
	},
	{
		selector: "static-validate", mode: modeValidate,
		rejects: []string{"save", "dump-trace", "cct", "xml", "compare", "json", "notes", "train", "model", "sample-rate", "sample-max-blocks", "sample-seed"},
		reason:  "the validation table is the only output of this mode, and the static side cannot sample",
	},
	{
		selector: "load", mode: modeSaved,
		rejects: []string{"save", "dump-trace", "cct", "parallel", "json", "notes", "train", "model", "sample-rate", "sample-max-blocks", "sample-seed"},
		reason:  "they require executing the workload, which -load skips, or belong to another mode; saved data keeps its collection-time sampling",
	},
	{
		selector: "from-trace", mode: modeTrace,
		rejects: []string{"workload", "program", "param", "save", "dump-trace", "cct", "compare", "json", "notes", "train", "model"},
		reason:  "the trace file replaces the workload",
	},
	{
		selector: "dump-program", mode: modeDumpProgram,
		rejects: []string{"save", "dump-trace", "cct", "parallel", "compare", "xml", "json", "notes", "train", "model", "sample-rate", "sample-max-blocks", "sample-seed"},
		reason:  "no analysis runs in this mode",
	},
	{
		selector: "check", mode: modeCheck,
		rejects: []string{"save", "dump-trace", "cct", "parallel", "compare", "xml", "train", "model", "sample-rate", "sample-max-blocks", "sample-seed"},
		reason:  "the checker runs no analysis",
	},
	{
		selector: "remote", mode: modeRemote,
		rejects: []string{"save", "dump-trace", "cct", "parallel", "compare", "xml", "json", "notes", "train", "model"},
		reason:  "the analysis runs on the daemon, which picks its own fan-out and serves the text and JSON reports only",
	},
	{
		selector: "fit", mode: modeFit,
		rejects: []string{"save", "dump-trace", "cct", "parallel", "compare", "xml", "json", "notes", "param", "level"},
		reason:  "fitting runs the -train bindings only, always fanned out; -param and -level shape the -predict report",
	},
	{
		selector: "predict", mode: modePredict,
		rejects: []string{"save", "dump-trace", "cct", "parallel", "compare", "xml", "json", "notes"},
		reason:  "prediction reconstructs the report from the fitted model without executing the workload; its training runs always fan out",
	},
}

// resolveMode maps the set of explicitly passed flags to one analysis
// mode. All conflicts are reported at once: either several mode
// selectors were combined, or the selected mode rejects some of the
// given flags.
func resolveMode(set map[string]bool) (string, error) {
	var selected []string
	entry := modeTable[0] // dynamic default
	for _, e := range modeTable[1:] {
		if set[e.selector] {
			selected = append(selected, "-"+e.selector)
			entry = e
		}
	}
	if len(selected) > 1 {
		return "", fmt.Errorf("conflicting flags: %s each select an analysis mode; choose one",
			strings.Join(selected, ", "))
	}
	var bad []string
	for _, f := range entry.rejects {
		if set[f] {
			bad = append(bad, "-"+f)
		}
	}
	if len(bad) > 0 {
		if entry.selector == "" {
			return "", fmt.Errorf("conflicting flags: %s apply to another mode only (%s)",
				strings.Join(bad, ", "), entry.reason)
		}
		return "", fmt.Errorf("conflicting flags: -%s cannot be combined with %s (%s)",
			entry.selector, strings.Join(bad, ", "), entry.reason)
	}
	if set["xml"] {
		for _, f := range xmlRejects {
			if set[f] {
				bad = append(bad, "-"+f)
			}
		}
		if len(bad) > 0 {
			return "", fmt.Errorf("conflicting flags: -xml cannot be combined with %s (the XML database is its only output; the call tree and the comparison print as text)",
				strings.Join(bad, ", "))
		}
	}
	return entry.mode, nil
}

// xmlRejects lists the flags -xml cannot be combined with in any mode
// that takes both: their output is text that would follow the report,
// and -xml prints the XML database alone.
var xmlRejects = []string{"cct", "compare"}

// main delegates to run so the profile-flushing defers execute before the
// process exits (os.Exit would skip them).
func main() {
	os.Exit(run())
}

func run() int {
	params := paramList{}
	var (
		workload = flag.String("workload", "fig1a", "built-in workload to analyze")
		progFile = flag.String("program", "", "analyze a .loop program file instead of a built-in workload")
		level    = flag.String("level", "L2", "cache level for the text reports")
		xmlOut   = flag.Bool("xml", false, "emit the XML database instead of text reports")
		full     = flag.Bool("full", false, "use the full-size Itanium2 hierarchy")
		share    = flag.Float64("minshare", 0.02, "minimum miss share for reported items")
		parallel = flag.Bool("parallel", true, "fan the event stream out to analysis consumers on dedicated goroutines (bit-identical to the sequential path)")
	)
	var (
		saveTo    = flag.String("save", "", "save collected reuse-distance data to this file")
		loadFrom  = flag.String("load", "", "reuse previously saved data instead of re-running the workload")
		dumpTrace = flag.String("dump-trace", "", "additionally record the event trace to this text file")
		fromTrace = flag.String("from-trace", "", "analyze a recorded trace file instead of a workload")
		cctOut    = flag.Bool("cct", false, "additionally print the calling-context tree of misses at -level, profiled on the analysis's own run")
		compareTo = flag.String("compare", "", "additionally compare against this workload's misses (e.g. sweep3d-blk6ic)")
		dumpProg  = flag.String("dump-program", "", "write the workload as a .loop program file and exit")
		static    = flag.Bool("static", false, "predict reports symbolically from the IR, without executing the workload")
		staticVal = flag.Bool("static-validate", false, "run both pipelines and print a per-reference static-vs-dynamic miss comparison at -level")
		check     = flag.Bool("check", false, "statically check .loop programs (positional args) or the -workload/-program, then exit")
		jsonOut   = flag.Bool("json", false, "with -check: emit machine-readable JSON diagnostics")
		notes     = flag.Bool("notes", false, "with -check: also print informational notes (bounds-proved)")
		remote    = flag.String("remote", "", "submit the analysis to a reusetoold daemon at this base URL instead of running it in-process")
		timeout   = flag.Duration("timeout", 0, "abandon the analysis after this long (exit status 3); 0 means no deadline")
	)
	train := trainList{}
	var (
		fitMode     = flag.Bool("fit", false, "fit a cross-input scaling model from the -train bindings and print its summary")
		predictMode = flag.Bool("predict", false, "predict the report at the -param binding from a fitted model (-model file, or fit from -train first)")
		modelPath   = flag.String("model", "", "with -fit: save the fitted model to this file; with -predict: load it from this file instead of fitting")
	)
	flag.Var(&train, "train", "training binding name=value[,name=value...]; repeat 3-5 times with -fit/-predict")
	var (
		sampleRate   = flag.Uint64("sample-rate", 0, "SHARDS spatial sampling rate R (power of two): admit ~1 in R memory blocks and report scaled estimates; 0 or 1 analyzes exactly")
		sampleBlocks = flag.Int("sample-max-blocks", 0, "bound tracked blocks per engine: the sampling rate adapts upward as the cap fills, so memory stays constant for any trace (0 = no cap)")
		sampleSeed   = flag.Uint64("sample-seed", 0, "sampling admission-hash seed (0 = the fixed default; same seed, same admitted blocks; needs -sample-rate or -sample-max-blocks)")
	)
	var (
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	)
	flag.Var(params, "param", "workload parameter override, name=value (repeatable)")
	flag.Parse()
	_ = *static
	_ = *staticVal
	_ = *check
	_ = *fitMode
	_ = *predictMode

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// -remote on its own selects the remote analysis mode; combined with
	// -fit or -predict it is a modifier (the daemon executes the fit).
	if set["fit"] || set["predict"] {
		delete(set, "remote")
	}
	mode, err := resolveMode(set)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	sampleCfg := sampling.Config{Rate: *sampleRate, MaxBlocks: *sampleBlocks, Seed: *sampleSeed}
	if err := sampleCfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if mode == modeCheck {
		hier := cache.ScaledItanium2()
		if *full {
			hier = cache.Itanium2()
		}
		return runCheck(os.Stdout, os.Stderr, flag.Args(), *workload, *progFile, params,
			checkConfig{hier: hier, level: *level, json: *jsonOut, notes: *notes})
	}

	// -timeout bounds everything past flag validation. The deadline
	// propagates through core.Pipeline into the interpreter, which stops
	// within one polling stride; the process then exits with status 3.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if mode == modeFit || mode == modePredict {
		cfg := fitCLI{
			workload:  *workload,
			progFile:  *progFile,
			train:     train,
			params:    params,
			modelPath: *modelPath,
			level:     *level,
			full:      *full,
			sampling:  sampleCfg,
			predict:   mode == modePredict,
		}
		if *remote != "" {
			if err := runRemoteFitPredict(ctx, *remote, os.Stdout, os.Stderr, cfg, timeout.Milliseconds()); err != nil {
				return fail(os.Stderr, err)
			}
			return 0
		}
		return runFitPredict(ctx, os.Stdout, os.Stderr, cfg)
	}

	if mode == modeRemote {
		req := client.AnalyzeRequest{
			Workload:        *workload,
			Params:          params,
			Level:           *level,
			MinShare:        *share,
			TimeoutMS:       timeout.Milliseconds(),
			SampleRate:      *sampleRate,
			SampleMaxBlocks: *sampleBlocks,
			SampleSeed:      *sampleSeed,
		}
		if *full {
			req.Hierarchy = "full"
		}
		if *progFile != "" {
			// The daemon parses and validates; the client ships raw source.
			data, err := os.ReadFile(*progFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			req.Workload, req.Program = "", string(data)
		}
		if err := runRemote(ctx, *remote, req, os.Stdout, os.Stderr); err != nil {
			return fail(os.Stderr, err)
		}
		return 0
	}

	hier := cache.ScaledItanium2()
	if *full {
		hier = cache.Itanium2()
	}
	opts := core.Options{Hierarchy: hier, Params: params, Parallel: *parallel, Sampling: sampleCfg}

	if mode == modeTrace {
		if err := analyzeTraceFile(ctx, *fromTrace, *level, *share, *xmlOut, opts); err != nil {
			return fail(os.Stderr, err)
		}
		return 0
	}

	var (
		prog *ir.Program
		init func(*interp.Machine) error
	)
	if *progFile != "" {
		prog, init, err = loadProgramFile(*progFile)
	} else {
		prog, init, err = buildWorkload(*workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := checkParams(prog, params); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if mode == modeDumpProgram {
		if err := os.WriteFile(*dumpProg, []byte(lang.Format(prog)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "program written to %s\n", *dumpProg)
		return 0
	}

	if mode == modeValidate {
		if err := staticValidate(ctx, prog, init, *level, opts); err != nil {
			return fail(os.Stderr, err)
		}
		return 0
	}

	var (
		res  *core.Result
		prof *cct.Profiler
	)
	switch mode {
	case modeSaved:
		res, err = analyzeSaved(ctx, prog, *loadFrom, opts)
	case modeStatic:
		res, err = core.Pipeline{Source: core.StaticSource{Prog: prog}, Options: opts}.RunContext(ctx)
	case modeDynamic:
		src := core.DynamicSource{Prog: prog, Init: init}
		finish := func(err error) error { return err }
		var tee trace.Multi
		// -cct profiles this run (resolveMode refuses it beside -xml).
		// Nothing is attached under an unknown -level, which the
		// summary reports.
		if lvl := hier.Level(*level); *cctOut && lvl != nil {
			prof = cct.NewProfiler(*lvl)
			tee = append(tee, prof)
		}
		if *dumpTrace != "" {
			// The trace writer needs the finalized info up front; reuse it
			// for the run.
			var info *ir.Info
			info, err = prog.Finalize()
			if err != nil {
				break
			}
			var w *tracefile.Writer
			w, finish, err = traceRecorder(*dumpTrace, info)
			if err != nil {
				break
			}
			tee = append(tee, w)
			src = core.DynamicSource{Info: info, Init: init}
		}
		if len(tee) > 0 {
			opts.Tee = tee
		}
		res, err = core.Pipeline{Source: src, Options: opts}.RunContext(ctx)
		err = finish(err)
	}
	if err != nil {
		return fail(os.Stderr, err)
	}

	if *saveTo != "" {
		if err := saveDataset(res, prog.Name, *saveTo); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "saved reuse-distance data to %s\n", *saveTo)
	}

	if *xmlOut {
		if err := res.WriteXML(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println()
		return 0
	}
	desc := ""
	if mode == modeStatic {
		desc = " (static prediction)"
	}
	fmt.Printf("workload %s on %s%s\n\n", prog.Name, hier.Name, desc)
	if err := res.WriteSummary(os.Stdout, *level, *share); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if prof != nil {
		fmt.Println()
		prof.Print(os.Stdout, res.Info.Scopes, *share)
	}
	if *compareTo != "" {
		fmt.Println()
		other, otherInit, err := buildWorkload(*compareTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		// The other side is analyzed as the main analysis is, sampling
		// included, so each column reads what a run of its workload
		// alone reads; only the tee stays with the main run.
		otherOpts := opts
		otherOpts.Tee = nil
		otherRes, err := core.Pipeline{
			Source:  core.DynamicSource{Prog: other, Init: otherInit},
			Options: otherOpts,
		}.RunContext(ctx)
		if err != nil {
			return fail(os.Stderr, err)
		}
		if err := viewer.Compare(os.Stdout, res.Report, otherRes.Report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// fail renders an analysis error on errw and picks the exit status: 3
// when the -timeout deadline killed the run, 1 for everything else.
// Typed API errors from -remote print their machine-readable code so
// scripted callers can branch on stderr.
func fail(errw io.Writer, err error) int {
	fmt.Fprintln(errw, describeRemoteError(err))
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return 3
	}
	return 1
}

// traceRecorder opens the -dump-trace tee. finish flushes and closes it,
// folding any write error into the run error.
func traceRecorder(path string, info *ir.Info) (*tracefile.Writer, func(error) error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w, err := tracefile.NewWriter(f, info, len(info.Refs))
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	finish := func(runErr error) error {
		if ferr := w.Flush(); ferr != nil && runErr == nil {
			runErr = ferr
		}
		if cerr := f.Close(); cerr != nil && runErr == nil {
			runErr = cerr
		}
		if runErr == nil {
			fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
		}
		return runErr
	}
	return w, finish, nil
}

// checkParams rejects -param overrides the program never reads.
func checkParams(prog *ir.Program, params map[string]int64) error {
	var bad []string
	for name := range params {
		if _, ok := prog.Defaults[name]; !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	valid := make([]string, 0, len(prog.Defaults))
	for name := range prog.Defaults {
		valid = append(valid, name)
	}
	sort.Strings(valid)
	if len(valid) == 0 {
		return fmt.Errorf("workload %s takes no parameters, but -param %s given",
			prog.Name, strings.Join(bad, ", "))
	}
	return fmt.Errorf("workload %s has no parameter %s (valid parameters: %s)",
		prog.Name, strings.Join(bad, ", "), strings.Join(valid, ", "))
}

// staticValidate runs the dynamic and the static pipeline on one workload
// and prints a per-reference miss comparison at the selected level.
func staticValidate(ctx context.Context, prog *ir.Program, init func(*interp.Machine) error, level string, opts core.Options) error {
	info, err := prog.Finalize()
	if err != nil {
		return err
	}
	dyn, err := core.Pipeline{Source: core.DynamicSource{Info: info, Init: init}, Options: opts}.RunContext(ctx)
	if err != nil {
		return err
	}
	st, err := core.Pipeline{Source: core.StaticSource{Info: info}, Options: opts}.RunContext(ctx)
	if err != nil {
		return err
	}
	dl, sl := dyn.Report.Level(level), st.Report.Level(level)
	if dl == nil || sl == nil {
		return fmt.Errorf("unknown level %q", level)
	}

	fmt.Printf("static vs dynamic %s misses, workload %s on %s\n\n", level, prog.Name, opts.Hierarchy.Name)
	fmt.Printf("  %-28s %12s %12s %8s\n", "reference", "dynamic", "static", "relerr")
	for _, ref := range info.Refs {
		name, arr, _ := info.RefLabel(ref.ID())
		d, s := dl.MissesByRef[ref.ID()], sl.MissesByRef[ref.ID()]
		if d == 0 && s == 0 {
			continue
		}
		fmt.Printf("  %-28s %12.0f %12.0f %8s\n", name+" ("+arr+")", d, s, relErrString(s, d))
	}
	fmt.Printf("  %-28s %12.0f %12.0f %8s\n", "TOTAL", dl.TotalMisses, sl.TotalMisses,
		relErrString(sl.TotalMisses, dl.TotalMisses))
	return nil
}

func relErrString(static, dynamic float64) string {
	if dynamic == 0 {
		if static == 0 {
			return "0%"
		}
		return "inf"
	}
	return fmt.Sprintf("%+.1f%%", (static-dynamic)/dynamic*100)
}

// saveDataset snapshots the collected data for later -load runs. The
// write is atomic (persist.SaveFile), so a concurrent -load of the same
// path never sees a torn stream.
func saveDataset(res *core.Result, program, path string) error {
	var trips map[trace.ScopeID]interp.TripStat
	if res.Run != nil {
		trips = res.Run.Trips
	}
	return persist.SaveFile(path, persist.Snapshot(res.Collector, program, trips))
}

// analyzeSaved rebuilds the report from a saved dataset (collect once,
// predict many).
func analyzeSaved(ctx context.Context, prog *ir.Program, path string, opts core.Options) (*core.Result, error) {
	d, err := persist.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return core.Pipeline{
		Source:  core.SavedSource{Prog: prog, Collector: d.Collector(), Trips: d.TripsFunc(1)},
		Options: opts,
	}.RunContext(ctx)
}

// analyzeTraceFile analyzes a recorded trace: the reuse-distance engines
// replay the events and a report is built against the recovered scope
// tree (no static fragmentation analysis — there is no IR to analyze).
func analyzeTraceFile(ctx context.Context, path, level string, share float64, xmlOut bool, opts core.Options) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := core.Pipeline{Source: core.TraceSource{R: f}, Options: opts}.RunContext(ctx)
	if err != nil {
		return err
	}
	if xmlOut {
		if err := res.WriteXML(os.Stdout); err != nil {
			return err
		}
		_, err := io.WriteString(os.Stdout, "\n")
		return err
	}
	fmt.Printf("trace %s on %s\n\n", res.Report.Source.Name(), opts.Hierarchy.Name)
	return res.WriteSummary(os.Stdout, level, share)
}

// checkConfig bundles the report-shaping options of the -check mode.
type checkConfig struct {
	hier  *cache.Hierarchy
	level string
	json  bool
	notes bool
}

// checkOutput is the -check -json document.
type checkOutput struct {
	Findings    int                     `json:"findings"`
	Diagnostics []reusecheck.Diagnostic `json:"diagnostics"`
}

// runCheck is the -check mode. Positional arguments name .loop files to
// check; with none, the -program file or -workload builds the target.
// Built-in workloads fill their data arrays from Go init code, so the
// uninitialized-data check is suppressed for them. Diagnostics from all
// targets are merged, deduplicated and sorted by file:line:code, so the
// output is byte-reproducible regardless of target order. Returns the
// process exit code: 0 clean, 1 findings, 2 usage/parse errors.
func runCheck(out, errw io.Writer, files []string, workload, progFile string,
	params map[string]int64, cfg checkConfig) int {
	if cfg.hier == nil {
		cfg.hier = cache.ScaledItanium2()
	}
	if cfg.level == "" {
		cfg.level = "L2"
	}
	if cfg.hier.Level(cfg.level) == nil {
		fmt.Fprintf(errw, "unknown level %q\n", cfg.level)
		return 2
	}
	type target struct {
		prog *ir.Program
		opts reusecheck.Options
	}
	if len(files) == 0 && progFile != "" {
		files = []string{progFile}
	}
	var targets []target
	if len(files) > 0 {
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(errw, err)
				return 2
			}
			prog, _, meta, err := lang.ParseFile(path, string(data))
			if err != nil {
				fmt.Fprintln(errw, err)
				return 2
			}
			targets = append(targets, target{prog: prog, opts: reusecheck.Options{
				Params:      params,
				Initialized: meta.Inited,
				ParamLines:  meta.ParamLines,
				File:        path,
			}})
		}
	} else {
		prog, init, err := buildWorkload(workload)
		if err != nil {
			fmt.Fprintln(errw, err)
			return 2
		}
		targets = append(targets, target{prog: prog, opts: reusecheck.Options{
			Params:            params,
			AssumeInitialized: init != nil,
		}})
	}

	all := []reusecheck.Diagnostic{}
	for _, t := range targets {
		info, err := t.prog.Finalize()
		if err != nil {
			fmt.Fprintln(errw, err)
			return 2
		}
		t.opts.Hier = cfg.hier
		t.opts.Level = cfg.level
		all = append(all, reusecheck.Check(info, t.opts)...)
	}
	all = reusecheck.Sort(all)
	findings := reusecheck.Findings(all)

	if cfg.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(checkOutput{Findings: findings, Diagnostics: all}); err != nil {
			fmt.Fprintln(errw, err)
			return 2
		}
	} else {
		for _, d := range all {
			if d.Severity == reusecheck.SevNote && !cfg.notes {
				continue
			}
			fmt.Fprintln(out, d)
		}
	}
	if findings > 0 {
		fmt.Fprintf(errw, "%d finding(s)\n", findings)
		return 1
	}
	return 0
}

// loadProgramFile parses a .loop program (see internal/lang).
func loadProgramFile(path string) (*ir.Program, func(*interp.Machine) error, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return lang.Parse(string(data))
}

// buildWorkload delegates to the shared registry so the CLI and the
// daemon accept exactly the same workload names.
func buildWorkload(name string) (*ir.Program, func(*interp.Machine) error, error) {
	return workloads.Build(name)
}
