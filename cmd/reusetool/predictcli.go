package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/predict"
	"reusetool/internal/sampling"
	"reusetool/pkg/client"
)

// trainList collects repeated -train flags. Each occurrence is one
// training binding: a comma-separated name=value list, e.g.
// -train N=64 -train N=96 or -train "it=8,jt=8,kt=4".
type trainList []map[string]int64

func (t *trainList) String() string {
	var b strings.Builder
	for i, binding := range *t {
		if i > 0 {
			b.WriteString(" ")
		}
		names := make([]string, 0, len(binding))
		for name := range binding {
			names = append(names, name)
		}
		sort.Strings(names)
		for j, name := range names {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%s=%d", name, binding[name])
		}
	}
	return b.String()
}

func (t *trainList) Set(s string) error {
	binding := map[string]int64{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("expected name=value[,name=value...], got %q", s)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return err
		}
		binding[k] = n
	}
	if len(binding) == 0 {
		return fmt.Errorf("empty training binding %q", s)
	}
	*t = append(*t, binding)
	return nil
}

// fitCLI bundles the -fit/-predict mode inputs.
type fitCLI struct {
	workload  string
	progFile  string
	train     []map[string]int64
	params    map[string]int64
	modelPath string
	level     string
	full      bool
	sampling  sampling.Config
	predict   bool // -predict: also reconstruct a report at -param
}

func (cfg fitCLI) hierName() string {
	if cfg.full {
		return "full"
	}
	return "scaled"
}

func (cfg fitCLI) hier() *cache.Hierarchy {
	if cfg.full {
		return cache.Itanium2()
	}
	return cache.ScaledItanium2()
}

// build loads a fresh program per training run — a finalized program
// cannot be reused across pipelines.
func (cfg fitCLI) build() (*ir.Program, func(*interp.Machine) error, error) {
	if cfg.progFile != "" {
		return loadProgramFile(cfg.progFile)
	}
	return buildWorkload(cfg.workload)
}

// runFitPredict is the -fit/-predict mode: execute the small training
// runs, fit the cross-input scaling model, and (with -predict)
// reconstruct the predicted report for the -param binding. With
// -predict -model the model is loaded from the file instead of fitted;
// with -fit -model the fitted model is saved to it.
func runFitPredict(ctx context.Context, out, errw io.Writer, cfg fitCLI) int {
	// The soundness gate: scaled estimates from R>1 or adaptive sampling
	// would be fitted as if they were measurements.
	if cfg.sampling.Rate > 1 || cfg.sampling.MaxBlocks > 0 {
		fmt.Fprintf(errw, "unsound_training_input: %v (got -sample-rate %d, -sample-max-blocks %d)\n",
			predict.ErrUnsoundTraining, cfg.sampling.Rate, cfg.sampling.MaxBlocks)
		return 2
	}
	if hier := cfg.hier(); cfg.predict && hier.Level(cfg.level) == nil {
		fmt.Fprintf(errw, "unknown level %q\n", cfg.level)
		return 2
	}

	var m *predict.Model
	if cfg.predict && cfg.modelPath != "" {
		data, err := os.ReadFile(cfg.modelPath)
		if err != nil {
			fmt.Fprintln(errw, err)
			return 2
		}
		if m, err = predict.Decode(data); err != nil {
			fmt.Fprintf(errw, "%s: %v\n", cfg.modelPath, err)
			return 1
		}
	} else {
		var code int
		if m, code = fitFromRuns(ctx, errw, cfg); m == nil {
			return code
		}
		if !cfg.predict && cfg.modelPath != "" {
			data, err := predict.Encode(m)
			if err != nil {
				fmt.Fprintln(errw, err)
				return 1
			}
			if err := os.WriteFile(cfg.modelPath, data, 0o644); err != nil {
				fmt.Fprintln(errw, err)
				return 1
			}
			fmt.Fprintf(errw, "model saved to %s\n", cfg.modelPath)
		}
	}

	m.WriteSummary(out)
	if !cfg.predict {
		return 0
	}

	pred, err := m.Predict(cfg.params)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	hier, err := cache.ByName(m.Hierarchy)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	if hier.Level(cfg.level) == nil {
		fmt.Fprintf(errw, "model hierarchy %s has no level %q\n", m.Hierarchy, cfg.level)
		return 2
	}
	fmt.Fprintln(out)
	m.WriteReport(out, pred, hier, cfg.level)
	return 0
}

// fitFromRuns executes the -train bindings and fits the model. Returns
// nil plus the exit code on failure.
func fitFromRuns(ctx context.Context, errw io.Writer, cfg fitCLI) (*predict.Model, int) {
	if len(cfg.train) < 2 {
		fmt.Fprintf(errw, "need at least 2 -train bindings to fit (3-5 recommended), got %d\n", len(cfg.train))
		return nil, 2
	}
	runs := make([]*predict.TrainingRun, len(cfg.train))
	for i, binding := range cfg.train {
		prog, init, err := cfg.build()
		if err != nil {
			fmt.Fprintln(errw, err)
			return nil, 2
		}
		if err := checkParams(prog, binding); err != nil {
			fmt.Fprintf(errw, "-train binding %d: %v\n", i, err)
			return nil, 2
		}
		res, err := core.Pipeline{
			Source:  core.DynamicSource{Prog: prog, Init: init},
			Options: core.Options{Hierarchy: cfg.hier(), Params: binding, Parallel: true, Sampling: cfg.sampling},
		}.RunContext(ctx)
		if err != nil {
			fmt.Fprintf(errw, "training run %d: %v\n", i, err)
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return nil, 3
			}
			return nil, 1
		}
		if runs[i], err = res.TrainingRun(); err != nil {
			fmt.Fprintf(errw, "training run %d: %v\n", i, err)
			return nil, 1
		}
	}
	prog, _, err := cfg.build()
	if err != nil {
		fmt.Fprintln(errw, err)
		return nil, 2
	}
	info, err := prog.Finalize()
	if err != nil {
		fmt.Fprintln(errw, err)
		return nil, 1
	}
	m, err := predict.Fit(info, runs, predict.FitOptions{HierName: cfg.hierName()})
	if err != nil {
		if errors.Is(err, predict.ErrUnsoundTraining) {
			fmt.Fprintf(errw, "unsound_training_input: %v\n", err)
			return nil, 2
		}
		fmt.Fprintln(errw, err)
		return nil, 1
	}
	return m, 0
}

// runRemoteFitPredict submits -fit/-predict to a daemon or coordinator.
// Fits go through the async job API; predictions are synchronous and
// answered from the daemon's cached model in microseconds.
func runRemoteFitPredict(ctx context.Context, base string, out, errw io.Writer, cfg fitCLI, timeoutMS int64) error {
	if cfg.modelPath != "" {
		return fmt.Errorf("-model applies to local fits; a remote fit stores the model in the daemon cache")
	}
	cl := client.New(base)
	hierarchy := ""
	if cfg.full {
		hierarchy = "full"
	}
	workload, program := cfg.workload, ""
	if cfg.progFile != "" {
		data, err := os.ReadFile(cfg.progFile)
		if err != nil {
			return err
		}
		workload, program = "", string(data)
	}

	if !cfg.predict {
		job, err := cl.Fit(ctx, client.FitRequest{
			Workload:    workload,
			Program:     program,
			TrainParams: cfg.train,
			Hierarchy:   hierarchy,
			TimeoutMS:   timeoutMS,
		})
		if err != nil {
			return err
		}
		return awaitRemote(ctx, cl, job, "fit job", "model ", out, errw)
	}

	resp, err := cl.Predict(ctx, client.PredictRequest{
		Workload:    workload,
		Program:     program,
		TrainParams: cfg.train,
		Hierarchy:   hierarchy,
		Params:      cfg.params,
		Level:       cfg.level,
	})
	if err != nil {
		return err
	}
	if _, err := io.WriteString(out, resp.Report); err != nil {
		return err
	}
	fmt.Fprintf(errw, "predicted in %.0f µs from model %.12s…\n", resp.ElapsedUS, resp.Model)
	return nil
}
