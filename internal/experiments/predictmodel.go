package experiments

import (
	"fmt"
	"time"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/predict"
	"reusetool/internal/workloads"
)

// PredictModelErrBound is the documented accuracy contract of the
// cross-input scaling models: fitting from a handful of small exact
// runs predicts the level miss count of an input >= 16x larger within
// this relative error. `cmd/experiments -exp predict` asserts it on
// every case of PredictModelCases, and CI runs that command.
const PredictModelErrBound = 0.30

// predictRepeats is how many times the serving latency is sampled per
// workload; the fastest repetition is reported (same convention as the
// sampling suite).
const predictRepeats = 32

// PredictModelCase is one workload of the scaling-model suite: the
// small training bindings the model fits from and the much larger
// target binding it predicts.
type PredictModelCase struct {
	Workload string
	Train    []map[string]int64
	Target   map[string]int64
}

// PredictModelCases returns the full-suite configuration: every
// built-in workload, 3 training runs each, targets >= 16x the largest
// training size in the varying parameter.
func PredictModelCases() []PredictModelCase {
	n := func(vals ...int64) []map[string]int64 {
		out := make([]map[string]int64, len(vals))
		for i, v := range vals {
			out[i] = map[string]int64{"N": v}
		}
		return out
	}
	// Sweep3D varies the mesh depth kt on a fixed 8x8 footprint,
	// training at kt >= it+jt where the wavefront plane size has
	// saturated and the per-pattern masses and distances scale affinely
	// (below it the plane still grows with kt and extrapolation
	// overshoots); GTC varies the particles per cell on a fixed
	// 512-point grid.
	sweep := func(vals ...int64) []map[string]int64 {
		out := make([]map[string]int64, len(vals))
		for i, v := range vals {
			out[i] = map[string]int64{"it": 8, "jt": 8, "kt": v}
		}
		return out
	}
	gtc := func(vals ...int64) []map[string]int64 {
		out := make([]map[string]int64, len(vals))
		for i, v := range vals {
			out[i] = map[string]int64{"grid": 512, "micell": v}
		}
		return out
	}
	sweepTarget := map[string]int64{"it": 8, "jt": 8, "kt": 512}
	gtcTarget := map[string]int64{"grid": 512, "micell": 64}
	return []PredictModelCase{
		{"fig1a", n(32, 48, 64), map[string]int64{"N": 1024}},
		{"fig1b", n(32, 48, 64), map[string]int64{"N": 1024}},
		{"fig2", n(64, 96, 128), map[string]int64{"N": 2048}},
		{"stream", n(1024, 2048, 4096), map[string]int64{"N": 65536}},
		// stencil trains past the L2 capacity knee (the N=32 working set
		// still fits and would teach the model the wrong regime).
		{"stencil", n(48, 64, 96), map[string]int64{"N": 1536}},
		{"transpose", n(32, 48, 64), map[string]int64{"N": 1024}},
		{"sweep3d", sweep(16, 24, 32), sweepTarget},
		{"sweep3d-blk6", sweep(16, 24, 32), sweepTarget},
		{"sweep3d-blk6ic", sweep(16, 24, 32), sweepTarget},
		{"gtc", gtc(2, 3, 4), gtcTarget},
		{"gtc-tuned", gtc(2, 3, 4), gtcTarget},
	}
}

// PredictModelRow is one workload's result: the model's predicted miss
// count at the target binding against the exact pipeline's measurement,
// plus the fit cost and the serving latency.
type PredictModelRow struct {
	Workload string
	Train    []map[string]int64
	Target   map[string]int64
	// Scale is the target size over the largest training size in the
	// varying parameter (the acceptance floor is 16x).
	Scale float64
	// Predicted and Measured are the level's expected miss counts from
	// the model and from the exact run at the target binding.
	Predicted float64
	Measured  float64
	// RelErr is signed: (Predicted - Measured) / Measured.
	RelErr float64
	// FitMS is the wall time of the training runs plus the fit itself.
	FitMS float64
	// PredictUS is the fastest full Predict+LevelMisses reconstruction
	// over predictRepeats repetitions, in microseconds.
	PredictUS float64
}

// PredictModel fits a cross-input scaling model per case and compares
// its prediction at the target binding against the exact pipeline, for
// one cache level. hierName is the model's machine name ("scaled",
// "full") — the same names the v1 API uses.
func PredictModel(cases []PredictModelCase, level string, hier *cache.Hierarchy, hierName string) ([]PredictModelRow, error) {
	rows := make([]PredictModelRow, len(cases))
	err := forEachParallel(len(cases), func(i int) error {
		row, err := predictModelOne(cases[i], level, hier, hierName)
		if err != nil {
			return fmt.Errorf("%s: %w", cases[i].Workload, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func predictModelOne(c PredictModelCase, level string, hier *cache.Hierarchy, hierName string) (PredictModelRow, error) {
	row := PredictModelRow{
		Workload: c.Workload,
		Train:    c.Train,
		Target:   c.Target,
		Scale:    scaleFactor(c.Train, c.Target),
	}

	fitStart := time.Now()
	runs := make([]*predict.TrainingRun, len(c.Train))
	for i, binding := range c.Train {
		prog, init, err := workloads.Build(c.Workload)
		if err != nil {
			return row, err
		}
		res, err := core.Pipeline{
			Source:  core.DynamicSource{Prog: prog, Init: init},
			Options: core.Options{Hierarchy: hier, Params: binding},
		}.Run()
		if err != nil {
			return row, fmt.Errorf("training run %d: %w", i, err)
		}
		if runs[i], err = res.TrainingRun(); err != nil {
			return row, fmt.Errorf("training run %d: %w", i, err)
		}
	}
	prog, _, err := workloads.Build(c.Workload)
	if err != nil {
		return row, err
	}
	info, err := prog.Finalize()
	if err != nil {
		return row, err
	}
	m, err := predict.Fit(info, runs, predict.FitOptions{HierName: hierName})
	if err != nil {
		return row, err
	}
	row.FitMS = float64(time.Since(fitStart).Nanoseconds()) / 1e6

	// Serving: pure arithmetic over the fitted coefficients. Time the
	// full reconstruction (histograms plus the level miss model), keep
	// the fastest repetition.
	var pred *predict.Prediction
	for rep := 0; rep < predictRepeats; rep++ {
		start := time.Now()
		p, err := m.Predict(c.Target)
		if err != nil {
			return row, err
		}
		p.LevelMisses(hier)
		if us := float64(time.Since(start).Nanoseconds()) / 1e3; rep == 0 || us < row.PredictUS {
			row.PredictUS = us
		}
		pred = p
	}
	for _, lm := range pred.LevelMisses(hier) {
		if lm.Level == level {
			row.Predicted = lm.Total
		}
	}

	// Ground truth: the exact pipeline at the target binding.
	tprog, tinit, err := workloads.Build(c.Workload)
	if err != nil {
		return row, err
	}
	res, err := core.Pipeline{
		Source:  core.DynamicSource{Prog: tprog, Init: tinit},
		Options: core.Options{Hierarchy: hier, Params: c.Target},
	}.Run()
	if err != nil {
		return row, fmt.Errorf("exact run at target: %w", err)
	}
	lr := res.Report.Level(level)
	if lr == nil {
		return row, fmt.Errorf("no %s level in report", level)
	}
	row.Measured = lr.TotalMisses
	if row.Measured > 0 {
		row.RelErr = (row.Predicted - row.Measured) / row.Measured
	}
	return row, nil
}

// scaleFactor is the target size over the largest training size, taken
// over the parameters that actually vary across the training bindings.
func scaleFactor(train []map[string]int64, target map[string]int64) float64 {
	best := 1.0
	for name, tv := range target {
		var max int64
		vals := map[int64]bool{}
		for _, b := range train {
			if v, ok := b[name]; ok {
				vals[v] = true
				if v > max {
					max = v
				}
			}
		}
		if len(vals) < 2 || max <= 0 {
			continue
		}
		if r := float64(tv) / float64(max); r > best {
			best = r
		}
	}
	return best
}
