package experiments

import (
	"fmt"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/histo"
	"reusetool/internal/ir"
	"reusetool/internal/predict"
	"reusetool/internal/workloads"
)

// PredictRow compares a cross-input miss prediction against measurement.
type PredictRow struct {
	Mesh      int64
	Predicted float64
	Measured  float64
}

// RelErr is (predicted-measured)/measured.
func (r PredictRow) RelErr() float64 {
	if r.Measured == 0 {
		return 0
	}
	return (r.Predicted - r.Measured) / r.Measured
}

// PredictSweep3D implements the paper's cross-input modeling (Section II,
// ref [14]) with internal/predict: Sweep3D runs at the training mesh
// sizes (it = jt = kt = n) are fitted — per reuse pattern when perPattern
// is true, or with each granularity's patterns merged into one histogram
// otherwise — and the model predicts the miss count at unmeasured target
// sizes, which is then validated against an actual run. The paper argues
// the finer per-pattern granularity yields more accurate models.
func PredictSweep3D(train, targets []int64, levelName string, hier *cache.Hierarchy, perPattern bool) ([]PredictRow, error) {
	if len(train) < 2 {
		return nil, fmt.Errorf("need at least 2 training sizes")
	}
	if hier.Level(levelName) == nil {
		return nil, fmt.Errorf("unknown level %q", levelName)
	}
	prog, err := workloads.Sweep3D(workloads.DefaultSweep3D())
	if err != nil {
		return nil, err
	}
	info, err := prog.Finalize()
	if err != nil {
		return nil, err
	}

	runs := make([]*predict.TrainingRun, len(train))
	for i, n := range train {
		res, err := runSweep3D(info, n, hier)
		if err != nil {
			return nil, err
		}
		if runs[i], err = res.TrainingRun(); err != nil {
			return nil, err
		}
		if !perPattern {
			mergePatterns(runs[i])
		}
	}
	m, err := predict.Fit(info, runs, predict.FitOptions{})
	if err != nil {
		return nil, err
	}

	var rows []PredictRow
	for _, n := range targets {
		p, err := m.Predict(meshParams(n))
		if err != nil {
			return nil, err
		}
		row := PredictRow{Mesh: n}
		for _, lm := range p.LevelMisses(hier) {
			if lm.Level == levelName {
				row.Predicted = lm.Total
			}
		}
		res, err := runSweep3D(info, n, hier)
		if err != nil {
			return nil, err
		}
		row.Measured = res.Report.Level(levelName).TotalMisses
		rows = append(rows, row)
	}
	return rows, nil
}

// meshParams binds Sweep3D's cubic mesh it = jt = kt = n.
func meshParams(n int64) map[string]int64 {
	return map[string]int64{"it": n, "jt": n, "kt": n}
}

func runSweep3D(info *ir.Info, n int64, hier *cache.Hierarchy) (*core.Result, error) {
	return core.Pipeline{
		Source:  core.DynamicSource{Info: info},
		Options: core.Options{Hierarchy: hier, Params: meshParams(n)},
	}.Run()
}

// mergePatterns collapses every granularity's patterns into one
// histogram under a single key, so the fit models the whole program's
// reuse-distance distribution at once.
func mergePatterns(run *predict.TrainingRun) {
	for gi := range run.Grans {
		g := &run.Grans[gi]
		merged := histo.NewRes(g.Res)
		for _, h := range g.Patterns {
			merged.Merge(h)
		}
		g.Patterns = map[predict.Key]*histo.Histogram{{}: merged}
	}
}
