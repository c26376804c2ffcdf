// Package predict implements cross-input scaling models — the paper's
// ref. [14] (Marin & Mellor-Crummey) pillar: fit once on a handful of
// cheap small-input runs, then answer what-if queries for ANY parameter
// binding in microseconds, with no interpreter run.
//
// Fitting takes the per-pattern reuse-distance histograms of 3–5
// small-input training runs (exact, or R=1 sampled — which is
// bit-identical to exact) plus the static per-reference access-count
// estimates from internal/staticreuse, and models each pattern's
// histogram mass, each quantile-bin distance, and the compulsory-miss
// count as y ≈ A·f(params) + B over a small basis of candidate shapes
// (constant, p, p·log₂p, p², and pairwise products p·q of the varying
// parameters), solved by deterministic least squares with
// non-negativity clamping. The static estimates bias term selection:
// when two shapes fit the training points equally well, the one whose
// growth matches the symbolically counted accesses of the pattern's
// reference wins, which is what keeps 3-point fits honest under 16x
// extrapolation.
//
// Serving reconstructs a full predicted histogram per granularity
// (largest-remainder quantization, so bin counts sum to the fitted
// mass), runs the probabilistic set-associative miss model over it, and
// ranks per-pattern contributions — pure arithmetic over the fitted
// coefficients.
//
// Models serialize with a versioned gob format (see gob.go) and live in
// the daemon's content-addressed cache under the distinct model/ key
// namespace (see internal/server).
package predict

import (
	"errors"
	"fmt"
	"sort"

	"reusetool/internal/histo"
	"reusetool/internal/ir"
	"reusetool/internal/reusedist"
	"reusetool/internal/trace"
)

// FormatVersion is the serialized model format; Decode rejects anything
// else (see gob.go).
const FormatVersion = 1

// DefaultDistBins is the quantile-bin resolution of the fitted distance
// distribution per pattern.
const DefaultDistBins = 32

// maxDistBins bounds FitOptions.DistBins and a decoded model's
// DistBins: a histogram has fewer bins than this at any resolution, so
// more quantiles add nothing.
const maxDistBins = 1 << 14

// ErrUnsoundTraining rejects training inputs whose counts are scaled
// estimates: runs sampled at R>1, or with the adaptive bounded-memory
// (SHARDS_adj) mode, carry sampling noise that least squares would
// faithfully extrapolate. Only exact or R=1-sampled runs (bit-identical
// to exact) are sound fit inputs. Every API surface maps this to the
// typed v1 error code "unsound_training_input".
var ErrUnsoundTraining = errors.New(
	"training runs must be exact or R=1 sampled; adaptive or R>1 sampled runs are scaled estimates and unsound fit inputs")

// Key identifies one reuse pattern across runs of the same program:
// program structure — and hence reference and scope IDs — is identical
// at every problem size, so the triple is stable.
type Key struct {
	Ref      trace.RefID
	Source   trace.ScopeID
	Carrying trace.ScopeID
}

// GranData is one training run's measured data at one block-size
// granularity: per-pattern histograms and the compulsory-miss count.
type GranData struct {
	Name     string
	Res      int
	Cold     float64
	Patterns map[Key]*histo.Histogram
}

// TrainingRun is one small-input measurement used for fitting.
type TrainingRun struct {
	// Params is the run's parameter binding (overrides only; Fit
	// completes it from the program defaults).
	Params map[string]int64
	Grans  []GranData
	// SampleRate/Adaptive record the run's sampling mode so Fit can
	// refuse unsound inputs (see ErrUnsoundTraining).
	SampleRate uint64
	Adaptive   bool
}

// NewTrainingRun extracts a fit input from a collector: per-pattern
// histograms, cold counts, and the sampling mode.
func NewTrainingRun(col *reusedist.Collector, params map[string]int64) (*TrainingRun, error) {
	if col == nil {
		return nil, errors.New("predict: nil collector")
	}
	run := &TrainingRun{Params: params}
	for i, g := range col.Grans {
		gd := GranData{Name: g.Name, Res: histo.DefaultResolution, Patterns: map[Key]*histo.Histogram{}}
		for _, rd := range col.Engines[i].Refs() {
			gd.Cold += float64(rd.Cold)
			for _, p := range rd.Patterns {
				k := Key{Ref: rd.Ref, Source: p.Key.Source, Carrying: p.Key.Carrying}
				if p.Hist != nil {
					gd.Res = p.Hist.Resolution()
				}
				gd.Patterns[k] = p.Hist.Clone()
			}
		}
		run.Grans = append(run.Grans, gd)
	}
	if any, infos := col.Sampled(); any {
		for _, info := range infos {
			if !info.Enabled {
				continue
			}
			if info.Rate > run.SampleRate {
				run.SampleRate = info.Rate
			}
			run.Adaptive = run.Adaptive || info.Adaptive
		}
	}
	return run, nil
}

// Unsound reports whether the run's counts are scaled estimates (R>1 or
// adaptive bounded-memory sampling).
func (r *TrainingRun) Unsound() bool { return r.SampleRate > 1 || r.Adaptive }

// ParamSpec records one program parameter in the fitted model: its
// default (used when a query binding omits it) and its value in each
// training run, in run order.
type ParamSpec struct {
	Name    string
	Default int64
	Train   []int64
	Varies  bool
}

// PatternModel is the fitted model of one reuse pattern: histogram mass
// and the distance at each of DistBins quantiles, each as its own
// scaling fit. The labels are captured at fit time so serving needs no
// program.
type PatternModel struct {
	Ref      int32
	Source   int32
	Carrying int32

	RefLabel      string
	SourceLabel   string
	CarryingLabel string

	Mass  Scaling
	Dists []Scaling
}

// GranModel groups the pattern models of one block-size granularity,
// plus the granularity-wide compulsory-miss fit.
type GranModel struct {
	Name     string
	Res      int
	Cold     Scaling
	Patterns []PatternModel
}

// Model is a fitted cross-input scaling model: everything needed to
// predict the full report for any parameter binding, self-contained
// (no IR, no interpreter).
type Model struct {
	FormatVersion int
	Program       string
	// Hierarchy names the machine the granularities and thresholds came
	// from ("scaled", "full", "opteron").
	Hierarchy string
	HistRes   int
	DistBins  int
	// Params is sorted by name; Runs counts training runs.
	Params []ParamSpec
	Runs   int
	// Sampled reports that at least one training run used R=1 sampling
	// (bit-identical to exact, disclosed in the report footer).
	Sampled bool
	// Approx reports that the static access-count hints used fallbacks.
	Approx bool
	Grans  []GranModel
}

// FitOptions shapes a fit.
type FitOptions struct {
	// HierName names the hierarchy the training collectors measured
	// (recorded in the model; serving rebuilds the same machine).
	HierName string
	// HistRes is the histogram resolution of the training runs.
	HistRes int
	// DistBins overrides the quantile-bin count (default DefaultDistBins).
	DistBins int
}

// Fit builds a scaling model from the training runs. info must be the
// finalized program the runs executed — it supplies parameter defaults,
// reference/scope labels, and the static access-count hints that break
// basis-selection ties. At least two runs varying at least one
// parameter are required; runs with R>1 or adaptive sampling are
// refused with ErrUnsoundTraining.
func Fit(info *ir.Info, runs []*TrainingRun, opts FitOptions) (*Model, error) {
	if info == nil {
		return nil, errors.New("predict: nil program info")
	}
	if len(runs) < 2 {
		return nil, fmt.Errorf("predict: need at least 2 training runs, got %d", len(runs))
	}
	sampled := false
	for i, r := range runs {
		if r.Unsound() {
			return nil, fmt.Errorf("predict: training run %d (rate %d, adaptive %v): %w",
				i, r.SampleRate, r.Adaptive, ErrUnsoundTraining)
		}
		sampled = sampled || r.SampleRate == 1
	}

	specs, bindings, err := paramSpecs(info, runs)
	if err != nil {
		return nil, err
	}
	terms := candidateTerms(specs)
	hints, approx := staticHints(info, specs, bindings, terms)

	m := &Model{
		FormatVersion: FormatVersion,
		Program:       info.Prog.Name,
		Hierarchy:     opts.HierName,
		HistRes:       opts.HistRes,
		DistBins:      opts.DistBins,
		Params:        specs,
		Runs:          len(runs),
		Sampled:       sampled,
		Approx:        approx,
	}
	if m.DistBins <= 0 {
		m.DistBins = DefaultDistBins
	}
	if m.DistBins > maxDistBins {
		return nil, fmt.Errorf("predict: %d distance bins exceeds the maximum %d", m.DistBins, maxDistBins)
	}

	for gi, g := range runs[0].Grans {
		gm := GranModel{Name: g.Name, Res: g.Res}
		colds := make([]float64, len(runs))
		for ri, r := range runs {
			if gi >= len(r.Grans) || r.Grans[gi].Name != g.Name {
				return nil, fmt.Errorf("predict: training run %d lacks granularity %s", ri, g.Name)
			}
			colds[ri] = r.Grans[gi].Cold
		}
		gm.Cold = fitBest(bindings, colds, terms, Term{}, false)

		for _, k := range unionKeys(runs, gi) {
			hists := make([]*histo.Histogram, len(runs))
			masses := make([]float64, len(runs))
			for ri, r := range runs {
				h := r.Grans[gi].Patterns[k]
				if h == nil {
					h = histo.NewRes(g.Res)
				}
				hists[ri] = h
				masses[ri] = float64(h.Total())
			}
			hint, hasHint := hints[k.Ref]
			pm := PatternModel{
				Ref:      int32(k.Ref),
				Source:   int32(k.Source),
				Carrying: int32(k.Carrying),
				Mass:     fitBest(bindings, masses, terms, hint, hasHint),
			}
			if name, arr, ok := info.RefLabel(k.Ref); ok {
				pm.RefLabel = name + " (" + arr + ")"
			}
			pm.SourceLabel = info.Scopes.Label(k.Source)
			pm.CarryingLabel = info.Scopes.Label(k.Carrying)
			for b := 0; b < m.DistBins; b++ {
				q := (float64(b) + 0.5) / float64(m.DistBins)
				ds := make([]float64, len(runs))
				for ri, h := range hists {
					ds[ri] = float64(h.Quantile(q))
				}
				pm.Dists = append(pm.Dists, fitBest(bindings, ds, terms, hint, hasHint))
			}
			gm.Patterns = append(gm.Patterns, pm)
		}
		m.Grans = append(m.Grans, gm)
	}
	return m, nil
}

// paramSpecs completes each run's binding from the program defaults and
// returns the sorted parameter table plus the per-run bindings.
func paramSpecs(info *ir.Info, runs []*TrainingRun) ([]ParamSpec, []binding, error) {
	names := make([]string, 0, len(info.Prog.Defaults))
	for name := range info.Prog.Defaults {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, r := range runs {
		for name := range r.Params {
			if _, ok := info.Prog.Defaults[name]; !ok {
				return nil, nil, fmt.Errorf("predict: program %s has no parameter %q", info.Prog.Name, name)
			}
		}
	}
	specs := make([]ParamSpec, 0, len(names))
	bindings := make([]binding, len(runs))
	varies := false
	for _, name := range names {
		spec := ParamSpec{Name: name, Default: info.Prog.Defaults[name]}
		for ri, r := range runs {
			v := spec.Default
			if ov, ok := r.Params[name]; ok {
				v = ov
			}
			spec.Train = append(spec.Train, v)
			bindings[ri] = append(bindings[ri], paramVal{Name: name, V: float64(v)})
			if v != spec.Train[0] {
				spec.Varies = true
			}
		}
		varies = varies || spec.Varies
		specs = append(specs, spec)
	}
	if !varies {
		return nil, nil, fmt.Errorf("predict: the %d training runs bind identical parameters; vary at least one", len(runs))
	}
	// Duplicate bindings make the normal equations see repeated points
	// and, worse, would let a "fit" interpolate nothing.
	seen := map[string]int{}
	for ri, b := range bindings {
		k := fmt.Sprint(b)
		if prev, dup := seen[k]; dup {
			return nil, nil, fmt.Errorf("predict: training runs %d and %d bind identical parameters", prev, ri)
		}
		seen[k] = ri
	}
	return specs, bindings, nil
}

// unionKeys collects every pattern key seen at granularity gi across
// all runs, in deterministic (ref, source, carrying) order.
func unionKeys(runs []*TrainingRun, gi int) []Key {
	set := map[Key]bool{}
	for _, r := range runs {
		for k := range r.Grans[gi].Patterns {
			set[k] = true
		}
	}
	keys := make([]Key, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Ref != keys[b].Ref {
			return keys[a].Ref < keys[b].Ref
		}
		if keys[a].Source != keys[b].Source {
			return keys[a].Source < keys[b].Source
		}
		return keys[a].Carrying < keys[b].Carrying
	})
	return keys
}
