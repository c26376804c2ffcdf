package predict_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/ir"
	"reusetool/internal/predict"
	"reusetool/internal/workloads"
)

// trainRun executes one small-input dynamic analysis and converts it to
// a fit input.
func trainRun(t *testing.T, name string, hier *cache.Hierarchy, params map[string]int64) (*ir.Info, *predict.TrainingRun) {
	t.Helper()
	prog, init, err := workloads.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Pipeline{
		Source:  core.DynamicSource{Prog: prog, Init: init},
		Options: core.Options{Hierarchy: hier, Params: params},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	run, err := res.TrainingRun()
	if err != nil {
		t.Fatal(err)
	}
	return res.Info, run
}

func fitFig2(t *testing.T, hier *cache.Hierarchy) *predict.Model {
	t.Helper()
	var runs []*predict.TrainingRun
	var info *ir.Info
	for _, n := range []int64{64, 96, 128} {
		i, run := trainRun(t, "fig2", hier, map[string]int64{"N": n})
		info, runs = i, append(runs, run)
	}
	m, err := predict.Fit(info, runs, predict.FitOptions{HierName: hier.Name})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFitPredictFig2 is the acceptance-shaped check: fit on three small
// inputs, predict a 16x larger one, compare total L2 misses against an
// exact run within the documented 30% bound.
func TestFitPredictFig2(t *testing.T) {
	hier := cache.ScaledItanium2()
	m := fitFig2(t, hier)

	const target = 2048 // 16x the largest training size
	pred, err := m.Predict(map[string]int64{"N": target})
	if err != nil {
		t.Fatal(err)
	}
	var predicted float64
	for _, lm := range pred.LevelMisses(hier) {
		if lm.Level == "L2" {
			predicted = lm.Total
		}
	}
	if predicted <= 0 {
		t.Fatal("no L2 prediction produced")
	}

	prog, init, err := workloads.Build("fig2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Pipeline{
		Source:  core.DynamicSource{Prog: prog, Init: init},
		Options: core.Options{Hierarchy: hier, Params: map[string]int64{"N": target}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	exact := res.Report.Level("L2").TotalMisses
	rel := math.Abs(predicted-exact) / exact
	t.Logf("fig2 N=%d: predicted %.0f, exact %.0f, rel err %.1f%%", target, predicted, exact, 100*rel)
	if rel > 0.30 {
		t.Fatalf("relative error %.1f%% exceeds the documented 30%% bound", 100*rel)
	}
}

func TestFitRejectsUnsoundTraining(t *testing.T) {
	hier := cache.ScaledItanium2()
	info, a := trainRun(t, "fig2", hier, map[string]int64{"N": 64})
	_, b := trainRun(t, "fig2", hier, map[string]int64{"N": 96})
	b.SampleRate = 8 // pretend this run was sampled at R=8
	if _, err := predict.Fit(info, []*predict.TrainingRun{a, b}, predict.FitOptions{}); !errors.Is(err, predict.ErrUnsoundTraining) {
		t.Fatalf("err = %v, want ErrUnsoundTraining", err)
	}
	b.SampleRate, b.Adaptive = 1, true // adaptive bounded-memory is also unsound
	if _, err := predict.Fit(info, []*predict.TrainingRun{a, b}, predict.FitOptions{}); !errors.Is(err, predict.ErrUnsoundTraining) {
		t.Fatalf("adaptive: err = %v, want ErrUnsoundTraining", err)
	}
}

func TestFitRejectsDegenerateInputs(t *testing.T) {
	hier := cache.ScaledItanium2()
	info, a := trainRun(t, "fig2", hier, map[string]int64{"N": 64})
	if _, err := predict.Fit(info, []*predict.TrainingRun{a}, predict.FitOptions{}); err == nil {
		t.Fatal("single training run accepted")
	}
	_, dup := trainRun(t, "fig2", hier, map[string]int64{"N": 64})
	if _, err := predict.Fit(info, []*predict.TrainingRun{a, dup}, predict.FitOptions{}); err == nil {
		t.Fatal("identical bindings accepted")
	}
	// Decode refuses a model with more distance bins than a histogram
	// has, so Fit must not write one.
	_, b := trainRun(t, "fig2", hier, map[string]int64{"N": 96})
	if _, err := predict.Fit(info, []*predict.TrainingRun{a, b}, predict.FitOptions{DistBins: 1 << 15}); err == nil {
		t.Fatal("a model Decode refuses was fitted")
	}
}

func TestGobRoundTrip(t *testing.T) {
	hier := cache.ScaledItanium2()
	m := fitFig2(t, hier)
	data, err := predict.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := predict.Checksum(data)
	if err := predict.Verify(data, sum); err != nil {
		t.Fatal(err)
	}
	back, err := predict.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatal("decoded model differs from original")
	}
	if err := predict.Verify(data, sum+1); err == nil {
		t.Fatal("checksum mismatch accepted")
	}
	if err := predict.Verify(data[:len(data)/2], predict.Checksum(data[:len(data)/2])); err == nil {
		t.Fatal("truncated payload accepted")
	}

	m.FormatVersion = 99
	if _, err := predict.Encode(m); err == nil {
		t.Fatal("unknown format version encoded")
	}
}

func TestReportDisclosesFitAndExtrapolation(t *testing.T) {
	hier := cache.ScaledItanium2()
	m := fitFig2(t, hier)
	pred, err := m.Predict(map[string]int64{"N": 4096})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m.WriteSummary(&buf)
	m.WriteReport(&buf, pred, hier, "L2")
	out := buf.String()
	for _, want := range []string{
		"3 exact training runs",
		"Fit: 3 training runs",
		"N outside training range [64, 128]",
		"rmse",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
