package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reusetool/internal/sampling"
)

// predictGolden fits from the training bindings, predicts at the target
// binding, and compares the byte-exact output (model summary plus the
// predicted report with its fit-disclosure footer) against
// testdata/predict/<name>.golden. Run with -update to regenerate.
func predictGolden(t *testing.T, name string, cfg fitCLI) {
	t.Helper()
	var out, errw bytes.Buffer
	cfg.predict = true
	if cfg.level == "" {
		cfg.level = "L2"
	}
	if code := runFitPredict(context.Background(), &out, &errw, cfg); code != 0 {
		t.Fatalf("%s: exit %d:\n%s", name, code, errw.String())
	}
	compareGolden(t, filepath.Join("testdata", "predict", name+".golden"), out.String())
}

func bindings(vals ...int64) []map[string]int64 {
	out := make([]map[string]int64, len(vals))
	for i, v := range vals {
		out[i] = map[string]int64{"N": v}
	}
	return out
}

// TestPredictGoldenWorkloads pins the byte-exact -predict output for the
// paper's case-study workloads: the model summary, the predicted level
// misses, the ranked patterns, and the footer disclosing the training
// inputs, the chosen basis terms, and the fit residuals.
func TestPredictGoldenWorkloads(t *testing.T) {
	cases := []struct {
		workload string
		train    []map[string]int64
		target   int64
	}{
		{"fig1a", bindings(32, 48, 64), 1024},
		{"fig2", bindings(64, 96, 128), 2048},
		{"stream", bindings(1024, 2048, 4096), 65536},
		{"stencil", bindings(32, 48, 64), 1024},
		{"transpose", bindings(32, 48, 64), 1024},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			predictGolden(t, tc.workload, fitCLI{
				workload: tc.workload,
				train:    tc.train,
				params:   map[string]int64{"N": tc.target},
			})
		})
	}
}

// TestFitPredictCLIRejectsUnsoundSampling is the CLI-surface soundness
// contract: R>1 or adaptive sampling exits 2 with the typed code on
// stderr, before any training run executes.
func TestFitPredictCLIRejectsUnsoundSampling(t *testing.T) {
	for name, cfg := range map[string]sampling.Config{
		"rate>1":   {Rate: 8},
		"adaptive": {Rate: 1, MaxBlocks: 1024},
	} {
		var out, errw bytes.Buffer
		code := runFitPredict(context.Background(), &out, &errw, fitCLI{
			workload: "fig2",
			train:    bindings(64, 96),
			sampling: cfg,
		})
		if code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if !strings.Contains(errw.String(), "unsound_training_input") {
			t.Errorf("%s: stderr missing typed code:\n%s", name, errw.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote output despite rejection", name)
		}
	}
}

// TestFitPredictCLIExactSamplingAccepted: -sample-rate 1 is
// exact-equivalent and fits fine, with the summary disclosing it.
func TestFitPredictCLIExactSamplingAccepted(t *testing.T) {
	var out, errw bytes.Buffer
	code := runFitPredict(context.Background(), &out, &errw, fitCLI{
		workload: "fig2",
		train:    bindings(64, 96, 128),
		sampling: sampling.Config{Rate: 1},
	})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errw.String())
	}
	if !strings.Contains(out.String(), "R=1 sampled") {
		t.Errorf("summary does not disclose R=1 training:\n%s", out.String())
	}
}

// TestFitModelSaveLoadRoundTrip: -fit -model writes a model file, and
// -predict -model answers from it without re-running any workload.
func TestFitModelSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.model")
	var out, errw bytes.Buffer
	code := runFitPredict(context.Background(), &out, &errw, fitCLI{
		workload:  "fig2",
		train:     bindings(64, 96, 128),
		modelPath: path,
	})
	if code != 0 {
		t.Fatalf("fit exit %d:\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "model saved to") {
		t.Fatalf("no save confirmation:\n%s", errw.String())
	}

	var pout, perrw bytes.Buffer
	code = runFitPredict(context.Background(), &pout, &perrw, fitCLI{
		modelPath: path,
		params:    map[string]int64{"N": 1024},
		level:     "L2",
		predict:   true,
	})
	if code != 0 {
		t.Fatalf("predict exit %d:\n%s", code, perrw.String())
	}
	if !strings.Contains(pout.String(), "Predicted report") {
		t.Fatalf("no predicted report:\n%s", pout.String())
	}

	// A truncated model file is a typed decode failure, not a panic.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var gout, gerrw bytes.Buffer
	if code := runFitPredict(context.Background(), &gout, &gerrw, fitCLI{
		modelPath: path,
		params:    map[string]int64{"N": 1024},
		level:     "L2",
		predict:   true,
	}); code != 1 {
		t.Fatalf("garbage model: exit %d, want 1", code)
	}
}

// TestFitCLIUsageErrors: too few bindings and unknown training
// parameters are usage errors (exit 2).
func TestFitCLIUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runFitPredict(context.Background(), &out, &errw, fitCLI{
		workload: "fig2", train: bindings(64),
	}); code != 2 {
		t.Errorf("one binding: exit %d, want 2", code)
	}
	errw.Reset()
	if code := runFitPredict(context.Background(), &out, &errw, fitCLI{
		workload: "fig2",
		train:    []map[string]int64{{"N": 64}, {"BOGUS": 96}},
	}); code != 2 {
		t.Errorf("unknown param: exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "BOGUS") {
		t.Errorf("error does not name the bad parameter:\n%s", errw.String())
	}
}

// TestTrainList covers the repeatable -train flag parsing.
func TestTrainList(t *testing.T) {
	var tl trainList
	if err := tl.Set("N=64"); err != nil {
		t.Fatal(err)
	}
	if err := tl.Set("it=8, jt=8,kt=4"); err != nil {
		t.Fatal(err)
	}
	if len(tl) != 2 || tl[0]["N"] != 64 || tl[1]["kt"] != 4 || tl[1]["jt"] != 8 {
		t.Errorf("trainList = %v", tl)
	}
	if err := tl.Set("garbage"); err == nil {
		t.Error("missing '=' accepted")
	}
	if err := tl.Set("N=abc"); err == nil {
		t.Error("non-integer accepted")
	}
	if s := tl.String(); !strings.Contains(s, "N=64") || !strings.Contains(s, "it=8,jt=8,kt=4") {
		t.Errorf("String = %q", s)
	}
}
