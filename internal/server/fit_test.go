package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"reusetool/pkg/client"
)

// postJSON posts a request body to path and returns the status plus the
// decoded error envelope (zero-valued on success).
func postJSON(t *testing.T, ts *httptest.Server, path string, req any) (int, client.ErrorEnvelope, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var env client.ErrorEnvelope
	if resp.StatusCode >= 300 {
		if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
			t.Fatalf("decode error envelope (status %d): %v\n%s", resp.StatusCode, err, buf.String())
		}
	}
	return resp.StatusCode, env, buf.Bytes()
}

func fig2Fit() client.FitRequest {
	return client.FitRequest{
		Workload: "fig2",
		TrainParams: []map[string]int64{
			{"N": 64}, {"N": 96}, {"N": 128},
		},
	}
}

// TestFitPredictThroughAPI drives the whole service surface: fit a fig2
// model from three small runs, then answer a 16x what-if query from the
// cached model and check the numbers against a real run.
func TestFitPredictThroughAPI(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Pre-run one training input so the fit gets a warm hit.
	j, status := postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig2", Params: map[string]int64{"N": 64}})
	if status != http.StatusAccepted {
		t.Fatalf("training pre-run status %d", status)
	}
	pollDone(t, ts, j.ID)

	status, _, body := postJSON(t, ts, "/v1/fit", fig2Fit())
	if status != http.StatusAccepted {
		t.Fatalf("fit status %d: %s", status, body)
	}
	var job client.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	d := pollDone(t, ts, job.ID)
	if d.Status != client.JobDone {
		t.Fatalf("fit job: %s (%s)", d.Status, d.Error)
	}
	if !strings.Contains(d.Report, "Cross-input scaling model") {
		t.Fatalf("fit report missing model summary:\n%s", d.Report)
	}
	if warm := metricValue(t, ts, "reusetoold_fit_training_warm_hits_total"); warm < 1 {
		t.Fatalf("fit_training_warm_hits_total = %g, want >= 1 (pre-run should have warmed N=64)", warm)
	}

	// Refitting the same spec is a pure cache hit: 200, no new job.
	status, _, body = postJSON(t, ts, "/v1/fit", fig2Fit())
	if status != http.StatusOK {
		t.Fatalf("warm fit status %d: %s", status, body)
	}
	var warmJob client.Job
	if err := json.Unmarshal(body, &warmJob); err != nil {
		t.Fatal(err)
	}
	if !warmJob.CacheHit {
		t.Fatal("warm fit not served from cache")
	}

	// Predict a 16x larger input, addressing the model by fit spec.
	preq := client.PredictRequest{
		Workload:    "fig2",
		TrainParams: fig2Fit().TrainParams,
		Params:      map[string]int64{"N": 2048},
	}
	submitted := metricValue(t, ts, "reusetoold_jobs_submitted_total")
	status, _, body = postJSON(t, ts, "/v1/predict", preq)
	if status != http.StatusOK {
		t.Fatalf("predict status %d: %s", status, body)
	}
	var pr client.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Params["N"] != 2048 {
		t.Fatalf("predict echoed params %v", pr.Params)
	}
	if pr.ElapsedUS <= 0 {
		t.Fatalf("elapsed_us = %g", pr.ElapsedUS)
	}
	if !strings.Contains(pr.Report, "Fit: 3 training runs") {
		t.Fatalf("predict report missing fit disclosure:\n%s", pr.Report)
	}
	var l2 *client.PredictedLevel
	for i := range pr.Levels {
		if pr.Levels[i].Level == "L2" {
			l2 = &pr.Levels[i]
		}
	}
	if l2 == nil {
		t.Fatalf("no L2 in predicted levels %+v", pr.Levels)
	}

	// Predicting must not have scheduled any job.
	if after := metricValue(t, ts, "reusetoold_jobs_submitted_total"); after != submitted {
		t.Fatalf("predict scheduled a job: jobs_submitted_total %g -> %g", submitted, after)
	}

	// Compare against the exact analysis at N=2048.
	j, _ = postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig2", Params: map[string]int64{"N": 2048}})
	exact := pollDone(t, ts, j.ID)
	if exact.Status != client.JobDone {
		t.Fatalf("exact run: %s (%s)", exact.Status, exact.Error)
	}
	var doc struct {
		Levels []struct {
			Level  string  `json:"level"`
			Misses float64 `json:"total_misses"`
		} `json:"levels"`
	}
	if err := json.Unmarshal(exact.Result, &doc); err != nil {
		t.Fatal(err)
	}
	var exactL2 float64
	for _, l := range doc.Levels {
		if l.Level == "L2" {
			exactL2 = l.Misses
		}
	}
	if exactL2 == 0 {
		t.Fatalf("exact result has no L2 misses: %s", exact.Result)
	}
	rel := (l2.TotalMisses - exactL2) / exactL2
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.30 {
		t.Fatalf("predicted L2 misses %.0f vs exact %.0f: rel err %.2f > 0.30", l2.TotalMisses, exactL2, rel)
	}

	// A second predict hits the decoded-model memo.
	status, _, _ = postJSON(t, ts, "/v1/predict", preq)
	if status != http.StatusOK {
		t.Fatalf("repeat predict status %d", status)
	}
	if served := metricValue(t, ts, "reusetoold_predicts_served_total"); served != 2 {
		t.Fatalf("predicts_served_total = %g, want 2", served)
	}
}

// TestFitRejectsUnsoundSampling is the daemon-surface contract for
// satellite soundness: R>1 or adaptive (max-blocks) sampled training
// inputs are refused with the typed unsound_training_input code.
func TestFitRejectsUnsoundSampling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]client.FitRequest{
		"rate>1": func() client.FitRequest {
			r := fig2Fit()
			r.SampleRate = 8
			return r
		}(),
		"adaptive": func() client.FitRequest {
			r := fig2Fit()
			r.SampleRate = 1
			r.SampleMaxBlocks = 512
			return r
		}(),
	} {
		status, env, _ := postJSON(t, ts, "/v1/fit", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
		if env.Err.Code != client.CodeUnsoundTrainingInput {
			t.Errorf("%s: code %q, want %q", name, env.Err.Code, client.CodeUnsoundTrainingInput)
		}
	}
	// Predict addressing a model by an unsound fit spec gets the same code.
	status, env, _ := postJSON(t, ts, "/v1/predict", client.PredictRequest{
		Workload:    "fig2",
		TrainParams: []map[string]int64{{"N": 64}},
		Params:      map[string]int64{"N": 1024},
	})
	if status != http.StatusBadRequest {
		t.Errorf("predict bad spec: status %d, want 400", status)
	}
	if env.Err.Code != client.CodeInvalidRequest {
		t.Errorf("predict bad spec: code %q", env.Err.Code)
	}
}

// TestFitBadRequests covers the remaining 400 paths.
func TestFitBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]client.FitRequest{
		"one binding": {Workload: "fig2", TrainParams: []map[string]int64{{"N": 64}}},
		"identical bindings": {Workload: "fig2",
			TrainParams: []map[string]int64{{"N": 64}, {"N": 64}, {"N": 64}}},
		"unknown param": {Workload: "fig2",
			TrainParams: []map[string]int64{{"N": 64}, {"nope": 96}}},
		"unknown workload": {Workload: "nope",
			TrainParams: []map[string]int64{{"N": 64}, {"N": 96}}},
	} {
		status, env, _ := postJSON(t, ts, "/v1/fit", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
		if env.Err.Code != client.CodeInvalidRequest {
			t.Errorf("%s: code %q, want invalid_request", name, env.Err.Code)
		}
	}
}

// TestPredictWithoutModel404s: no fit, no model, typed not_found with a
// pointer at /v1/fit.
func TestPredictWithoutModel404s(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, env, _ := postJSON(t, ts, "/v1/predict", client.PredictRequest{
		Workload:    "fig2",
		TrainParams: fig2Fit().TrainParams,
		Params:      map[string]int64{"N": 512},
	})
	if status != http.StatusNotFound {
		t.Fatalf("status %d, want 404", status)
	}
	if env.Err.Code != client.CodeNotFound {
		t.Fatalf("code %q, want not_found", env.Err.Code)
	}
	if !strings.Contains(env.Err.Message, "/v1/fit") {
		t.Fatalf("message should point at /v1/fit: %s", env.Err.Message)
	}
	if v := metricValue(t, ts, "reusetoold_predict_no_model_total"); v != 1 {
		t.Fatalf("predict_no_model_total = %g", v)
	}
}
