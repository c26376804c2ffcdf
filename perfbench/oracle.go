package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"reusetool/pkg/client"
)

// oracleJSON pins, for every distinct request the workloads can send,
// the outputs the daemon gave at the commit that introduced the
// benchmark. Regenerate it with -pin only when a change is meant to
// alter analysis results.
//
//go:embed oracle.json
var oracleJSON []byte

// pinned is one analyze request's expected output.
type pinned struct {
	// Fingerprint is the engine fingerprint the result document carries.
	Fingerprint string `json:"fingerprint"`
	// ReportSHA256 and ResultSHA256 hash the text report and the JSON
	// result document byte for byte.
	ReportSHA256 string `json:"report_sha256"`
	ResultSHA256 string `json:"result_sha256"`
	// Accesses is the number of reference accesses the program makes;
	// for a static-mode request, the accesses the estimate covers
	// without running the program.
	Accesses uint64 `json:"accesses"`
}

type oracle struct {
	Analyze map[string]pinned `json:"analyze"`
	// PredictL2 is each what-if query's predicted L2 misses.
	PredictL2 map[string]float64 `json:"predict_l2_misses"`
}

func loadOracle(data []byte) (*oracle, error) {
	var o oracle
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &o, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// resultHead is the part of the result document the checks read.
type resultHead struct {
	Program     string `json:"program"`
	Accesses    uint64 `json:"accesses"`
	Fingerprint string `json:"fingerprint"`
}

// observe derives a finished job's pinned fields. Static results carry
// no access count; the caller supplies the program's, counted apart.
func observe(job *client.Job) (pinned, error) {
	var head resultHead
	if err := json.Unmarshal(job.Result, &head); err != nil {
		return pinned{}, fmt.Errorf("decode result document: %w", err)
	}
	return pinned{
		Fingerprint:  head.Fingerprint,
		ReportSHA256: sha([]byte(job.Report)),
		ResultSHA256: sha(job.Result),
		Accesses:     head.Accesses,
	}, nil
}

// checkJob verifies a finished analyze job against the oracle: status
// done, cache hit as expected, and fingerprint, report and document as
// pinned. accesses overrides the document's count for static requests.
func (o *oracle) checkJob(label string, job *client.Job, wantHit bool) (pinned, error) {
	want, ok := o.Analyze[label]
	if !ok {
		return pinned{}, fmt.Errorf("%s: not in the oracle", label)
	}
	if job.Status != client.JobDone {
		return pinned{}, fmt.Errorf("%s: job %s: %s", label, job.Status, job.Error)
	}
	if job.CacheHit != wantHit {
		return pinned{}, fmt.Errorf("%s: cache_hit %v, want %v", label, job.CacheHit, wantHit)
	}
	got, err := observe(job)
	if err != nil {
		return pinned{}, fmt.Errorf("%s: %w", label, err)
	}
	if got.Accesses == 0 {
		got.Accesses = want.Accesses
	}
	if got != want {
		return pinned{}, fmt.Errorf("%s: got %+v, pinned %+v", label, got, want)
	}
	return got, nil
}

// checkPredict verifies a prediction's L2 misses against the oracle.
func (o *oracle) checkPredict(label string, resp *client.PredictResponse) error {
	want, ok := o.PredictL2[label]
	if !ok {
		return fmt.Errorf("predict %s: not in the oracle", label)
	}
	got, err := l2Misses(resp)
	if err != nil {
		return fmt.Errorf("predict %s: %w", label, err)
	}
	if got != want {
		return fmt.Errorf("predict %s: L2 misses %v, pinned %v", label, got, want)
	}
	return nil
}

func l2Misses(resp *client.PredictResponse) (float64, error) {
	for _, l := range resp.Levels {
		if l.Level == "L2" {
			return l.TotalMisses, nil
		}
	}
	return 0, fmt.Errorf("no L2 level in the prediction")
}

// sameBytes checks that a warm hit returned the cold response byte for
// byte.
func sameBytes(label string, cold, warm *client.Job) error {
	if cold.Report != warm.Report || !bytes.Equal(cold.Result, warm.Result) {
		return fmt.Errorf("%s: warm hit differs from the cold response", label)
	}
	return nil
}
