package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reusetool/internal/persist"
	"reusetool/pkg/client"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postAnalyze(t *testing.T, ts *httptest.Server, req client.AnalyzeRequest) (*client.Job, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		// Non-2xx responses carry the structured error envelope; surface
		// the message through the job's Error field for assertions.
		var env client.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode error envelope (status %d): %v", resp.StatusCode, err)
		}
		if env.Err.Code == "" {
			t.Fatalf("status %d response missing error code", resp.StatusCode)
		}
		return &client.Job{Error: env.Err.Message}, resp.StatusCode
	}
	var j client.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode response (status %d): %v", resp.StatusCode, err)
	}
	return &j, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) *client.Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j client.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return &j
}

func pollDone(t *testing.T, ts *httptest.Server, id string) *client.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		j := getJob(t, ts, id)
		switch j.Status {
		case client.JobDone, client.JobFailed, client.JobCanceled:
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestAnalyzeWarmCacheSkipsInterpreter is the acceptance criterion: a
// resubmission of an identical request is served from the
// content-addressed cache — observable via the cache-hit counter — and
// its report bytes equal the cold-run bytes, for fig1a, fig2 and
// sweep3d.
func TestAnalyzeWarmCacheSkipsInterpreter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i, workload := range []string{"fig1a", "fig2", "sweep3d"} {
		req := client.AnalyzeRequest{Workload: workload}
		cold, status := postAnalyze(t, ts, req)
		if status != http.StatusAccepted {
			t.Fatalf("%s: cold status %d", workload, status)
		}
		coldDone := pollDone(t, ts, cold.ID)
		if coldDone.Status != client.JobDone {
			t.Fatalf("%s: cold job %s: %s", workload, coldDone.Status, coldDone.Error)
		}
		if coldDone.CacheHit {
			t.Fatalf("%s: cold run reported a cache hit", workload)
		}
		if coldDone.Report == "" || len(coldDone.Result) == 0 {
			t.Fatalf("%s: cold result incomplete", workload)
		}

		warm, status := postAnalyze(t, ts, req)
		if status != http.StatusOK {
			t.Fatalf("%s: warm status %d, want 200", workload, status)
		}
		if !warm.CacheHit || warm.Status != client.JobDone {
			t.Fatalf("%s: warm submission not served from cache (%+v)", workload, warm)
		}
		if warm.Report != coldDone.Report {
			t.Fatalf("%s: warm report bytes differ from cold", workload)
		}
		if !bytes.Equal(warm.Result, coldDone.Result) {
			t.Fatalf("%s: warm JSON differs from cold", workload)
		}
		if hits := metricValue(t, ts, "reusetoold_cache_hits_total"); hits != float64(i+1) {
			t.Fatalf("cache_hits_total = %g after %d warm submissions", hits, i+1)
		}
	}
	if misses := metricValue(t, ts, "reusetoold_cache_misses_total"); misses != 3 {
		t.Fatalf("cache_misses_total = %g, want 3", misses)
	}
}

// TestAnalyzeColdRunsDeterministic runs the same request on two
// independent daemons and requires byte-identical reports — the
// property that makes the cache safe to share.
func TestAnalyzeColdRunsDeterministic(t *testing.T) {
	_, ts1 := newTestServer(t, Config{})
	_, ts2 := newTestServer(t, Config{})
	req := client.AnalyzeRequest{Workload: "fig2"}
	j1, _ := postAnalyze(t, ts1, req)
	j2, _ := postAnalyze(t, ts2, req)
	d1, d2 := pollDone(t, ts1, j1.ID), pollDone(t, ts2, j2.ID)
	if d1.Status != client.JobDone || d2.Status != client.JobDone {
		t.Fatalf("jobs: %s / %s", d1.Status, d2.Status)
	}
	if d1.Report != d2.Report || !bytes.Equal(d1.Result, d2.Result) {
		t.Fatal("two daemons produced different bytes for the same request")
	}
	if d1.Key != d2.Key {
		t.Fatalf("cache keys differ: %s vs %s", d1.Key, d2.Key)
	}
}

// TestAnalyzeProgramSourceSharesKeyWithReformattedSource checks that
// the cache key is computed over canonical IR bytes: the same program
// with different indentation and comments hits the same entry. (Source
// *line numbers* are semantic — they name loops in reports and are
// preserved by lang.Format — so the reformatting below keeps every
// statement on its original line.)
func TestAnalyzeProgramSourceSharesKeyWithReformattedSource(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `program p
param N 64
array A f64 [N]

routine main {
  for i = 0 .. N-1 {
    access A[i]
  }
}
`
	messy := strings.ReplaceAll(src, "  ", "\t \t ") // reindent
	messy = strings.Replace(messy, "program p", "program p  # a comment", 1)
	messy = strings.Replace(messy, "access A[i]", "access   A[ i ]  # same access", 1)
	messy += "# trailing comment, no newline"

	j1, _ := postAnalyze(t, ts, client.AnalyzeRequest{Program: src})
	d1 := pollDone(t, ts, j1.ID)
	if d1.Status != client.JobDone {
		t.Fatalf("cold program job: %s (%s)", d1.Status, d1.Error)
	}
	j2, status := postAnalyze(t, ts, client.AnalyzeRequest{Program: messy})
	if status != http.StatusOK || !j2.CacheHit {
		t.Fatalf("reformatted source missed the cache (status %d, hit %v)", status, j2.CacheHit)
	}
	if j2.Key != d1.Key {
		t.Fatalf("canonicalization failed: keys %s vs %s", j2.Key, d1.Key)
	}
}

// TestAnalyzeOptionsChangeKey ensures every result-shaping option feeds
// the key: same program, different params/hierarchy/level must miss.
func TestAnalyzeOptionsChangeKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := client.AnalyzeRequest{Workload: "fig2"}
	j, _ := postAnalyze(t, ts, base)
	pollDone(t, ts, j.ID)

	variants := []client.AnalyzeRequest{
		{Workload: "fig2", Hierarchy: "full"},
		{Workload: "fig2", Level: "TLB"},
		{Workload: "fig2", MinShare: 0.5},
		{Workload: "fig2", Mode: "static"},
	}
	for i, v := range variants {
		jv, status := postAnalyze(t, ts, v)
		if status == http.StatusOK && jv.CacheHit {
			t.Fatalf("variant %d shared the base cache entry", i)
		}
		pollDone(t, ts, jv.ID)
	}
}

// TestAnalyzeStaticMode runs the symbolic pipeline through the API.
func TestAnalyzeStaticMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	j, status := postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig1a", Mode: "static"})
	if status != http.StatusAccepted {
		t.Fatalf("status %d", status)
	}
	d := pollDone(t, ts, j.ID)
	if d.Status != client.JobDone {
		t.Fatalf("static job: %s (%s)", d.Status, d.Error)
	}
	if !strings.Contains(d.Report, "MISSES") {
		t.Fatalf("static report looks empty:\n%s", d.Report)
	}
}

// TestAnalyzeBadRequests covers the 400 paths.
func TestAnalyzeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]client.AnalyzeRequest{
		"no source":        {},
		"two sources":      {Workload: "fig1a", Program: "program p\nroutine main {}\n"},
		"unknown workload": {Workload: "nope"},
		"bad mode":         {Workload: "fig1a", Mode: "quantum"},
		"bad hierarchy":    {Workload: "fig1a", Hierarchy: "m1"},
		"bad level":        {Workload: "fig1a", Level: "L9"},
		"bad param":        {Workload: "fig1a", Params: map[string]int64{"nope": 1}},
		"negative timeout": {Workload: "fig1a", TimeoutMS: -5},
		"bad program":      {Program: "this is not a loop program"},
	} {
		if _, status := postAnalyze(t, ts, req); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
	// Unknown job.
	resp, err := http.Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
}

// TestJobDeadlineThroughAPI submits a huge workload with a tiny
// timeout_ms and expects a canceled job, not a hung daemon.
func TestJobDeadlineThroughAPI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	j, status := postAnalyze(t, ts, client.AnalyzeRequest{
		Workload:  "sweep3d",
		Params:    map[string]int64{"it": 40, "jt": 40, "kt": 40, "ts": 8},
		TimeoutMS: 25,
	})
	if status != http.StatusAccepted {
		t.Fatalf("status %d", status)
	}
	d := pollDone(t, ts, j.ID)
	if d.Status != client.JobCanceled {
		t.Fatalf("status %s (%s), want canceled", d.Status, d.Error)
	}
}

// TestCancelRunningJobThroughAPI exercises DELETE /v1/jobs/{id}.
func TestCancelRunningJobThroughAPI(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	j, _ := postAnalyze(t, ts, client.AnalyzeRequest{
		Workload: "sweep3d",
		Params:   map[string]int64{"it": 40, "jt": 40, "kt": 40, "ts": 8},
	})
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	d := pollDone(t, ts, j.ID)
	if d.Status != client.JobCanceled {
		t.Fatalf("status %s, want canceled", d.Status)
	}
}

// TestHealthzAndDrain checks the health endpoint flips to draining and
// the server refuses new work during shutdown.
func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d", resp.StatusCode)
	}
	if _, status := postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig1a"}); status != http.StatusServiceUnavailable {
		t.Fatalf("draining analyze status %d", status)
	}
}

// TestArtifactSubmission posts a saved persist stream alongside the
// program and expects the daemon to rebuild the report without
// re-running the interpreter.
func TestArtifactSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Produce an artifact via a dynamic run.
	e := collectEntry(t, key(1))
	j, status := postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig2", Artifact: e.Artifact})
	if status != http.StatusAccepted {
		t.Fatalf("status %d", status)
	}
	d := pollDone(t, ts, j.ID)
	if d.Status != client.JobDone {
		t.Fatalf("artifact job: %s (%s)", d.Status, d.Error)
	}
	if !strings.Contains(d.Report, "MISSES") {
		t.Fatal("artifact-based report looks empty")
	}
}

// craftArtifact reloads a real artifact, applies f and saves it again.
func craftArtifact(t *testing.T, artifact []byte, f func(d *persist.Dataset)) []byte {
	t.Helper()
	d, err := persist.Load(bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	f(d)
	var buf bytes.Buffer
	if err := persist.Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMalformedArtifactsRefused sends crafted artifacts that used to
// kill the worker process (an index out of range in a scheduler
// goroutine, or an out-of-memory fatal error) to both routes that accept
// one, and checks that the daemon refuses them and keeps serving.
func TestMalformedArtifactsRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wantInvalid := func(what string, resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		var env client.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: decode error envelope (status %d): %v", what, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Err.Code != client.CodeInvalidRequest {
			t.Fatalf("%s: status %d code %q (%s), want 400 %s",
				what, resp.StatusCode, env.Err.Code, env.Err.Message, client.CodeInvalidRequest)
		}
	}

	entry := collectEntry(t, key(7))
	fig2 := entry.Artifact

	// Two granularities, but one reference set and one clock.
	unequal := craftArtifact(t, fig2, func(d *persist.Dataset) { d.Refs, d.Clocks = d.Refs[:1], d.Clocks[:1] })
	body, err := json.Marshal(client.AnalyzeRequest{Workload: "fig2", Artifact: unequal})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	wantInvalid("analyze with unequal lengths", resp)

	// A reference ID that would size a 1<<30-entry table on verify.
	entry.Artifact = craftArtifact(t, fig2, func(d *persist.Dataset) { d.Refs[0][0].Ref = 1 << 30 })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entry); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+key(7), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantInvalid("cache PUT with a huge reference ID", resp)

	// Well-formed, but naming a scope fig2 does not have: only the
	// report can tell, so the job fails instead of the worker.
	foreign := craftArtifact(t, fig2, func(d *persist.Dataset) {
		for _, p := range d.Refs[0][0].PatternsByKey() {
			delete(d.Refs[0][0].Patterns, p.Key)
			p.Key.Source = 9999
			d.Refs[0][0].Patterns[p.Key] = p
		}
	})
	j, status := postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig2", Artifact: foreign})
	if status != http.StatusAccepted {
		t.Fatalf("foreign-scope artifact: status %d (%s)", status, j.Error)
	}
	if d := pollDone(t, ts, j.ID); d.Status != client.JobFailed || !strings.Contains(d.Error, "unknown scope") {
		t.Fatalf("foreign-scope artifact: job %s (%s), want failed on an unknown scope", d.Status, d.Error)
	}

	// The daemon still analyzes.
	j, status = postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig2"})
	if status != http.StatusAccepted {
		t.Fatalf("fig2 after the malformed artifacts: status %d (%s)", status, j.Error)
	}
	if d := pollDone(t, ts, j.ID); d.Status != client.JobDone {
		t.Fatalf("fig2 after the malformed artifacts: %s (%s)", d.Status, d.Error)
	}
}
