package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"reusetool/pkg/client"
)

// TestErrorEnvelopeShape pins the raw v1 error contract: every non-2xx
// body is {"api_version":"v1","error":{"code","message"}}.
func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		APIVersion string `json:"api_version"`
		Err        struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	if doc.APIVersion != client.APIVersion {
		t.Fatalf("api_version = %q, want %q (body %s)", doc.APIVersion, client.APIVersion, raw)
	}
	if doc.Err.Code != string(client.CodeNotFound) || doc.Err.Message == "" {
		t.Fatalf("error = %+v, want not_found with a message", doc.Err)
	}
}

func TestJobListEndpoint(t *testing.T) {
	// A second submission must still be in flight when the state filter is
	// queried, so every job carries a synthetic 2s latency; the first one
	// is cancelled to reach a terminal state without waiting it out.
	_, ts := newTestServer(t, Config{SimulateLatency: 2 * time.Second})
	first, status := postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig2"})
	if status != http.StatusAccepted {
		t.Fatalf("first analyze status %d", status)
	}
	cancelReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(cancelReq); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	waitStatus(t, ts, first.ID, "canceled")
	second, status := postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig1a"})
	if status != http.StatusAccepted {
		t.Fatalf("second analyze status %d", status)
	}

	get := func(path string) (int, client.JobList) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var list client.JobList
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, list
	}

	status, list := get("/v1/jobs")
	if status != http.StatusOK || len(list.Jobs) != 2 {
		t.Fatalf("list: status=%d jobs=%d, want 200/2", status, len(list.Jobs))
	}
	if list.APIVersion != client.APIVersion {
		t.Fatalf("list api_version = %q", list.APIVersion)
	}
	for _, j := range list.Jobs {
		if j.Report != "" || j.Result != nil {
			t.Fatal("list entries must omit report/result payloads")
		}
		if j.APIVersion != client.APIVersion {
			t.Fatalf("job %s api_version = %q", j.ID, j.APIVersion)
		}
	}

	status, list = get("/v1/jobs?state=canceled")
	if status != http.StatusOK || len(list.Jobs) != 1 || list.Jobs[0].ID != first.ID {
		t.Fatalf("canceled filter: status=%d jobs=%+v", status, list.Jobs)
	}
	status, list = get("/v1/jobs?state=done")
	if status != http.StatusOK || len(list.Jobs) != 0 {
		t.Fatalf("done filter: status=%d jobs=%+v", status, list.Jobs)
	}
	if status, _ := get("/v1/jobs?state=bogus"); status != http.StatusBadRequest {
		t.Fatalf("bogus filter status %d, want 400", status)
	}

	cancel2, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+second.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(cancel2); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
}

// waitStatus polls until the job reaches the given terminal state.
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j := getJob(t, ts, id); string(j.Status) == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
}

// TestHealthAliasesAgree: the v1 route and the PR 5 /healthz alias must
// serve the same typed document.
func TestHealthAliasesAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fetch := func(path string) client.Health {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		var h client.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	v1, legacy := fetch("/v1/health"), fetch("/healthz")
	if v1 != legacy {
		t.Fatalf("/v1/health %+v != /healthz %+v", v1, legacy)
	}
	if v1.APIVersion != client.APIVersion || v1.Role != "worker" || v1.Status != "ok" {
		t.Fatalf("health = %+v", v1)
	}
}

// TestPrunedJobsAnswerNotFound: a terminal job pruned from the registry
// past its cap answers GET /v1/jobs/{id} with 404, like any unknown ID.
func TestPrunedJobsAnswerNotFound(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.sched.jobs.SetMax(2)

	first, status := postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig2"})
	if status != http.StatusAccepted {
		t.Fatalf("cold analyze status %d", status)
	}
	pollDone(t, ts, first.ID)
	var last *client.Job
	for i := 0; i < 2; i++ {
		if last, status = postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig2"}); status != http.StatusOK {
			t.Fatalf("warm analyze status %d", status)
		}
	}
	for id, want := range map[string]int{first.ID: http.StatusNotFound, last.ID: http.StatusOK} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET job %s: status %d, want %d", id, resp.StatusCode, want)
		}
	}
}
