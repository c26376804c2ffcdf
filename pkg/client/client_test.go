package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"reusetool/internal/server"
	"reusetool/pkg/client"
)

func startDaemon(t *testing.T, cfg server.Config) *client.Client {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	cl := client.New(ts.URL)
	cl.PollInterval = 10 * time.Millisecond
	return cl
}

func TestClientColdWarmAndList(t *testing.T) {
	cl := startDaemon(t, server.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := cl.Analyze(ctx, client.AnalyzeRequest{Workload: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.JobDone || done.Report == "" {
		t.Fatalf("cold job: status=%s report=%d bytes", done.Status, len(done.Report))
	}
	if done.APIVersion != client.APIVersion {
		t.Fatalf("api_version = %q, want %q", done.APIVersion, client.APIVersion)
	}

	warm, err := cl.Analyze(ctx, client.AnalyzeRequest{Workload: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Status != client.JobDone {
		t.Fatalf("warm job: cache_hit=%v status=%s", warm.CacheHit, warm.Status)
	}
	if warm.Report != done.Report {
		t.Fatal("warm report differs from cold report")
	}

	jobs, err := cl.Jobs(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("job list has %d entries, want 2", len(jobs))
	}
	for _, j := range jobs {
		if j.Report != "" || j.Result != nil {
			t.Fatal("list entries must omit payloads")
		}
	}
	doneJobs, err := cl.Jobs(ctx, client.JobDone)
	if err != nil {
		t.Fatal(err)
	}
	if len(doneJobs) != 2 {
		t.Fatalf("done filter returned %d, want 2", len(doneJobs))
	}
	if _, err := cl.Jobs(ctx, client.JobStatus("bogus")); err == nil {
		t.Fatal("bogus state filter accepted")
	}
}

func TestClientTypedErrors(t *testing.T) {
	cl := startDaemon(t, server.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var apiErr *client.Error
	_, err := cl.Analyze(ctx, client.AnalyzeRequest{Workload: "no-such-workload"})
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeInvalidRequest || apiErr.Temporary() {
		t.Fatalf("bad workload: %v", err)
	}
	_, err = cl.Job(ctx, "missing")
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeNotFound {
		t.Fatalf("unknown job: %v", err)
	}
	// A plain worker has no /v1/nodes; the 404 still decodes to a typed
	// error even without the envelope.
	_, err = cl.Nodes(ctx)
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeNotFound {
		t.Fatalf("nodes on worker: %v", err)
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Role != "worker" || h.APIVersion != client.APIVersion {
		t.Fatalf("health = %+v", h)
	}
}

func TestClientRetriesTemporaryRejections(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(client.ErrorEnvelope{
				APIVersion: client.APIVersion,
				Err:        client.ErrorBody{Code: client.CodeQueueFull, Message: "queue full"},
			})
			return
		}
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(client.Job{ID: "j1", Status: client.JobDone})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cl := client.New(ts.URL, client.WithRetry(client.Retry{Attempts: 4, Base: time.Millisecond, Max: 10 * time.Millisecond}))
	job, err := cl.Analyze(context.Background(), client.AnalyzeRequest{Workload: "fig2"})
	if err != nil {
		t.Fatalf("analyze did not survive temporary rejections: %v", err)
	}
	if job.ID != "j1" || calls.Load() != 3 {
		t.Fatalf("job=%+v calls=%d, want success on third call", job, calls.Load())
	}
}

func TestClientDoesNotRetryPermanentErrors(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(client.ErrorEnvelope{
			Err: client.ErrorBody{Code: client.CodeInvalidRequest, Message: "nope"},
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cl := client.New(ts.URL, client.WithRetry(client.Retry{Attempts: 4, Base: time.Millisecond, Max: 10 * time.Millisecond}))
	_, err := cl.Analyze(context.Background(), client.AnalyzeRequest{})
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeInvalidRequest {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("invalid request retried %d times", calls.Load())
	}
}

// TestClientRefusesShortBody: a body shorter than its declared
// Content-Length fails the call instead of decoding as a shorter
// document.
func TestClientRefusesShortBody(t *testing.T) {
	const doc = `{"id": "j1", "status": "done"}`
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(doc)+10))
		_, _ = io.WriteString(w, doc)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cl := client.New(ts.URL, client.WithRetry(client.Retry{Attempts: 1}))
	if job, err := cl.Job(context.Background(), "j1"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: job %+v, err %v, want io.ErrUnexpectedEOF", job, err)
	}
}

// TestClientWaitCancelsServerSide: when the caller's context dies
// mid-wait, the daemon must not keep computing for a client that gave
// up — Wait fires a detached best-effort cancel.
func TestClientWaitCancelsServerSide(t *testing.T) {
	cl := startDaemon(t, server.Config{Workers: 1, SimulateLatency: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := cl.Analyze(ctx, client.AnalyzeRequest{Workload: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 150*time.Millisecond)
	defer wcancel()
	if _, err := cl.Wait(wctx, job.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait = %v, want deadline exceeded", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		j, err := cl.Job(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == client.JobCanceled {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job was not canceled server-side after Wait gave up")
}
