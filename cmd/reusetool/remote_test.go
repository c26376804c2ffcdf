package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reusetool/internal/server"
	"reusetool/pkg/client"
)

func TestResolveModeRemote(t *testing.T) {
	mode, err := resolveMode(map[string]bool{"remote": true, "workload": true, "level": true})
	if err != nil || mode != modeRemote {
		t.Fatalf("mode = %q, err = %v", mode, err)
	}
	if _, err := resolveMode(map[string]bool{"remote": true, "xml": true}); err == nil ||
		!strings.Contains(err.Error(), "-xml") {
		t.Fatalf("remote+xml not rejected: %v", err)
	}
	if _, err := resolveMode(map[string]bool{"remote": true, "static": true}); err == nil ||
		!strings.Contains(err.Error(), "choose one") {
		t.Fatalf("remote+static not rejected: %v", err)
	}
}

// TestRunRemoteAgainstDaemon drives the -remote client against a real
// in-process daemon: cold submission polls a job to completion, warm
// resubmission is served from the cache, and both print the same
// report.
func TestRunRemoteAgainstDaemon(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := client.AnalyzeRequest{Workload: "fig2"}
	var cold, warm, errw bytes.Buffer
	if err := runRemote(context.Background(), ts.URL, req, &cold, &errw); err != nil {
		t.Fatalf("cold: %v (%s)", err, errw.String())
	}
	if !strings.Contains(errw.String(), "queued") {
		t.Errorf("cold run did not queue a job: %s", errw.String())
	}
	errw.Reset()
	if err := runRemote(context.Background(), ts.URL, req, &warm, &errw); err != nil {
		t.Fatalf("warm: %v (%s)", err, errw.String())
	}
	if !strings.Contains(errw.String(), "cache") {
		t.Errorf("warm run not served from cache: %s", errw.String())
	}
	if cold.Len() == 0 || !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatalf("cold and warm reports differ (%d vs %d bytes)", cold.Len(), warm.Len())
	}
}

// TestRunRemoteCanceledJobMapsToDeadline: a daemon-side cancellation
// (the server half of -timeout) must surface as DeadlineExceeded so the
// CLI exits 3, same as a local deadline.
func TestRunRemoteCanceledJobMapsToDeadline(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(client.Job{ID: "j1", Status: client.JobQueued})
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(client.Job{
			ID: "j1", Status: client.JobCanceled, Error: "job deadline exceeded",
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out, errw bytes.Buffer
	err := runRemote(context.Background(), ts.URL, client.AnalyzeRequest{Workload: "fig2"}, &out, &errw)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestRunRemoteFitPredict drives -remote -fit and -remote -predict
// against an in-process daemon: a predict before any fit exits 1 with
// the typed not_found code, the fit prints the model summary, a refit
// is served from the daemon cache, and a predict prints the report.
func TestRunRemoteFitPredict(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	fit := fitCLI{workload: "fig2", train: bindings(64, 96, 128), params: map[string]int64{"N": 2048}, level: "L2"}
	predict := fit
	predict.predict = true

	var out, errw bytes.Buffer
	err = runRemoteFitPredict(ctx, ts.URL, &out, &errw, predict, 0)
	var msg bytes.Buffer
	if code := fail(&msg, err); code != 1 || !strings.HasPrefix(msg.String(), "not_found: ") {
		t.Fatalf("predict before fit: exit %d, stderr %q; want exit 1 with not_found:", code, msg.String())
	}

	// The daemon's model summary matches a local fit of the same spec.
	var local bytes.Buffer
	if code := runFitPredict(ctx, &local, &errw, fit); code != 0 {
		t.Fatalf("local fit: exit %d: %s", code, errw.String())
	}
	for _, want := range []string{"fit job ", "model served from daemon cache"} {
		out.Reset()
		errw.Reset()
		if err := runRemoteFitPredict(ctx, ts.URL, &out, &errw, fit, 0); err != nil {
			t.Fatalf("remote fit: %v (%s)", err, errw.String())
		}
		if out.String() != local.String() {
			t.Fatalf("remote fit summary:\n%s\nlocal fit summary:\n%s", out.String(), local.String())
		}
		if !strings.HasPrefix(errw.String(), want) {
			t.Fatalf("remote fit stderr %q, want prefix %q", errw.String(), want)
		}
	}

	out.Reset()
	errw.Reset()
	if err := runRemoteFitPredict(ctx, ts.URL, &out, &errw, predict, 0); err != nil {
		t.Fatalf("remote predict: %v (%s)", err, errw.String())
	}
	if !strings.Contains(out.String(), "N=2048") || !strings.HasPrefix(errw.String(), "predicted in ") {
		t.Fatalf("remote predict: stdout %q, stderr %q", out.String(), errw.String())
	}
}

// TestTimeoutExitStatus builds the real binary and checks the contract
// stated in the docs: a -timeout deadline that fires mid-analysis exits
// with status 3, distinct from failures (1) and usage errors (2).
func TestTimeoutExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "reusetool")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin,
		"-workload", "sweep3d",
		"-param", "it=40", "-param", "jt=40", "-param", "kt=40", "-param", "ts=8",
		"-timeout", "30ms")
	start := time.Now()
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("err = %v, want exit status 3", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline was not honored promptly (took %s)", elapsed)
	}
}
