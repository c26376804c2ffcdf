package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer lets the test read daemon output while run() writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a channel carrying run's exit code. The daemon stops when the
// test ends: its context is canceled, and the cleanup waits for run to
// return and requires a clean drain.
func startDaemon(t *testing.T, extra ...string) (string, *syncBuffer, chan int) {
	t.Helper()
	out := &syncBuffer{}
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-cache-dir", t.TempDir(),
		"-drain-timeout", "10s",
	}, extra...)
	ctx, cancel := context.WithCancel(context.Background())
	exit := make(chan int, 1)
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		exit <- run(ctx, args, out)
	}()
	t.Cleanup(func() {
		cancel()
		<-returned
		select {
		case code := <-exit:
			if code != 0 {
				t.Errorf("daemon %v exited %d; output:\n%s", extra, code, out.String())
			}
		default: // the test read the exit code itself
		}
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, line := range strings.Split(out.String(), "\n") {
			if addr, ok := strings.CutPrefix(line, "reusetoold-addr "); ok {
				return "http://" + strings.TrimSpace(addr), out, exit
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, v
}

func TestDaemonEndToEndWithGracefulShutdown(t *testing.T) {
	base, out, exit := startDaemon(t)

	// Cold submission runs the analysis.
	req := map[string]any{"workload": "fig1a"}
	status, job := postJSON(t, base+"/v1/analyze", req)
	if status != http.StatusAccepted {
		t.Fatalf("cold analyze: status %d, body %v", status, job)
	}
	id, _ := job["id"].(string)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, id))
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if s, _ := v["status"].(string); s == "done" {
			break
		} else if s == "failed" || s == "canceled" {
			t.Fatalf("job %s: %s (%v)", id, s, v["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Warm resubmission is served from the cache.
	status, job = postJSON(t, base+"/v1/analyze", req)
	if status != http.StatusOK || job["cache_hit"] != true {
		t.Fatalf("warm analyze: status %d, cache_hit %v", status, job["cache_hit"])
	}

	// SIGTERM drains and exits cleanly. NotifyContext catches the signal
	// before it can kill the test process.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; output:\n%s", code, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not shut down; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shutdown: done") {
		t.Fatalf("missing shutdown log; output:\n%s", out.String())
	}
}

// TestDaemonRejectsBadFlags: an unknown flag exits 2, and the error and
// usage go to run's writer, not to the process's stderr.
func TestDaemonRejectsBadFlags(t *testing.T) {
	out := &syncBuffer{}
	if code := run(context.Background(), []string{"-no-such-flag"}, out); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(out.String(), "-no-such-flag") {
		t.Fatalf("the output does not name the bad flag:\n%s", out.String())
	}
}
