package server

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"reusetool/pkg/client"
)

// atLeastTwoCPUs raises GOMAXPROCS to 2 for the rest of the test when it
// is 1, so a granted job really fans out.
func atLeastTwoCPUs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestFanOutGrantKeepsEntriesIdentical: a dynamic request's cache entry
// is byte for byte the same whether its job was granted the fan-out or
// ran inline, exact and sampled alike.
func TestFanOutGrantKeepsEntriesIdentical(t *testing.T) {
	atLeastTwoCPUs(t)
	ctx := context.Background()
	for _, req := range []client.AnalyzeRequest{
		{Workload: "fig2"},
		{Workload: "transpose", Hierarchy: "opteron"},
		{Workload: "stencil", SampleRate: 8},
	} {
		rr, err := resolve(req, 0)
		if err != nil {
			t.Fatal(err)
		}
		inline, err := rr.execute(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		fanned, err := rr.execute(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			name string
			a, b []byte
		}{
			{"Report", inline.Report, fanned.Report},
			{"JSON", inline.JSON, fanned.JSON},
			{"Artifact", inline.Artifact, fanned.Artifact},
		} {
			if !bytes.Equal(f.a, f.b) {
				t.Errorf("%s: %s differs with the fan-out (%d vs %d bytes)", req.Workload, f.name, len(f.b), len(f.a))
			}
		}
		if inline.Fingerprint != fanned.Fingerprint {
			t.Errorf("%s: fingerprint %x with the fan-out, %x inline", req.Workload, fanned.Fingerprint, inline.Fingerprint)
		}
	}
}

// TestSchedulerGrantsFanOutToIdleCPUs: on two CPUs the first of three
// concurrent jobs is granted the fan-out and the two that start while
// every CPU has a running job are not; once they end, a lone job is
// granted again. At GOMAXPROCS 1 not even a lone job is.
func TestSchedulerGrantsFanOutToIdleCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := NewScheduler(3, 8, time.Minute, NewMetrics())
	defer s.Drain(context.Background())

	release := make(chan struct{})
	grants := make(chan bool, 1)
	run := func(block bool) func(context.Context, bool) (*CacheEntry, error) {
		return func(_ context.Context, parallel bool) (*CacheEntry, error) {
			grants <- parallel
			if block {
				<-release
			}
			return &CacheEntry{}, nil
		}
	}
	// Each job is submitted only once the one before it is running, so
	// the running count each one starts at is fixed.
	start := func(block bool) (*Job, bool) {
		t.Helper()
		j := submit(t, s, "k", 0, run(block))
		select {
		case g := <-grants:
			return j, g
		case <-time.After(10 * time.Second):
			t.Fatal("job never started")
		}
		return nil, false
	}

	var jobs []*Job
	for i, want := range []bool{true, false, false} {
		j, got := start(true)
		if got != want {
			t.Errorf("job %d of 3 concurrent on 2 CPUs: granted %v, want %v", i+1, got, want)
		}
		jobs = append(jobs, j)
	}
	close(release)
	for _, j := range jobs {
		waitJob(t, j)
	}
	if j, got := start(false); !got {
		t.Error("lone job on 2 CPUs: not granted, want granted")
	} else {
		waitJob(t, j)
	}

	runtime.GOMAXPROCS(1)
	if j, got := start(false); got {
		t.Error("lone job at GOMAXPROCS 1: granted, want not granted")
	} else {
		waitJob(t, j)
	}
}

// TestGrantedJobDeadline: a granted dynamic job that hits its deadline
// mid-run ends with the deadline error, leaves none of its fan-out's
// consumer goroutines behind, and its lone worker then serves the next
// job.
func TestGrantedJobDeadline(t *testing.T) {
	atLeastTwoCPUs(t)
	s := NewScheduler(1, 8, time.Minute, NewMetrics())
	defer s.Drain(context.Background())
	base := runtime.NumGoroutine()

	big, err := resolve(client.AnalyzeRequest{Workload: "sweep3d", Params: map[string]int64{"it": 40, "jt": 40, "kt": 40}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := resolve(client.AnalyzeRequest{Workload: "fig2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan bool, 1)
	slow := submit(t, s, big.cacheKey(), 100*time.Millisecond, func(ctx context.Context, parallel bool) (*CacheEntry, error) {
		granted <- parallel
		return big.execute(ctx, parallel)
	})
	next := submit(t, s, small.cacheKey(), 0, func(ctx context.Context, parallel bool) (*CacheEntry, error) {
		return small.execute(ctx, parallel)
	})

	doc := waitJob(t, slow)
	if !<-granted {
		t.Error("lone job on an idle daemon was not granted the fan-out")
	}
	if doc.Status != client.JobCanceled || !strings.Contains(doc.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("job past its deadline: %s (%s), want canceled with %q", doc.Status, doc.Error, context.DeadlineExceeded)
	}
	if doc := waitJob(t, next); doc.Status != client.JobDone || len(doc.Result) == 0 {
		t.Fatalf("job after the deadline: %s (%s), want done", doc.Status, doc.Error)
	}
	// The worker is parked on the queue again; a joined consumer may
	// not have returned yet, so give it a moment to leave the count.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after both jobs, want at most %d", n, base)
	}
}
