package server

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func waitJob(t *testing.T, j *Job) Snapshot {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never finished", j.ID)
	}
	return j.Snapshot()
}

func TestSchedulerRunsJobsFIFO(t *testing.T) {
	m := NewMetrics()
	s := NewScheduler(1, 8, time.Minute, m)
	defer s.Drain(context.Background())

	var order []string
	jobs := make([]*Job, 3)
	for i := range jobs {
		id := string(rune('a' + i))
		jobs[i] = s.NewJob("k"+id, 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
			order = append(order, id) // single worker: no data race
			return &CacheEntry{Key: "k" + id}, nil
		})
	}
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		snap := waitJob(t, j)
		if snap.Status != JobDone {
			t.Fatalf("job %s: %s (%s)", j.ID, snap.Status, snap.Err)
		}
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("execution order %v, want [a b c]", order)
	}
	if m.JobsCompleted.Load() != 3 {
		t.Fatalf("completed = %d", m.JobsCompleted.Load())
	}
}

func TestSchedulerQueueBound(t *testing.T) {
	s := NewScheduler(1, 1, time.Minute, NewMetrics())
	defer s.Drain(context.Background())

	release := make(chan struct{})
	blocker := s.NewJob("blocker", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		<-release
		return nil, nil
	})
	if err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	// Wait until the blocker occupies the worker so the queue is empty.
	deadline := time.Now().Add(5 * time.Second)
	for s.Running() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	// One fits in the queue; the next must be rejected, not block.
	q := s.NewJob("queued", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) { return nil, nil })
	if err := s.Submit(q); err != nil {
		t.Fatal(err)
	}
	rej := s.NewJob("rejected", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) { return nil, nil })
	if err := s.Submit(rej); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if snap := rej.Snapshot(); snap.Status != JobFailed {
		t.Fatalf("rejected job status %s", snap.Status)
	}
	close(release)
	waitJob(t, q)
}

func TestSchedulerPerJobDeadline(t *testing.T) {
	s := NewScheduler(1, 4, time.Minute, NewMetrics())
	defer s.Drain(context.Background())

	j := s.NewJob("slow", 20*time.Millisecond, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, errors.New("deadline did not fire")
		}
	})
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	snap := waitJob(t, j)
	if snap.Status != JobCanceled {
		t.Fatalf("status %s (%s), want canceled", snap.Status, snap.Err)
	}
}

func TestSchedulerCancelQueuedAndRunning(t *testing.T) {
	s := NewScheduler(1, 4, time.Minute, NewMetrics())
	defer s.Drain(context.Background())

	release := make(chan struct{})
	running := s.NewJob("running", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		close(release)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err := s.Submit(running); err != nil {
		t.Fatal(err)
	}
	queued := s.NewJob("queued", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		return nil, errors.New("canceled job ran")
	})
	if err := s.Submit(queued); err != nil {
		t.Fatal(err)
	}
	<-release // running job is on the worker
	if !s.Cancel(queued.ID) {
		t.Fatal("cancel(queued) = false")
	}
	if !s.Cancel(running.ID) {
		t.Fatal("cancel(running) = false")
	}
	if snap := waitJob(t, running); snap.Status != JobCanceled {
		t.Fatalf("running job status %s", snap.Status)
	}
	if snap := waitJob(t, queued); snap.Status != JobCanceled {
		t.Fatalf("queued job status %s", snap.Status)
	}
	if s.Cancel("nope") {
		t.Fatal("cancel of unknown job succeeded")
	}
}

func TestSchedulerDrain(t *testing.T) {
	s := NewScheduler(2, 8, time.Minute, NewMetrics())

	var ran atomic.Int32
	jobs := make([]*Job, 5)
	for i := range jobs {
		jobs[i] = s.NewJob("k", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
			time.Sleep(5 * time.Millisecond)
			ran.Add(1)
			return nil, nil
		})
		if err := s.Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 5 {
		t.Fatalf("drain finished %d of 5 jobs", got)
	}
	// Post-drain submissions are refused.
	late := s.NewJob("late", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) { return nil, nil })
	if err := s.Submit(late); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerDrainDeadlineCancelsStragglers(t *testing.T) {
	s := NewScheduler(1, 4, time.Minute, NewMetrics())
	started := make(chan struct{})
	j := s.NewJob("straggler", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v", err)
	}
	if snap := waitJob(t, j); snap.Status != JobCanceled {
		t.Fatalf("straggler status %s", snap.Status)
	}
}

// TestSchedulerPrunesOldestTerminalJobs: past its cap the registry drops
// its oldest terminal jobs first, and never a live one — with every job
// live it grows past the cap instead.
func TestSchedulerPrunesOldestTerminalJobs(t *testing.T) {
	s := NewScheduler(1, 8, time.Minute, NewMetrics())
	defer s.Drain(context.Background())
	release := make(chan struct{})
	defer close(release) // runs before Drain
	s.maxJobs = 3

	done := func() *Job {
		j := s.NewJob("done", 0, nil)
		s.Complete(j, &CacheEntry{}, true)
		return j
	}
	live := func() *Job {
		j := s.NewJob("live", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
			<-release
			return &CacheEntry{}, nil
		})
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		return j
	}
	d1, l1, d2, d3 := done(), live(), done(), done()
	l2, l3, l4 := live(), live(), live()

	for _, j := range []*Job{d1, d2, d3} {
		if _, ok := s.Job(j.ID); ok {
			t.Errorf("terminal job %s survived pruning", j.ID)
		}
	}
	var got []string
	for _, j := range s.Jobs() {
		got = append(got, j.ID)
	}
	want := []string{l1.ID, l2.ID, l3.ID, l4.ID}
	if len(got) != len(want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry = %v, want %v", got, want)
		}
	}
}

// TestSchedulerPanicFailsOnlyItsJob: a panic in one job's run fails
// that job, with the panic value and the stack in its error, and the
// lone worker goes on to complete the job queued behind it.
func TestSchedulerPanicFailsOnlyItsJob(t *testing.T) {
	m := NewMetrics()
	s := NewScheduler(1, 8, time.Minute, m)
	defer s.Drain(context.Background())

	bad := s.NewJob("bad", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		panic("boom")
	})
	good := s.NewJob("good", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		return &CacheEntry{Key: "good"}, nil
	})
	for _, j := range []*Job{bad, good} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	snap := waitJob(t, bad)
	if snap.Status != JobFailed {
		t.Fatalf("panicking job: %s, want failed", snap.Status)
	}
	if !strings.Contains(snap.Err, "boom") || !strings.Contains(snap.Err, "scheduler_test.go") {
		t.Fatalf("panicking job's error lacks the panic value or its stack:\n%s", snap.Err)
	}
	if snap := waitJob(t, good); snap.Status != JobDone || snap.Result == nil || snap.Result.Key != "good" {
		t.Fatalf("job after the panic: %s (%s)", snap.Status, snap.Err)
	}
	if m.JobsFailed.Load() != 1 || m.JobsCompleted.Load() != 1 {
		t.Fatalf("failed/completed = %d/%d, want 1/1", m.JobsFailed.Load(), m.JobsCompleted.Load())
	}
	if n := s.Running(); n != 0 {
		t.Fatalf("running = %d after both jobs ended, want 0", n)
	}
}
