package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reusetool/pkg/client"
)

func waitJob(t *testing.T, j *Job) client.Job {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never finished", j.ID())
	}
	return j.Doc()
}

// submit queues run as a job for key, failing the test on a refusal.
func submit(t *testing.T, s *Scheduler, key string, timeout time.Duration, run func(context.Context, bool) (*CacheEntry, error)) *Job {
	t.Helper()
	j, err := s.Submit(key, timeout, run)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestSchedulerRunsJobsFIFO(t *testing.T) {
	m := NewMetrics()
	s := NewScheduler(1, 8, time.Minute, m)
	defer s.Drain(context.Background())

	var order []string
	jobs := make([]*Job, 3)
	for i := range jobs {
		id := string(rune('a' + i))
		jobs[i] = submit(t, s, "k"+id, 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
			order = append(order, id) // single worker: no data race
			return &CacheEntry{Key: "k" + id}, nil
		})
	}
	for _, j := range jobs {
		doc := waitJob(t, j)
		if doc.Status != client.JobDone {
			t.Fatalf("job %s: %s (%s)", j.ID(), doc.Status, doc.Error)
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
	submit(t, s, "blocker", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		<-release
		return nil, nil
	})
	// Wait until the blocker occupies the worker so the queue is empty.
	deadline := time.Now().Add(5 * time.Second)
	for s.Running() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	// One fits in the queue; the next must be rejected, not block.
	q := submit(t, s, "queued", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) { return nil, nil })
	rej, err := s.Submit("rejected", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) { return nil, nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if doc := rej.Doc(); doc.Status != client.JobFailed || doc.Error != ErrQueueFull.Error() {
		t.Fatalf("rejected job: %s (%s)", doc.Status, doc.Error)
	}
	close(release)
	waitJob(t, q)
}

func TestSchedulerPerJobDeadline(t *testing.T) {
	s := NewScheduler(1, 4, time.Minute, NewMetrics())
	defer s.Drain(context.Background())

	j := submit(t, s, "slow", 20*time.Millisecond, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, errors.New("deadline did not fire")
		}
	})
	doc := waitJob(t, j)
	if doc.Status != client.JobCanceled {
		t.Fatalf("status %s (%s), want canceled", doc.Status, doc.Error)
	}
}

func TestSchedulerCancelQueuedAndRunning(t *testing.T) {
	s := NewScheduler(1, 4, time.Minute, NewMetrics())
	defer s.Drain(context.Background())

	release := make(chan struct{})
	running := submit(t, s, "running", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		close(release)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	queued := submit(t, s, "queued", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		return nil, errors.New("canceled job ran")
	})
	<-release // running job is on the worker
	if !queued.Cancel() {
		t.Fatal("cancel(queued) = false")
	}
	if !running.Cancel() {
		t.Fatal("cancel(running) = false")
	}
	if doc := waitJob(t, running); doc.Status != client.JobCanceled {
		t.Fatalf("running job status %s", doc.Status)
	}
	if doc := waitJob(t, queued); doc.Status != client.JobCanceled {
		t.Fatalf("queued job status %s", doc.Status)
	}
	if running.Cancel() {
		t.Fatal("cancel of a terminal job succeeded")
	}
}

func TestSchedulerDrain(t *testing.T) {
	s := NewScheduler(2, 8, time.Minute, NewMetrics())

	var ran atomic.Int32
	for range 5 {
		submit(t, s, "k", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
			time.Sleep(5 * time.Millisecond)
			ran.Add(1)
			return nil, nil
		})
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 5 {
		t.Fatalf("drain finished %d of 5 jobs", got)
	}
	// Post-drain submissions are refused.
	if _, err := s.Submit("late", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
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
	j := submit(t, s, "straggler", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v", err)
	}
	if doc := waitJob(t, j); doc.Status != client.JobCanceled {
		t.Fatalf("straggler status %s", doc.Status)
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
	s.jobs.SetMax(3)

	done := func() *Job { return s.jobs.Add("done", &CacheEntry{}) }
	live := func() *Job {
		return submit(t, s, "live", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
			<-release
			return &CacheEntry{}, nil
		})
	}
	d1, l1, d2, d3 := done(), live(), done(), done()
	l2, l3, l4 := live(), live(), live()

	for _, j := range []*Job{d1, d2, d3} {
		if _, ok := s.jobs.Lookup(j.ID()); ok {
			t.Errorf("terminal job %s survived pruning", j.ID())
		}
	}
	var got []string
	for _, j := range s.jobs.List() {
		got = append(got, j.ID())
	}
	want := []string{l1.ID(), l2.ID(), l3.ID(), l4.ID()}
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

	bad := submit(t, s, "bad", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		panic("boom")
	})
	good := submit(t, s, "good", 0, func(ctx context.Context, _ bool) (*CacheEntry, error) {
		return &CacheEntry{Key: "good", JSON: []byte(`"good"`)}, nil
	})
	doc := waitJob(t, bad)
	if doc.Status != client.JobFailed {
		t.Fatalf("panicking job: %s, want failed", doc.Status)
	}
	if !strings.Contains(doc.Error, "boom") || !strings.Contains(doc.Error, "scheduler_test.go") {
		t.Fatalf("panicking job's error lacks the panic value or its stack:\n%s", doc.Error)
	}
	if doc := waitJob(t, good); doc.Status != client.JobDone || string(doc.Result) != `"good"` {
		t.Fatalf("job after the panic: %s (%s)", doc.Status, doc.Error)
	}
	if m.JobsFailed.Load() != 1 || m.JobsCompleted.Load() != 1 {
		t.Fatalf("failed/completed = %d/%d, want 1/1", m.JobsFailed.Load(), m.JobsCompleted.Load())
	}
	if n := s.Running(); n != 0 {
		t.Fatalf("running = %d after both jobs ended, want 0", n)
	}
}

// TestRegistryConcurrentUse registers, cancels, finishes, looks up and
// lists jobs from several goroutines at once past a small bound; once
// they are done, the bound holds over the terminal jobs and every
// listed job is found by its ID.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry("j%08d")
	r.SetMax(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%3 == 0 {
					r.Add("hit", &CacheEntry{})
					continue
				}
				j := r.Add("live", nil)
				if i%2 == 0 {
					j.Cancel()
				}
				j.Finish(client.JobDone, "", nil)
				for _, l := range r.List() {
					r.Lookup(l.ID())
				}
			}
		}()
	}
	wg.Wait()
	list := r.List()
	if len(list) > 16 {
		t.Fatalf("registry holds %d terminal jobs past a bound of 16", len(list))
	}
	for _, j := range list {
		if got, ok := r.Lookup(j.ID()); !ok || got != j {
			t.Fatalf("listed job %s not found by its ID", j.ID())
		}
	}
}
