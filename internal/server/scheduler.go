package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"reusetool/pkg/client"
)

// Submission errors.
var (
	ErrQueueFull = errors.New("server: job queue is full")
	ErrDraining  = errors.New("server: daemon is draining")
)

// Scheduler runs jobs on a bounded worker pool fed by a FIFO queue.
// Submissions beyond the queue bound are rejected immediately
// (ErrQueueFull) rather than blocking the HTTP handler — back-pressure
// is the caller's signal to retry. Drain stops intake, lets queued and
// running jobs finish, and joins the workers.
type Scheduler struct {
	queue   chan *Job
	metrics *Metrics
	jobs    *Registry

	mu       sync.Mutex
	draining bool // guarded by mu

	running sync.WaitGroup // one count per worker goroutine
	active  sync.Mutex
	activeN int // guarded by active

	defaultTimeout time.Duration
}

// NewScheduler builds and starts a pool of workers. queueDepth bounds
// the FIFO; defaultTimeout applies to jobs submitted without their own.
func NewScheduler(workers, queueDepth int, defaultTimeout time.Duration, m *Metrics) *Scheduler {
	if workers <= 0 {
		workers = 1
	}
	if queueDepth <= 0 {
		queueDepth = 64
	}
	if defaultTimeout <= 0 {
		defaultTimeout = 2 * time.Minute
	}
	if m == nil {
		m = NewMetrics()
	}
	s := &Scheduler{
		queue:          make(chan *Job, queueDepth),
		metrics:        m,
		jobs:           NewRegistry("j%08d"),
		defaultTimeout: defaultTimeout,
	}
	for i := 0; i < workers; i++ {
		s.running.Add(1)
		go s.worker()
	}
	return s
}

// Submit registers a job for key and queues run for execution under
// timeout (the default when 0). It never blocks: a full queue returns
// ErrQueueFull and a draining scheduler ErrDraining, and the job is
// recorded failed accordingly. The enqueue happens under the scheduler
// lock so it cannot race Drain's close of the queue.
func (s *Scheduler) Submit(key string, timeout time.Duration, run func(ctx context.Context, parallel bool) (*CacheEntry, error)) (*Job, error) {
	if timeout <= 0 {
		timeout = s.defaultTimeout
	}
	j := s.jobs.Add(key, nil)
	// Only the worker that dequeues j reads these, after the send below.
	j.run, j.timeout = run, timeout
	s.mu.Lock()
	err := ErrDraining
	if !s.draining {
		select {
		case s.queue <- j:
			err = nil
		default:
			err = ErrQueueFull
		}
	}
	s.mu.Unlock()
	if err != nil {
		s.metrics.JobsRejected.Add(1)
		j.Finish(client.JobFailed, err.Error(), nil)
		return j, err
	}
	s.metrics.JobsSubmitted.Add(1)
	return j, nil
}

// QueueDepth reports the jobs currently waiting in the FIFO.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// Running reports the jobs currently executing.
func (s *Scheduler) Running() int {
	s.active.Lock()
	defer s.active.Unlock()
	return s.activeN
}

// Draining reports whether Drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops intake, waits for the queue to empty and every worker to
// finish, then returns. If ctx expires first, every live job is
// canceled (running ones stop, queued ones are skipped) and Drain waits
// briefly for the workers to observe it before returning ctx's error.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.running.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		// Cancel every live job, then wait for the workers to observe
		// it: running jobs stop, queued ones are skipped.
		for _, j := range s.jobs.List() {
			j.Cancel()
		}
		<-finished
		return ctx.Err()
	}
}

func (s *Scheduler) worker() {
	defer s.running.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job under its own timeout, within the job's
// context, unless the job was canceled while queued.
func (s *Scheduler) runJob(j *Job) {
	if err := j.ctx.Err(); err != nil {
		s.metrics.JobsCanceled.Add(1)
		j.Finish(client.JobCanceled, err.Error(), nil)
		return
	}
	ctx, cancel := context.WithTimeout(j.ctx, j.timeout)
	j.start()

	s.active.Lock()
	s.activeN++
	// Grant the fan-out only while a CPU would otherwise sit idle:
	// counting this job, fewer jobs run than there are CPUs. Jobs that
	// start on a busy daemon run inline, so concurrent jobs do not
	// oversubscribe the CPUs.
	parallel := s.activeN < runtime.GOMAXPROCS(0)
	s.active.Unlock()

	start := time.Now()
	entry, err := runRecovered(ctx, j.run, parallel)
	s.metrics.AnalyzeNanos.Add(uint64(time.Since(start)))
	cancel()

	s.active.Lock()
	s.activeN--
	s.active.Unlock()

	switch {
	case err == nil:
		s.metrics.JobsCompleted.Add(1)
		j.Finish(client.JobDone, "", entry)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.metrics.JobsCanceled.Add(1)
		j.Finish(client.JobCanceled, err.Error(), nil)
	default:
		s.metrics.JobsFailed.Add(1)
		j.Finish(client.JobFailed, err.Error(), nil)
	}
}

// runRecovered calls run and turns a panic into an error carrying the
// panic value and the stack, so a bug reached by one job fails that job
// instead of killing the worker and every job queued behind it.
func runRecovered(ctx context.Context, run func(context.Context, bool) (*CacheEntry, error), parallel bool) (entry *CacheEntry, err error) {
	defer func() {
		if p := recover(); p != nil {
			entry, err = nil, fmt.Errorf("server: job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return run(ctx, parallel)
}
