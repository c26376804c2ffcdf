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

// JobStatus is the lifecycle state of a scheduled analysis. The type
// and its values live in pkg/client (they are part of the wire
// protocol); the server aliases them so scheduler code and API
// responses always agree.
type JobStatus = client.JobStatus

// Job lifecycle states, re-exported for the scheduler's callers.
const (
	JobQueued   = client.JobQueued
	JobRunning  = client.JobRunning
	JobDone     = client.JobDone
	JobFailed   = client.JobFailed
	JobCanceled = client.JobCanceled
)

// Submission errors.
var (
	ErrQueueFull = errors.New("server: job queue is full")
	ErrDraining  = errors.New("server: daemon is draining")
)

// Job is one scheduled analysis. The run closure is supplied by the
// server and does the actual pipeline work; the scheduler owns status
// transitions, the per-job deadline, cancellation, and the fan-out
// grant: run's parallel argument says whether the job may fan its event
// stream out across CPUs (core.Options.Parallel).
type Job struct {
	ID  string
	Key string

	// Timeout is the per-job deadline applied when the job starts
	// running (queue wait does not count against it).
	Timeout time.Duration

	run func(ctx context.Context, parallel bool) (*CacheEntry, error)

	mu        sync.Mutex
	status    JobStatus          // guarded by mu
	err       string             // guarded by mu
	result    *CacheEntry        // guarded by mu
	cacheHit  bool               // guarded by mu
	canceled  bool               // guarded by mu; cancel requested while still queued
	cancel    context.CancelFunc // guarded by mu
	submitted time.Time          // guarded by mu
	started   time.Time          // guarded by mu
	finished  time.Time          // guarded by mu
	done      chan struct{}
}

// Snapshot is a consistent copy of a job's externally visible state.
type Snapshot struct {
	ID        string
	Key       string
	Status    JobStatus
	Err       string
	Result    *CacheEntry
	CacheHit  bool
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// Snapshot returns the job's current state under its lock.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:        j.ID,
		Key:       j.Key,
		Status:    j.status,
		Err:       j.err,
		Result:    j.result,
		CacheHit:  j.cacheHit,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Scheduler runs jobs on a bounded worker pool fed by a FIFO queue.
// Submissions beyond the queue bound are rejected immediately
// (ErrQueueFull) rather than blocking the HTTP handler — back-pressure
// is the caller's signal to retry. Drain stops intake, lets queued and
// running jobs finish, and joins the workers.
type Scheduler struct {
	queue   chan *Job
	metrics *Metrics

	mu       sync.Mutex
	jobs     map[string]*Job // guarded by mu
	order    []string        // guarded by mu; job IDs in submission order, for pruning
	seq      uint64          // guarded by mu
	draining bool            // guarded by mu

	running sync.WaitGroup // one count per worker goroutine
	active  sync.Mutex
	activeN int // guarded by active

	defaultTimeout time.Duration
	maxJobs        int
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
		jobs:           map[string]*Job{},
		defaultTimeout: defaultTimeout,
		maxJobs:        MaxJobs,
	}
	for i := 0; i < workers; i++ {
		s.running.Add(1)
		go s.worker()
	}
	return s
}

// NewJob allocates a job record in a terminal or schedulable state.
// Completed cache hits pass run==nil and are recorded done immediately;
// misses get queued by Submit.
func (s *Scheduler) NewJob(key string, timeout time.Duration, run func(ctx context.Context, parallel bool) (*CacheEntry, error)) *Job {
	if timeout <= 0 {
		timeout = s.defaultTimeout
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("j%08d", s.seq)
	j := &Job{
		ID:        id,
		Key:       key,
		Timeout:   timeout,
		run:       run,
		status:    JobQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.prune()
	s.mu.Unlock()
	return j
}

// prune applies PruneJobs to the registry. Caller holds s.mu.
//
//reuse:locked(mu)
func (s *Scheduler) prune() {
	s.order = PruneJobs(s.jobs, s.order, s.maxJobs, func(j *Job) bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.status == JobDone || j.status == JobFailed || j.status == JobCanceled
	})
}

// MaxJobs bounds a job registry: past it, PruneJobs drops the oldest
// terminal jobs, so memory stays bounded under sustained traffic.
const MaxJobs = 4096

// PruneJobs drops the oldest terminal jobs from a registry — jobs keyed
// by ID, order holding the IDs in submission order — until it holds at
// most max jobs, and returns the new order. Live jobs are never dropped:
// when too few jobs are terminal, the registry stays above max. order
// is compacted in place; when only its oldest IDs go, it is resliced.
func PruneJobs[J any](jobs map[string]J, order []string, max int, terminal func(J) bool) []string {
	kept := order[:0]
	for i, id := range order {
		if len(jobs) <= max {
			if len(kept) == 0 {
				return order[i:]
			}
			return append(kept, order[i:]...)
		}
		if terminal(jobs[id]) {
			delete(jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	return kept
}

// Complete marks a job done without scheduling it (cache-hit path).
func (s *Scheduler) Complete(j *Job, e *CacheEntry, hit bool) {
	j.mu.Lock()
	j.status = JobDone
	j.result = e
	j.cacheHit = hit
	j.started = j.submitted
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// Submit queues a job for execution. It never blocks: a full queue
// returns ErrQueueFull and a draining scheduler ErrDraining, and the
// job is marked failed accordingly. The enqueue happens under the
// scheduler lock so it cannot race Drain's close of the queue.
func (s *Scheduler) Submit(j *Job) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(j, ErrDraining)
		return ErrDraining
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
		s.metrics.JobsSubmitted.Add(1)
		return nil
	default:
		s.mu.Unlock()
		s.reject(j, ErrQueueFull)
		return ErrQueueFull
	}
}

func (s *Scheduler) reject(j *Job, err error) {
	s.metrics.JobsRejected.Add(1)
	j.mu.Lock()
	j.status = JobFailed
	j.err = err.Error()
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// Job looks a job up by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns the live job records in submission order (the order
// slice is authoritative; pruned IDs are skipped).
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel requests cancellation: a queued job is marked canceled and
// skipped when dequeued; a running job has its context canceled, which
// aborts the interpreter within one access batch. Returns false for
// unknown or already-terminal jobs.
func (s *Scheduler) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case JobQueued:
		j.canceled = true
		return true
	case JobRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return true
	}
	return false
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
// finish, then returns. If ctx expires first, running jobs are canceled
// and Drain waits (briefly) for them to abort before returning ctx's
// error.
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
		// Force-cancel whatever is still running, then wait for the
		// workers to observe it.
		s.mu.Lock()
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.status == JobRunning && j.cancel != nil {
				j.cancel()
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
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

// runJob executes one job under its own timeout. The job context is
// deliberately rooted here rather than derived from the submitting HTTP
// request: a queued job must survive the submitter disconnecting.
//
//reuse:ctx-root
func (s *Scheduler) runJob(j *Job) {
	j.mu.Lock()
	if j.canceled {
		j.status = JobCanceled
		j.err = context.Canceled.Error()
		j.finished = time.Now()
		j.mu.Unlock()
		s.metrics.JobsCanceled.Add(1)
		close(j.done)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), j.Timeout)
	j.status = JobRunning
	j.cancel = cancel
	j.started = time.Now()
	j.mu.Unlock()

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

	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = JobDone
		j.result = entry
		s.metrics.JobsCompleted.Add(1)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.status = JobCanceled
		j.err = err.Error()
		s.metrics.JobsCanceled.Add(1)
	default:
		j.status = JobFailed
		j.err = err.Error()
		s.metrics.JobsFailed.Add(1)
	}
	j.mu.Unlock()
	close(j.done)
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
