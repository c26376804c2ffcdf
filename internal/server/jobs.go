package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"reusetool/pkg/client"
)

// The job surface both roles serve: a worker's scheduled analyses and a
// coordinator's proxied ones are Jobs in a Registry, and the three job
// routes are the Registry's handlers.

// Job is one job either role serves. Its visible state is its v1
// document, stamped as each state change happens; beside it sit the
// result entry a worker serves the report and result from, the context
// a cancel ends, and the channel closed once the job is terminal.
type Job struct {
	id string
	// ctx ends by cancel, on a cancel request or once the job is
	// terminal; both are nil for a job registered done.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// run is a worker job's analysis; parallel is the scheduler's
	// fan-out grant (core.Options.Parallel). timeout is its deadline,
	// counted from when it starts: queue wait does not count.
	run     func(ctx context.Context, parallel bool) (*CacheEntry, error)
	timeout time.Duration

	mu     sync.Mutex
	doc    client.Job  // guarded by mu
	result *CacheEntry // guarded by mu; set once the job is done
}

// stamp formats a state change's time as job documents carry it.
func stamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

// ID is the job's registry ID.
func (j *Job) ID() string { return j.id }

// Context ends when the job is canceled or reaches a terminal state. A
// job registered done has none.
func (j *Job) Context() context.Context { return j.ctx }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Doc returns the job's document, with the report and result of a done
// worker job.
func (j *Job) Doc() client.Job {
	j.mu.Lock()
	doc, e := j.doc, j.result
	j.mu.Unlock()
	if e != nil {
		doc.Report, doc.Result = string(e.Report), e.JSON
	}
	return doc
}

// Cancel ends the job's context unless the job is already terminal,
// which it reports as false. A queued worker job is then skipped when
// dequeued and a running one stops within one access batch; a
// coordinator's watcher forwards the cancel to the worker holding the
// job; and the training jobs of a fit, whose contexts derive from the
// fit's, end with it.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.doc.Status.Terminal() {
		return false
	}
	j.cancel()
	return true
}

// start marks a queued job running.
func (j *Job) start() {
	j.mu.Lock()
	j.doc.Status, j.doc.Started = client.JobRunning, stamp(time.Now())
	j.mu.Unlock()
}

// Finish ends a live job: its status, the error message of a job that
// did not succeed, the finished stamp and, for a done worker job, the
// result entry. It does nothing to a terminal job.
func (j *Job) Finish(status client.JobStatus, msg string, e *CacheEntry) {
	j.mu.Lock()
	if j.doc.Status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.doc.Status, j.doc.Error, j.doc.Finished = status, msg, stamp(time.Now())
	j.result = e
	j.mu.Unlock()
	j.end()
}

// Mirror sets the document to doc, a worker's document of this job,
// under this job's ID and submission stamp, and ends the job when doc
// is terminal.
func (j *Job) Mirror(doc client.Job) {
	j.mu.Lock()
	if j.doc.Status.Terminal() {
		j.mu.Unlock()
		return
	}
	doc.APIVersion, doc.ID, doc.Submitted = client.APIVersion, j.id, j.doc.Submitted
	j.doc = doc
	j.mu.Unlock()
	if doc.Status.Terminal() {
		j.end()
	}
}

// end releases the context of a job that has just become terminal and
// closes done.
func (j *Job) end() {
	j.cancel()
	close(j.done)
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doc.Status.Terminal()
}

// maxJobs bounds a registry: past it, registering a job drops the
// oldest terminal ones, so memory stays bounded under sustained
// traffic.
const maxJobs = 4096

// Registry holds the jobs one role serves: it mints their IDs, keeps
// them in submission order, and drops the oldest terminal ones past its
// bound (live jobs are never dropped; with too few terminal ones it
// stays above the bound). Its handlers serve the job routes.
type Registry struct {
	format string // ID format: j%08d on a worker, c-%06d on a coordinator

	mu    sync.Mutex
	byID  map[string]*Job // guarded by mu
	order []*Job          // guarded by mu; submission order
	seq   int             // guarded by mu
	max   int             // guarded by mu
}

// NewRegistry returns an empty registry whose IDs are format with a
// sequence number.
func NewRegistry(format string) *Registry {
	return &Registry{format: format, byID: map[string]*Job{}, max: maxJobs}
}

// SetMax changes how many jobs the registry keeps before it drops
// terminal ones (4096 unless changed).
func (r *Registry) SetMax(n int) {
	r.mu.Lock()
	r.max = n
	r.mu.Unlock()
}

// Add registers a job for key under the next ID: queued, with a context
// of its own, or, given a cache hit, already done with hit as its
// result. The job's lifetime is rooted here, not in the submitting
// request: a queued job must survive its submitter disconnecting.
//
//reuse:ctx-root
func (r *Registry) Add(key string, hit *CacheEntry) *Job {
	now := stamp(time.Now())
	j := &Job{done: make(chan struct{})}
	doc := client.Job{APIVersion: client.APIVersion, Status: client.JobQueued, Key: key, Submitted: now}
	if hit != nil {
		doc.Status, doc.CacheHit, doc.Started, doc.Finished = client.JobDone, true, now, now
		close(j.done)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.register(j, fmt.Sprintf(r.format, r.seq), doc, hit)
	return j
}

// AddChild registers the i-th training job of the fit parent, as
// <parent>-t<i>: queued, with a context derived from the fit's, so
// cancelling the fit cancels it too.
func (r *Registry) AddChild(parent *Job, i int, key string) *Job {
	j := &Job{done: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancel(parent.ctx)
	doc := client.Job{APIVersion: client.APIVersion, Status: client.JobQueued, Key: key, Submitted: stamp(time.Now())}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(j, fmt.Sprintf("%s-t%d", parent.id, i), doc, nil)
	return j
}

// register files j, not yet shared, under id with its document and
// result, then drops the oldest terminal jobs past the bound: never a
// live job, nor j. Caller holds r.mu.
//
//reuse:locked(mu)
func (r *Registry) register(j *Job, id string, doc client.Job, result *CacheEntry) {
	j.id, doc.ID = id, id
	j.mu.Lock()
	j.doc, j.result = doc, result
	j.mu.Unlock()
	r.byID[id] = j
	r.order = append(r.order, j)
	if len(r.byID) <= r.max {
		return
	}
	older := r.order[:len(r.order)-1]
	kept := older[:0]
	for i, old := range older {
		if len(r.byID) <= r.max {
			if len(kept) == 0 {
				// Only the oldest went: reslice, and let them go.
				clear(r.order[:i])
				r.order = r.order[i:]
				return
			}
			kept = append(kept, older[i:]...)
			break
		}
		if old.terminal() {
			delete(r.byID, old.id)
			continue
		}
		kept = append(kept, old)
	}
	kept = append(kept, j)
	clear(r.order[len(kept):])
	r.order = r.order[:len(kept)]
}

// Lookup finds a job by ID.
func (r *Registry) Lookup(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// List returns the jobs in submission order.
func (r *Registry) List() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Job(nil), r.order...)
}

// lookup finds the job a /v1/jobs/{id} request names, or answers 404.
func (r *Registry) lookup(w http.ResponseWriter, req *http.Request) (*Job, bool) {
	j, ok := r.Lookup(req.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, client.CodeNotFound, "unknown job %q", req.PathValue("id"))
	}
	return j, ok
}

// HandleGet serves GET /v1/jobs/{id}: the job's document.
func (r *Registry) HandleGet(w http.ResponseWriter, req *http.Request) {
	if j, ok := r.lookup(w, req); ok {
		doc := j.Doc()
		WriteJob(w, http.StatusOK, &doc)
	}
}

// HandleList serves GET /v1/jobs: job summaries in submission order,
// optionally filtered with ?state=queued|running|done|failed|canceled.
// Summaries omit the report and result payloads; fetch a job by ID for
// those.
func (r *Registry) HandleList(w http.ResponseWriter, req *http.Request) {
	state, ok := StateFilter(w, req)
	if !ok {
		return
	}
	list := client.JobList{APIVersion: client.APIVersion, Jobs: []client.Job{}}
	for _, j := range r.List() {
		j.mu.Lock()
		doc := j.doc
		j.mu.Unlock()
		if state != "" && doc.Status != state {
			continue
		}
		doc.Report, doc.Result = "", nil
		list.Jobs = append(list.Jobs, doc)
	}
	WriteJSON(w, http.StatusOK, list)
}

// HandleCancel serves DELETE /v1/jobs/{id}: it cancels the job and
// answers its document as it stands, or 409 when the job is already
// terminal.
func (r *Registry) HandleCancel(w http.ResponseWriter, req *http.Request) {
	j, ok := r.lookup(w, req)
	if !ok {
		return
	}
	if !j.Cancel() {
		WriteError(w, http.StatusConflict, client.CodeConflict, "job %s is not cancelable", j.id)
		return
	}
	doc := j.Doc()
	WriteJob(w, http.StatusOK, &doc)
}
