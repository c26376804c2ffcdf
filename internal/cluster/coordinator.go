package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"reusetool/internal/server"
	"reusetool/pkg/client"
)

// Config shapes a Coordinator.
type Config struct {
	// Peers are the worker daemon base URLs (e.g. "http://127.0.0.1:8375").
	Peers []string
	// ProbeInterval paces the health prober (default 2s); ProbeTimeout
	// bounds one probe (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailAfter is the consecutive probe or poll failures before a node
	// is evicted from the ring (default 3).
	FailAfter int
	// SubmitRounds bounds how many passes over the healthy preference
	// list a job makes before failing as unavailable (default 3).
	SubmitRounds int
	// RetryBase/RetryMax shape the jittered backoff between failed
	// submit attempts (defaults 50ms / 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// PollInterval paces job polling on the workers (default 50ms).
	PollInterval time.Duration
}

func (cfg *Config) fill() {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.SubmitRounds <= 0 {
		cfg.SubmitRounds = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax < cfg.RetryBase {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
}

// nodeState is one worker's bookkeeping. All mutable fields are
// guarded by the Coordinator's mu.
type nodeState struct {
	url string
	cli *client.Client
	// cache reaches the worker's GET/PUT /v1/cache/{key} routes with the
	// client workers use for their own shared tier.
	cache *server.RemoteCache

	healthy  bool
	failures int
	inflight int
}

// Coordinator fronts a fleet of worker daemons with the same v1 API a
// single daemon serves, plus GET /v1/nodes. Jobs are sharded by their
// content-addressed cache key over a consistent-hash ring, so repeat
// submissions of the same analysis reach the same worker and its warm
// cache; a health prober evicts dead workers and the per-job watchers
// re-route their jobs to the ring successor, so killing a worker loses
// no accepted job.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	metrics *Metrics
	mux     *http.ServeMux

	// jobs holds the proxied jobs under coordinator-minted IDs.
	jobs *server.Registry

	// mu guards the node table and the draining flag.
	mu       sync.Mutex
	nodes    map[string]*nodeState // guarded by mu
	draining bool                  // guarded by mu

	watchers sync.WaitGroup
}

// New builds a coordinator over cfg.Peers. All peers start healthy and
// in the ring — the prober (Start) and the per-job watchers demote
// them on evidence.
func New(cfg Config) (*Coordinator, error) {
	cfg.fill()
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one peer")
	}
	nodes := map[string]*nodeState{}
	ring := NewRing(DefaultVNodes)
	for _, p := range cfg.Peers {
		cli := client.New(p, client.WithRetry(client.Retry{Attempts: 2, Base: cfg.RetryBase, Max: cfg.RetryMax}))
		ns := &nodeState{
			url:     cli.BaseURL(),
			cli:     cli,
			cache:   server.NewRemoteCache(cli.BaseURL(), nil),
			healthy: true,
		}
		if _, dup := nodes[ns.url]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer %s", p)
		}
		nodes[ns.url] = ns
		ring.Add(ns.url)
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    ring,
		metrics: NewMetrics(),
		jobs:    server.NewRegistry("c-%06d"),
		nodes:   nodes,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", c.handleAnalyze)
	// Checks are stateless and cheap: the coordinator runs them in
	// place rather than proxying, with the same handler workers mount.
	mux.HandleFunc("POST /v1/check", server.HandleCheck)
	mux.HandleFunc("POST /v1/fit", c.handleFit)
	mux.HandleFunc("POST /v1/predict", c.handlePredict)
	mux.HandleFunc("GET /v1/jobs", c.jobs.HandleList)
	mux.HandleFunc("GET /v1/jobs/{id}", c.jobs.HandleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.jobs.HandleCancel)
	mux.HandleFunc("GET /v1/nodes", c.handleNodes)
	mux.HandleFunc("GET /v1/health", c.handleHealth)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux = mux
	return c, nil
}

// Handler returns the HTTP handler tree.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Metrics exposes the counter registry.
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Ring exposes the hash ring (for tests and shard inspection).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Start launches the health prober; it stops when ctx is canceled.
func (c *Coordinator) Start(ctx context.Context) {
	go c.probeLoop(ctx)
}

// Drain stops job intake and waits for every in-flight proxied job to
// reach a terminal state, bounded by ctx.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.watchers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: drain: %w", ctx.Err())
	}
}

// probeLoop probes every configured peer each interval, evicting after
// FailAfter consecutive failures and re-admitting on the first success.
func (c *Coordinator) probeLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, ns := range c.nodeList() {
			pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
			h, err := ns.cli.Health(pctx)
			cancel()
			if err == nil && h.Status == "ok" {
				c.noteAlive(ns)
			} else {
				c.metrics.ProbeFailures.Add(1)
				c.noteDead(ns, false)
			}
		}
	}
}

// nodeList snapshots the node table in sorted URL order.
func (c *Coordinator) nodeList() []*nodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*nodeState, 0, len(c.nodes))
	for _, ns := range c.nodes {
		out = append(out, ns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].url < out[j].url })
	return out
}

// noteAlive resets the failure count and re-admits an evicted node.
func (c *Coordinator) noteAlive(ns *nodeState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns.failures = 0
	if !ns.healthy {
		ns.healthy = true
		c.ring.Add(ns.url)
		c.metrics.NodesRejoined.Add(1)
	}
}

// noteDead records one failure; after FailAfter consecutive failures —
// or immediately when force is set (a watcher saw the node drop
// mid-job) — the node leaves the ring.
func (c *Coordinator) noteDead(ns *nodeState, force bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns.failures++
	if !ns.healthy {
		return
	}
	if force || ns.failures >= c.cfg.FailAfter {
		ns.healthy = false
		c.ring.Remove(ns.url)
		c.metrics.NodesEvicted.Add(1)
	}
}

// healthyNode returns the node state if url is currently in the ring.
func (c *Coordinator) healthyNode(url string) (*nodeState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.nodes[url]
	if !ok || !ns.healthy {
		return nil, false
	}
	return ns, true
}

func (c *Coordinator) addInflight(ns *nodeState, d int) {
	c.mu.Lock()
	ns.inflight += d
	c.mu.Unlock()
}

// backoff returns the jittered exponential delay before retry attempt
// (1-based): base*2^(attempt-1) capped at max, minus up to half.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBase << (attempt - 1)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	return d - time.Duration(rand.Int63n(int64(d)/2+1))
}

// watch drives one proxied job to completion: submit to the ring owner
// (walking successors on failure), poll until terminal, and re-route
// to the next owner if the worker dies mid-job. It alone changes j's
// document; the HTTP handlers only read it. req, or fitReq for a fit,
// is what it submits.
//
// The watcher deliberately roots its own contexts rather than using
// any request context: the job must outlive the submission request.
// The job's own context only signals a cancel, which the watcher
// forwards to the worker and then polls on to the terminal state.
//
//reuse:ctx-root
func (c *Coordinator) watch(j *server.Job, req client.AnalyzeRequest, fitReq *client.FitRequest) {
	defer c.watchers.Done()
	rerouted := -1 // first placement is not a reroute
	for round := 0; round < c.cfg.SubmitRounds; round++ {
		if j.Context().Err() != nil {
			j.Finish(client.JobCanceled, "", nil)
			return
		}
		ns, doc := c.placeJob(j, req, fitReq)
		if ns == nil {
			if j.Doc().Status.Terminal() {
				return
			}
			if c.sleepBackoff(round + 1) {
				continue
			}
			break
		}
		rerouted++
		if rerouted > 0 {
			c.metrics.JobsRerouted.Add(1)
		}
		round = 0 // a successful placement resets the failure budget
		doc.Node, doc.Rerouted = ns.url, rerouted
		j.Mirror(*doc)
		if doc.Status.Terminal() {
			c.addInflight(ns, -1)
			return
		}
		if c.pollUntilDone(j, ns, doc.ID, rerouted) {
			return
		}
		// The worker dropped mid-job: evict it and go place the job on
		// the ring successor.
		c.noteDead(ns, true)
	}
	j.Finish(client.JobFailed, "no healthy worker accepted the job", nil)
}

// sleepBackoff pauses between placement rounds; false means give up
// (final round).
func (c *Coordinator) sleepBackoff(attempt int) bool {
	if attempt >= c.cfg.SubmitRounds {
		return false
	}
	time.Sleep(c.backoff(attempt))
	return true
}

// placeJob walks the ring preference list for the job's key and
// submits to the first worker that accepts. Non-temporary API
// rejections (a request that is invalid everywhere) finish the job
// immediately; transport failures evict and continue down the list.
// Runs on the watcher goroutine, so its contexts are rooted here.
//
//reuse:ctx-root
func (c *Coordinator) placeJob(j *server.Job, req client.AnalyzeRequest, fitReq *client.FitRequest) (*nodeState, *client.Job) {
	prefs := c.ring.Successors(j.Doc().Key, len(c.cfg.Peers))
	for i, url := range prefs {
		ns, ok := c.healthyNode(url)
		if !ok {
			continue
		}
		if i > 0 {
			c.metrics.SubmitRetries.Add(1)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		var doc *client.Job
		var err error
		if fitReq != nil {
			doc, err = ns.cli.Fit(ctx, *fitReq)
		} else {
			doc, err = ns.cli.Analyze(ctx, req)
		}
		cancel()
		if err == nil {
			c.addInflight(ns, 1)
			return ns, doc
		}
		var apiErr *client.Error
		if errors.As(err, &apiErr) && !apiErr.Temporary() {
			j.Finish(client.JobFailed, apiErr.Message, nil)
			return nil, nil
		}
		c.noteDead(ns, true)
	}
	return nil, nil
}

// pollUntilDone tracks the job on its worker, where its ID is
// remoteID. True means the job reached a terminal state (recorded in
// its document); false means the worker stopped answering and the job
// needs a new home. Runs on the watcher goroutine, so its contexts are
// rooted here.
//
//reuse:ctx-root
func (c *Coordinator) pollUntilDone(j *server.Job, ns *nodeState, remoteID string, rerouted int) bool {
	defer c.addInflight(ns, -1)
	failures := 0
	cancelSent := false
	for {
		if j.Context().Err() != nil && !cancelSent {
			cancelSent = true
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			_, _ = ns.cli.Cancel(ctx, remoteID)
			cancel()
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		doc, err := ns.cli.Job(ctx, remoteID)
		cancel()
		if err != nil {
			var apiErr *client.Error
			if errors.As(err, &apiErr) && apiErr.Status < 500 {
				if apiErr.Code == client.CodeNotFound {
					// The worker restarted and lost the job: reroute.
					return false
				}
				// The worker answered coherently; the job state is just
				// unreadable this instant. Keep polling.
				failures = 0
			} else {
				// Transport failure or a 5xx: the node is dropping.
				failures++
				if _, ok := c.healthyNode(ns.url); !ok || failures >= c.cfg.FailAfter {
					return false
				}
			}
			time.Sleep(c.backoff(min(failures+1, 5)))
			continue
		}
		failures = 0
		doc.Node, doc.Rerouted = ns.url, rerouted
		j.Mirror(*doc)
		if doc.Status.Terminal() {
			return true
		}
		time.Sleep(c.cfg.PollInterval)
	}
}

// admit accepts a submission for key: it refuses with 503 while the
// coordinator drains or while no worker is in the ring, and otherwise
// registers the job under a fresh c-%06d ID and counts its watcher,
// which the caller starts. It returns nil once it has written the
// refusal.
func (c *Coordinator) admit(w http.ResponseWriter, key string) *server.Job {
	c.mu.Lock()
	draining, empty := c.draining, c.ring.Len() == 0
	if !draining && !empty {
		c.watchers.Add(1)
	}
	c.mu.Unlock()
	switch {
	case draining:
		server.WriteError(w, http.StatusServiceUnavailable, client.CodeDraining, "coordinator is draining")
		return nil
	case empty:
		server.WriteError(w, http.StatusServiceUnavailable, client.CodeUnavailable, "no healthy workers")
		return nil
	}
	return c.jobs.Add(key, nil)
}

func (c *Coordinator) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req client.AnalyzeRequest
	if !server.DecodeRequest(w, r, &req) {
		return
	}
	// The coordinator computes the same content-addressed key the
	// workers cache under — the shard function IS the cache key, which
	// is what routes a repeated analysis back to its warm node.
	key, err := server.CacheKeyFor(req)
	if err != nil {
		server.WriteInvalid(w, err)
		return
	}
	j := c.admit(w, key)
	if j == nil {
		return
	}
	c.metrics.JobsProxied.Add(1)
	go c.watch(j, req, nil)
	doc := j.Doc()
	server.WriteJob(w, http.StatusAccepted, &doc)
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, _ *http.Request) {
	list := client.NodeList{APIVersion: client.APIVersion}
	c.mu.Lock()
	for _, ns := range c.nodes {
		list.Nodes = append(list.Nodes, client.Node{
			URL:      ns.url,
			Healthy:  ns.healthy,
			Inflight: ns.inflight,
			Failures: ns.failures,
		})
	}
	c.mu.Unlock()
	sort.Slice(list.Nodes, func(i, j int) bool { return list.Nodes[i].URL < list.Nodes[j].URL })
	server.WriteJSON(w, http.StatusOK, list)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := client.Health{Role: "coordinator"}
	c.mu.Lock()
	draining := c.draining
	for _, ns := range c.nodes {
		if ns.healthy {
			h.NodesHealthy++
		}
		h.Running += ns.inflight
	}
	c.mu.Unlock()
	for _, j := range c.jobs.List() {
		if j.Doc().Status == client.JobQueued {
			h.QueueDepth++
		}
	}
	server.WriteHealth(w, draining, h)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var gauges []NodeGauge
	c.mu.Lock()
	for _, ns := range c.nodes {
		gauges = append(gauges, NodeGauge{Node: ns.url, Healthy: ns.healthy, Inflight: ns.inflight})
	}
	c.mu.Unlock()
	c.metrics.WriteText(w, gauges)
}
