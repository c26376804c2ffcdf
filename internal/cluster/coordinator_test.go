package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reusetool/internal/server"
	"reusetool/pkg/client"
)

// flakyWorker is a real analysis daemon behind a toggleable front: when
// down, every request answers 502 without reaching the server, which
// looks to the coordinator exactly like a sick node.
type flakyWorker struct {
	srv  *server.Server
	ts   *httptest.Server
	down atomic.Bool
}

func (f *flakyWorker) url() string { return f.ts.URL }

func newWorker(t *testing.T, cfg server.Config) *flakyWorker {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &flakyWorker{srv: s}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() {
			http.Error(w, "node down", http.StatusBadGateway)
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		f.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return f
}

// newCluster stands up n workers and a coordinator with test-fast
// failure detection, returning a typed client aimed at the coordinator.
func newCluster(t *testing.T, n int, wcfg server.Config, ccfg Config) (*Coordinator, []*flakyWorker, *client.Client) {
	t.Helper()
	workers := make([]*flakyWorker, n)
	peers := make([]string, n)
	for i := range workers {
		workers[i] = newWorker(t, wcfg)
		peers[i] = workers[i].url()
	}
	ccfg.Peers = peers
	if ccfg.FailAfter == 0 {
		ccfg.FailAfter = 2
	}
	if ccfg.RetryBase == 0 {
		ccfg.RetryBase = 5 * time.Millisecond
	}
	if ccfg.RetryMax == 0 {
		ccfg.RetryMax = 50 * time.Millisecond
	}
	if ccfg.PollInterval == 0 {
		ccfg.PollInterval = 10 * time.Millisecond
	}
	c, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL, client.WithRetry(client.Retry{Attempts: 2, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}))
	cl.PollInterval = 10 * time.Millisecond
	return c, workers, cl
}

// streamReq builds a distinct small analysis per n so each request has
// its own cache key and shard.
func streamReq(n int64) client.AnalyzeRequest {
	return client.AnalyzeRequest{Workload: "stream", Params: map[string]int64{"N": n}}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCoordinatorMemoryHitSendsContentLength: the coordinator's
// document of a job its worker served from memory carries a
// Content-Length, not a chunked body, and decodes through pkg/client to
// the cold job's report and result.
func TestCoordinatorMemoryHitSendsContentLength(t *testing.T) {
	_, _, cl := newCluster(t, 1, server.Config{Workers: 1}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var docs [2]*client.Job
	for i := range docs {
		job, err := cl.Analyze(ctx, client.AnalyzeRequest{Workload: "fig2"})
		if err != nil {
			t.Fatal(err)
		}
		if docs[i], err = cl.Wait(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
	}
	cold, hit := docs[0], docs[1]
	if cold.Status != client.JobDone || cold.CacheHit || hit.Status != client.JobDone || !hit.CacheHit {
		t.Fatalf("cold job %s (cache_hit %v), warm job %s (cache_hit %v): want a cold run, then a hit",
			cold.Status, cold.CacheHit, hit.Status, hit.CacheHit)
	}
	if cold.Report == "" || hit.Report != cold.Report || !bytes.Equal(hit.Result, cold.Result) {
		t.Fatal("the hit does not carry the cold job's report and result")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL()+"/v1/jobs/"+hit.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("%d-byte job document sent with Content-Length %d and Transfer-Encoding %q",
			len(raw), resp.ContentLength, resp.TransferEncoding)
	}
}

func TestCoordinatorColdWarmAndSharding(t *testing.T) {
	c, workers, cl := newCluster(t, 3, server.Config{Workers: 1}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	byURL := map[string]*flakyWorker{}
	for _, w := range workers {
		byURL[w.url()] = w
	}

	const jobs = 6
	nodeOf := map[int64]string{}
	for i := int64(0); i < jobs; i++ {
		req := streamReq(4096 + i)
		job, err := cl.Analyze(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		done, err := cl.Wait(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != client.JobDone {
			t.Fatalf("job %s: status %s (%s)", job.ID, done.Status, done.Error)
		}
		if done.CacheHit {
			t.Fatalf("job %s: cold run reported a cache hit", job.ID)
		}
		if done.Node == "" || byURL[done.Node] == nil {
			t.Fatalf("job %s: node %q is not a known worker", job.ID, done.Node)
		}
		// The shard function is the content-addressed key: the node must
		// be the ring owner.
		if owner := c.Ring().Owner(done.Key); done.Node != owner {
			t.Fatalf("job %s placed on %s, ring owner is %s", job.ID, done.Node, owner)
		}
		if done.Report == "" || len(done.Result) == 0 {
			t.Fatalf("job %s: missing report/result payload", job.ID)
		}
		nodeOf[i] = done.Node
	}

	// Warm pass: same requests must be cache hits on the same nodes.
	for i := int64(0); i < jobs; i++ {
		job, err := cl.Analyze(ctx, streamReq(4096+i))
		if err != nil {
			t.Fatal(err)
		}
		done, err := cl.Wait(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != client.JobDone || !done.CacheHit {
			t.Fatalf("warm job %d: status=%s cache_hit=%v", i, done.Status, done.CacheHit)
		}
		if done.Node != nodeOf[i] {
			t.Fatalf("warm job %d landed on %s, cold run used %s", i, done.Node, nodeOf[i])
		}
	}

	if got := c.Metrics().JobsProxied.Load(); got != 2*jobs {
		t.Fatalf("jobs_proxied = %d, want %d", got, 2*jobs)
	}
	nodes, err := cl.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(nodes))
	}
	for _, n := range nodes {
		if !n.Healthy {
			t.Fatalf("node %s unhealthy with no failures injected", n.URL)
		}
	}
}

func TestCoordinatorReroutesWhenWorkerDies(t *testing.T) {
	c, workers, cl := newCluster(t, 3,
		server.Config{Workers: 1, SimulateLatency: 400 * time.Millisecond}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	req := streamReq(9001)
	key, err := server.CacheKeyFor(req)
	if err != nil {
		t.Fatal(err)
	}
	owner := c.Ring().Owner(key)
	var ownerWorker *flakyWorker
	for _, w := range workers {
		if w.url() == owner {
			ownerWorker = w
		}
	}
	if ownerWorker == nil {
		t.Fatalf("owner %s not among workers", owner)
	}

	job, err := cl.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Let the job land on the owner, then kill the node mid-run.
	time.Sleep(50 * time.Millisecond)
	ownerWorker.down.Store(true)

	done, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.JobDone {
		t.Fatalf("rerouted job: status %s (%s)", done.Status, done.Error)
	}
	if done.Node == owner {
		t.Fatalf("job still reports the dead owner %s", owner)
	}
	if done.Rerouted < 1 {
		t.Fatalf("rerouted = %d, want >= 1", done.Rerouted)
	}
	if got := c.Metrics().JobsRerouted.Load(); got < 1 {
		t.Fatalf("jobs_rerouted_total = %d, want >= 1", got)
	}
	if c.Ring().Has(owner) {
		t.Fatal("dead owner still in the ring")
	}
}

func TestCoordinatorProberEvictsAndRejoins(t *testing.T) {
	c, workers, cl := newCluster(t, 3, server.Config{Workers: 1}, Config{
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c.Start(ctx)

	victim := workers[0]
	victim.down.Store(true)
	waitFor(t, 5*time.Second, "victim eviction", func() bool {
		return !c.Ring().Has(victim.url())
	})
	if c.Metrics().NodesEvicted.Load() < 1 {
		t.Fatal("eviction not counted")
	}

	// While the victim is out, every submission must land elsewhere.
	for i := int64(0); i < 4; i++ {
		job, err := cl.Analyze(ctx, streamReq(7000+i))
		if err != nil {
			t.Fatal(err)
		}
		done, err := cl.Wait(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != client.JobDone || done.Node == victim.url() {
			t.Fatalf("job %d: status=%s node=%s (victim=%s)", i, done.Status, done.Node, victim.url())
		}
	}

	victim.down.Store(false)
	waitFor(t, 5*time.Second, "victim rejoin", func() bool {
		return c.Ring().Has(victim.url())
	})
	if c.Metrics().NodesRejoined.Load() < 1 {
		t.Fatal("rejoin not counted")
	}
	nodes, err := cl.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if !n.Healthy {
			t.Fatalf("node %s still unhealthy after rejoin", n.URL)
		}
	}
}

// TestCoordinatorNoJobLostOrDuplicatedUnderChurn is the reroute safety
// property: with workers flapping one at a time while a batch is in
// flight, every accepted job must reach done exactly once.
func TestCoordinatorNoJobLostOrDuplicatedUnderChurn(t *testing.T) {
	c, workers, cl := newCluster(t, 3,
		server.Config{Workers: 1, SimulateLatency: 40 * time.Millisecond}, Config{
			SubmitRounds:  8,
			ProbeInterval: 25 * time.Millisecond,
			ProbeTimeout:  200 * time.Millisecond,
		})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// The prober re-admits flapped workers; without it the ring only
	// ever shrinks.
	c.Start(ctx)

	const jobs = 12
	ids := make([]string, 0, jobs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := int64(0); i < jobs; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			job, err := cl.Analyze(ctx, streamReq(5000+i))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			mu.Lock()
			ids = append(ids, job.ID)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Flap each worker once, one at a time, while the batch drains.
	for _, w := range workers {
		w.down.Store(true)
		time.Sleep(80 * time.Millisecond)
		w.down.Store(false)
		time.Sleep(40 * time.Millisecond)
	}

	seen := map[string]bool{}
	for _, id := range ids {
		done, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if done.Status != client.JobDone {
			t.Fatalf("job %s lost: status %s (%s), rerouted %d", id, done.Status, done.Error, done.Rerouted)
		}
		if seen[id] {
			t.Fatalf("job %s reported twice", id)
		}
		seen[id] = true
	}

	// The coordinator's registry must hold exactly the accepted batch.
	list, err := cl.Jobs(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != jobs {
		t.Fatalf("job list has %d entries, want %d", len(list), jobs)
	}
	unique := map[string]bool{}
	for _, j := range list {
		if unique[j.ID] {
			t.Fatalf("duplicate job %s in list", j.ID)
		}
		unique[j.ID] = true
		if j.Status != client.JobDone {
			t.Fatalf("job %s in list: status %s", j.ID, j.Status)
		}
	}
}

func TestCoordinatorCancelPropagates(t *testing.T) {
	_, _, cl := newCluster(t, 1,
		server.Config{Workers: 1, SimulateLatency: 5 * time.Second}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := cl.Analyze(ctx, streamReq(8888))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "job to start", func() bool {
		j, err := cl.Job(ctx, job.ID)
		return err == nil && j.Status == client.JobRunning
	})
	if _, err := cl.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	done, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.JobCanceled {
		t.Fatalf("status %s after cancel, want canceled", done.Status)
	}
	// Canceling a finished job is a typed conflict.
	_, err = cl.Cancel(ctx, job.ID)
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeConflict {
		t.Fatalf("second cancel: %v, want conflict", err)
	}
}

func TestCoordinatorErrorEnvelopes(t *testing.T) {
	c, _, cl := newCluster(t, 2, server.Config{Workers: 1}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Invalid request: rejected at the coordinator, no worker involved.
	_, err := cl.Analyze(ctx, client.AnalyzeRequest{Workload: "no-such-workload"})
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeInvalidRequest {
		t.Fatalf("bad workload: %v, want invalid_request", err)
	}

	_, err = cl.Job(ctx, "c-999999")
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeNotFound {
		t.Fatalf("unknown job: %v, want not_found", err)
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "coordinator" || h.NodesHealthy != 2 || h.APIVersion != client.APIVersion {
		t.Fatalf("health = %+v", h)
	}

	// Drain: intake refused with the typed draining code.
	dctx, dcancel := context.WithTimeout(ctx, 5*time.Second)
	defer dcancel()
	if err := c.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Analyze(ctx, streamReq(1))
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeDraining {
		t.Fatalf("analyze while draining: %v, want draining", err)
	}
}

func TestCoordinatorMetricsExposition(t *testing.T) {
	_, _, cl := newCluster(t, 2, server.Config{Workers: 1}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	job, err := cl.Analyze(ctx, streamReq(6006))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(cl.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"reusetoold_cluster_jobs_proxied_total 1",
		"reusetoold_cluster_nodes_healthy 2",
		"reusetoold_cluster_node_inflight{node=",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
