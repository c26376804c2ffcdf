package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"reusetool/internal/cluster"
	"reusetool/internal/server"
	"reusetool/pkg/client"
)

// buildDaemon compiles the real reusetoold binary once per test run so
// workers are genuinely separate OS processes that can be killed
// individually.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "reusetoold")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// workerProc is one spawned daemon process.
type workerProc struct {
	cmd *exec.Cmd
	url string
}

func (w *workerProc) kill() { _ = w.cmd.Process.Kill(); _ = w.cmd.Wait() }

// spawnDaemon launches the binary on an ephemeral port and scrapes the
// advertised address.
func spawnDaemon(t *testing.T, bin string, args ...string) *workerProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w := &workerProc{cmd: cmd}
	t.Cleanup(w.kill)

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "reusetoold-addr "); ok {
				addr <- strings.TrimSpace(a)
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		w.url = "http://" + a
	case <-time.After(15 * time.Second):
		t.Fatal("spawned daemon never reported its address")
	}
	return w
}

func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("metric %s: parse %q: %v", name, rest, err)
			}
			return v
		}
	}
	return -1
}

// runBatch submits all requests concurrently and waits for every job,
// returning the terminal docs in request order.
func runBatch(t *testing.T, cl *client.Client, reqs []client.AnalyzeRequest, timeout time.Duration) []*client.Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	docs := make([]*client.Job, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req client.AnalyzeRequest) {
			defer wg.Done()
			job, err := cl.Analyze(ctx, req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			done, err := cl.Wait(ctx, job.ID)
			if err != nil {
				t.Errorf("wait %d: %v", i, err)
				return
			}
			docs[i] = done
		}(i, req)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return docs
}

// pickBalancedJobs selects perNode distinct requests owned by each
// worker, using the same deterministic ring the coordinator builds, so
// the throughput measurement is not skewed by shard imbalance.
func pickBalancedJobs(t *testing.T, peers []string, perNode int, seed int64) []client.AnalyzeRequest {
	t.Helper()
	ring := cluster.NewRing(0)
	for _, p := range peers {
		ring.Add(p)
	}
	counts := map[string]int{}
	var reqs []client.AnalyzeRequest
	for n := seed; len(reqs) < perNode*len(peers) && n < seed+10000; n++ {
		req := client.AnalyzeRequest{Workload: "stream", Params: map[string]int64{"N": n}}
		key, err := server.CacheKeyFor(req)
		if err != nil {
			t.Fatal(err)
		}
		owner := ring.Owner(key)
		if counts[owner] >= perNode {
			continue
		}
		counts[owner]++
		reqs = append(reqs, req)
	}
	if len(reqs) != perNode*len(peers) {
		t.Fatalf("could not balance %d jobs over %d nodes", perNode*len(peers), len(peers))
	}
	return reqs
}

// TestClusterEndToEnd drives the full distributed setup as separate OS
// processes: a shared cache daemon, three workers writing through to
// it, and a coordinator sharding by cache key. It asserts near-linear
// throughput scaling against a single-node baseline, a warm cross-node
// hit served from the shared remote tier, and zero job loss when a
// worker is killed mid-batch.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a multi-process cluster")
	}
	bin := buildDaemon(t)

	// Per-job synthetic latency makes job cost dominate scheduling
	// overhead whatever the host's CPU count, so the scaling assertion
	// measures the cluster, not the machine.
	const simLatency = 200 * time.Millisecond
	const perNode = 4

	cacheD := spawnDaemon(t, bin, "-workers", "1")
	var workers []*workerProc
	var peers []string
	for i := 0; i < 3; i++ {
		w := spawnDaemon(t, bin,
			"-workers", "1",
			"-simulate-latency", simLatency.String(),
			"-cache-dir", t.TempDir(),
			"-remote-cache", cacheD.url)
		workers = append(workers, w)
		peers = append(peers, w.url)
	}
	coordURL, _, _ := startDaemon(t,
		"-coordinator",
		"-peers", strings.Join(peers, ","),
		"-probe-interval", "100ms",
		"-poll-interval", "10ms")

	cl := client.New(coordURL)
	cl.PollInterval = 10 * time.Millisecond

	// --- Throughput: 3 workers vs 1 ---
	// Small N keeps the real analysis cost per job in the low
	// milliseconds — on a single-core host all workers share one CPU,
	// so only the simulated latency may dominate for the scaling
	// measurement to be about the cluster.
	reqs := pickBalancedJobs(t, peers, perNode, 1000)
	start := time.Now()
	docs := runBatch(t, cl, reqs, 60*time.Second)
	clusterElapsed := time.Since(start)
	usedNodes := map[string]bool{}
	for i, d := range docs {
		if d.Status != client.JobDone {
			t.Fatalf("cluster job %d: status %s (%s)", i, d.Status, d.Error)
		}
		if d.CacheHit {
			t.Fatalf("cluster job %d: unexpected cache hit on first run", i)
		}
		usedNodes[d.Node] = true
	}
	if len(usedNodes) != 3 {
		t.Fatalf("batch used %d workers, want all 3", len(usedNodes))
	}

	baselineW := spawnDaemon(t, bin,
		"-workers", "1",
		"-simulate-latency", simLatency.String(),
		"-cache-dir", t.TempDir())
	blc := client.New(baselineW.url)
	blc.PollInterval = 10 * time.Millisecond
	start = time.Now()
	for i, d := range runBatch(t, blc, reqs, 120*time.Second) {
		if d.Status != client.JobDone {
			t.Fatalf("baseline job %d: status %s (%s)", i, d.Status, d.Error)
		}
	}
	baselineElapsed := time.Since(start)

	ratio := float64(baselineElapsed) / float64(clusterElapsed)
	t.Logf("throughput: cluster=%s baseline=%s scaling=%.2fx", clusterElapsed, baselineElapsed, ratio)
	if ratio < 2.5 {
		t.Fatalf("3-worker cluster scaled only %.2fx over single node, want >= 2.5x", ratio)
	}

	// --- Warm cross-node hit from the shared remote tier ---
	deadline := time.Now().Add(15 * time.Second)
	for scrapeMetric(t, cacheD.url, "reusetoold_cache_peer_puts_total") < float64(len(reqs)) {
		if time.Now().After(deadline) {
			t.Fatalf("cache daemon received %g write-behind PUTs, want %d",
				scrapeMetric(t, cacheD.url, "reusetoold_cache_peer_puts_total"), len(reqs))
		}
		time.Sleep(50 * time.Millisecond)
	}
	fresh := spawnDaemon(t, bin,
		"-workers", "1",
		"-simulate-latency", simLatency.String(),
		"-cache-dir", t.TempDir(),
		"-remote-cache", cacheD.url)
	fctx, fcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer fcancel()
	fcl := client.New(fresh.url)
	warm, err := fcl.Analyze(fctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Status != client.JobDone {
		t.Fatalf("fresh node: cache_hit=%v status=%s, want remote-tier hit", warm.CacheHit, warm.Status)
	}
	if hits := scrapeMetric(t, fresh.url, "reusetoold_remote_cache_hits_total"); hits != 1 {
		t.Fatalf("fresh node remote_cache_hits_total = %g, want 1", hits)
	}

	// --- Kill a worker mid-batch: zero jobs lost ---
	victim := workers[0]
	rereqs := pickBalancedJobs(t, peers, 2, 3000)
	rctx, rcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer rcancel()
	ids := make([]string, len(rereqs))
	for i, req := range rereqs {
		job, err := cl.Analyze(rctx, req)
		if err != nil {
			t.Fatalf("reroute submit %d: %v", i, err)
		}
		ids[i] = job.ID
	}
	time.Sleep(100 * time.Millisecond)
	victim.kill()
	for i, id := range ids {
		done, err := cl.Wait(rctx, id)
		if err != nil {
			t.Fatalf("reroute wait %d: %v", i, err)
		}
		if done.Status != client.JobDone {
			t.Fatalf("job %s lost after worker kill: status %s (%s)", id, done.Status, done.Error)
		}
		if done.Node == victim.url {
			t.Fatalf("job %s reports the killed worker as its node", id)
		}
	}
	if rr := scrapeMetric(t, coordURL, "reusetoold_cluster_jobs_rerouted_total"); rr < 1 {
		t.Fatalf("jobs_rerouted_total = %g, want >= 1", rr)
	}
	if ev := scrapeMetric(t, coordURL, "reusetoold_cluster_nodes_evicted_total"); ev < 1 {
		t.Fatalf("nodes_evicted_total = %g, want >= 1", ev)
	}
}

// TestCoordinatorDaemonHealth covers the coordinator role end to end
// at the daemon level without the full cluster drill.
func TestCoordinatorDaemonHealth(t *testing.T) {
	workerURL, _, _ := startDaemon(t, "-workers", "1")
	coordURL, _, _ := startDaemon(t, "-coordinator", "-peers", workerURL)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	cl := client.New(coordURL)
	cl.PollInterval = 10 * time.Millisecond
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "coordinator" || h.NodesHealthy != 1 {
		t.Fatalf("health = %+v", h)
	}
	nodes, err := cl.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].URL != workerURL || !nodes[0].Healthy {
		t.Fatalf("nodes = %+v", nodes)
	}
	job, err := cl.Analyze(ctx, client.AnalyzeRequest{Workload: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.JobDone || done.Node != workerURL {
		t.Fatalf("proxied job: status=%s node=%s", done.Status, done.Node)
	}
}

func TestCoordinatorRejectsEmptyPeers(t *testing.T) {
	if code := run(context.Background(), []string{"-coordinator"}, &syncBuffer{}); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}
