package server

import (
	"net/http"
	"strings"
	"testing"

	"reusetool/pkg/client"
)

// TestSamplingCacheKeysDistinct is the key-canonicalization contract:
// exact, fixed-rate, adaptive, and R=1 requests for the same program
// all key differently (a sampled estimate must never be served for an
// exact request, and R=1 runs the sampling machinery even though its
// numbers match exact), while spelling the default seed explicitly
// keys the same as leaving it zero.
func TestSamplingCacheKeysDistinct(t *testing.T) {
	reqs := map[string]client.AnalyzeRequest{
		"exact":    {Workload: "fig2"},
		"rate1":    {Workload: "fig2", SampleRate: 1},
		"rate8":    {Workload: "fig2", SampleRate: 8},
		"rate64":   {Workload: "fig2", SampleRate: 64},
		"adaptive": {Workload: "fig2", SampleRate: 8, SampleMaxBlocks: 4096},
		"seeded":   {Workload: "fig2", SampleRate: 8, SampleSeed: 7},
	}
	keys := map[string]string{}
	for name, req := range reqs {
		k, err := CacheKeyFor(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for other, ok := range keys {
			if ok == k {
				t.Errorf("%s and %s share cache key %s", name, other, k)
			}
		}
		keys[name] = k
	}

	// Normalization: seed 0 and the explicit default seed are the same
	// sample, so they must share a key.
	explicit, err := CacheKeyFor(client.AnalyzeRequest{
		Workload: "fig2", SampleRate: 8, SampleSeed: 0x9E3779B97F4A7C15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if explicit != keys["rate8"] {
		t.Error("explicit default seed keyed differently from seed 0")
	}
}

// TestAnalyzeSampledEndToEnd runs the daemon e2e required by the ISSUE:
// the same program submitted sampled and exact lands on distinct cache
// entries, the sampled report carries the sampling footer, a sampled
// resubmission is a cache hit, and the sampling gauges reflect the run.
func TestAnalyzeSampledEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	exact, status := postAnalyze(t, ts, client.AnalyzeRequest{Workload: "fig2"})
	if status != http.StatusAccepted {
		t.Fatalf("exact status %d", status)
	}
	exactDone := pollDone(t, ts, exact.ID)
	if exactDone.Status != client.JobDone {
		t.Fatalf("exact job: %s (%s)", exactDone.Status, exactDone.Error)
	}
	if strings.Contains(exactDone.Report, "Sampling:") {
		t.Fatal("exact report carries a sampling footer")
	}

	sampled := client.AnalyzeRequest{Workload: "fig2", SampleRate: 8}
	cold, status := postAnalyze(t, ts, sampled)
	if status != http.StatusAccepted {
		t.Fatalf("sampled cold status %d, want 202 (a sampled submission must not hit the exact entry)", status)
	}
	coldDone := pollDone(t, ts, cold.ID)
	if coldDone.Status != client.JobDone {
		t.Fatalf("sampled job: %s (%s)", coldDone.Status, coldDone.Error)
	}
	if coldDone.Key == exactDone.Key {
		t.Fatal("sampled and exact runs share a cache key")
	}
	if !strings.Contains(coldDone.Report, "Sampling:") {
		t.Fatalf("sampled report missing footer:\n%s", coldDone.Report)
	}
	if !strings.Contains(coldDone.Report, "rate 1/8 (fixed)") {
		t.Fatalf("sampled footer missing rate:\n%s", coldDone.Report)
	}

	warm, status := postAnalyze(t, ts, sampled)
	if status != http.StatusOK || !warm.CacheHit {
		t.Fatalf("sampled resubmission missed the cache (status %d, hit %v)", status, warm.CacheHit)
	}
	if warm.Report != coldDone.Report {
		t.Fatal("sampled warm report differs from cold")
	}

	if v := metricValue(t, ts, "reusetoold_sampled_jobs_total"); v != 1 {
		t.Errorf("sampled_jobs_total = %g, want 1 (the warm hit must not re-count)", v)
	}
	if v := metricValue(t, ts, "reusetoold_sampling_effective_rate"); v != 8 {
		t.Errorf("sampling_effective_rate = %g, want 8", v)
	}
	if v := metricValue(t, ts, "reusetoold_sampled_blocks"); v <= 0 {
		t.Errorf("sampled_blocks = %g, want > 0", v)
	}
}

// TestAnalyzeSamplingRejected covers the 400 paths the sampling fields
// add: non-power-of-two rate, static mode, and artifact restore.
func TestAnalyzeSamplingRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	e := collectEntry(t, key(1))
	for name, req := range map[string]client.AnalyzeRequest{
		"bad rate":          {Workload: "fig1a", SampleRate: 3},
		"rate too high":     {Workload: "fig1a", SampleRate: 1 << 21},
		"tiny cap":          {Workload: "fig1a", SampleMaxBlocks: 4},
		"static sampled":    {Workload: "fig1a", Mode: "static", SampleRate: 8},
		"artifact sampled":  {Workload: "fig2", Artifact: e.Artifact, SampleRate: 8},
		"artifact adaptive": {Workload: "fig2", Artifact: e.Artifact, SampleMaxBlocks: 4096},
	} {
		if _, status := postAnalyze(t, ts, req); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
}
