package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Metrics is the daemon's counter registry, exposed in Prometheus text
// format on GET /metrics. All counters are monotonic and lock-free; the
// gauges (queue depth, running jobs, cache entries) are sampled from
// the scheduler and cache at render time.
type Metrics struct {
	start time.Time

	JobsSubmitted atomic.Uint64
	JobsCompleted atomic.Uint64
	JobsFailed    atomic.Uint64
	JobsCanceled  atomic.Uint64
	JobsRejected  atomic.Uint64

	CacheHits      atomic.Uint64
	CacheMisses    atomic.Uint64
	CacheDiskHits  atomic.Uint64
	CacheEvictions atomic.Uint64
	// CacheBadVerify counts entries refused where they enter the cache
	// (Put, a disk load, a remote GET, a peer PUT) and memory entries
	// whose served fields no longer match their digest.
	CacheBadVerify atomic.Uint64

	// Remote tier: this daemon acting as a client of the shared
	// content-addressed cache.
	RemoteHits   atomic.Uint64
	RemoteMisses atomic.Uint64
	RemoteErrors atomic.Uint64
	RemotePuts   atomic.Uint64

	// Peer serving: this daemon answering GET/PUT /v1/cache/{key} for
	// other nodes.
	PeerHits   atomic.Uint64
	PeerMisses atomic.Uint64
	PeerPuts   atomic.Uint64

	// Write-behind queue feeding the remote tier.
	WriteBehindCoalesced atomic.Uint64
	WriteBehindDropped   atomic.Uint64

	// DiskWriteErrors counts failed disk-tier writes (best-effort tier,
	// so failures degrade persistence, not correctness).
	DiskWriteErrors atomic.Uint64

	// AnalyzeNanos accumulates wall-clock time spent inside the analysis
	// pipeline (cache misses only; hits skip it entirely).
	AnalyzeNanos atomic.Uint64

	// SampledJobs counts analyses run with SHARDS sampling enabled.
	// SampledBlocks and SampleRate hold the admitted-block count and
	// final effective rate of the most recent sampled analysis — gauges,
	// not counters: they answer "how big was the sample the daemon last
	// worked with", the number an operator compares against the
	// configured max-blocks cap.
	SampledJobs   atomic.Uint64
	SampledBlocks atomic.Uint64
	SampleRate    atomic.Uint64

	// Cross-input scaling models. FitWarmHits counts training runs a fit
	// served from the result cache instead of executing; PredictNoModel
	// counts what-if queries rejected for lack of a fitted model.
	// PredictNanos accumulates model-lookup + reconstruction time only —
	// the quantity the sub-millisecond serving contract is on.
	ModelsFitted   atomic.Uint64
	FitWarmHits    atomic.Uint64
	PredictsServed atomic.Uint64
	PredictNoModel atomic.Uint64
	PredictNanos   atomic.Uint64
}

// NewMetrics starts the uptime clock.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// Gauges carries the point-in-time values sampled at render time.
type Gauges struct {
	QueueDepth       int
	RunningJobs      int
	CacheEntries     int
	WriteBehindDepth int
	Draining         bool
}

// WriteText renders the registry in the Prometheus exposition format.
func (m *Metrics) WriteText(w io.Writer, g Gauges) {
	e := Exposition{W: w}
	e.Gauge("reusetoold_uptime_seconds", "Seconds since the daemon started.", time.Since(m.start).Seconds())
	e.Counter("reusetoold_jobs_submitted_total", "Analysis jobs accepted for scheduling.", m.JobsSubmitted.Load())
	e.Counter("reusetoold_jobs_completed_total", "Analysis jobs finished successfully.", m.JobsCompleted.Load())
	e.Counter("reusetoold_jobs_failed_total", "Analysis jobs finished with an error.", m.JobsFailed.Load())
	e.Counter("reusetoold_jobs_canceled_total", "Analysis jobs canceled or timed out.", m.JobsCanceled.Load())
	e.Counter("reusetoold_jobs_rejected_total", "Submissions rejected (queue full or draining).", m.JobsRejected.Load())
	e.Counter("reusetoold_cache_hits_total", "Analyze requests served from the result cache.", m.CacheHits.Load())
	e.Counter("reusetoold_cache_misses_total", "Analyze requests that ran the pipeline.", m.CacheMisses.Load())
	e.Counter("reusetoold_cache_disk_hits_total", "Cache hits satisfied by the on-disk artifact store.", m.CacheDiskHits.Load())
	e.Counter("reusetoold_cache_evictions_total", "Entries evicted from the memory tier.", m.CacheEvictions.Load())
	e.Counter("reusetoold_cache_verify_failures_total", "Cache entries refused at any entry point (put, disk load, remote GET, peer PUT) or whose memory copy failed its digest.", m.CacheBadVerify.Load())
	e.Counter("reusetoold_remote_cache_hits_total", "Cache hits satisfied by the shared remote tier.", m.RemoteHits.Load())
	e.Counter("reusetoold_remote_cache_misses_total", "Remote-tier lookups that found nothing.", m.RemoteMisses.Load())
	e.Counter("reusetoold_remote_cache_errors_total", "Remote-tier round-trips that failed (network, decode, or verify).", m.RemoteErrors.Load())
	e.Counter("reusetoold_remote_cache_puts_total", "Entries pushed to the shared remote tier.", m.RemotePuts.Load())
	e.Counter("reusetoold_cache_peer_hits_total", "Peer GET /v1/cache requests served from local tiers.", m.PeerHits.Load())
	e.Counter("reusetoold_cache_peer_misses_total", "Peer GET /v1/cache requests that missed.", m.PeerMisses.Load())
	e.Counter("reusetoold_cache_peer_puts_total", "Peer PUT /v1/cache entries accepted.", m.PeerPuts.Load())
	e.Counter("reusetoold_write_behind_coalesced_total", "Write-behind enqueues coalesced onto a pending key.", m.WriteBehindCoalesced.Load())
	e.Counter("reusetoold_write_behind_dropped_total", "Write-behind entries dropped (queue full or shutdown deadline).", m.WriteBehindDropped.Load())
	e.Counter("reusetoold_disk_write_errors_total", "Failed disk-tier cache writes.", m.DiskWriteErrors.Load())
	e.Gauge("reusetoold_analyze_seconds_total", "Wall-clock seconds spent inside the analysis pipeline.", float64(m.AnalyzeNanos.Load())/1e9)
	e.Counter("reusetoold_models_fitted_total", "Cross-input scaling models fitted.", m.ModelsFitted.Load())
	e.Counter("reusetoold_fit_training_warm_hits_total", "Fit training runs served from the result cache.", m.FitWarmHits.Load())
	e.Counter("reusetoold_predicts_served_total", "What-if predictions answered from a fitted model.", m.PredictsServed.Load())
	e.Counter("reusetoold_predict_no_model_total", "Predictions rejected because no fitted model was cached.", m.PredictNoModel.Load())
	e.Gauge("reusetoold_predict_seconds_total", "Wall-clock seconds spent in model lookup and histogram reconstruction.", float64(m.PredictNanos.Load())/1e9)
	e.Counter("reusetoold_sampled_jobs_total", "Analyses executed with SHARDS sampling enabled.", m.SampledJobs.Load())
	e.Gauge("reusetoold_sampled_blocks", "Blocks admitted into the sample by the most recent sampled analysis.", float64(m.SampledBlocks.Load()))
	e.Gauge("reusetoold_sampling_effective_rate", "Final effective sampling rate of the most recent sampled analysis.", float64(m.SampleRate.Load()))
	e.Gauge("reusetoold_queue_depth", "Jobs waiting in the FIFO queue.", float64(g.QueueDepth))
	e.Gauge("reusetoold_jobs_running", "Jobs currently executing on workers.", float64(g.RunningJobs))
	e.Gauge("reusetoold_cache_entries", "Entries resident in the memory cache tier.", float64(g.CacheEntries))
	e.Gauge("reusetoold_write_behind_queue_depth", "Entries waiting in the write-behind queue to the remote tier.", float64(g.WriteBehindDepth))
	drain := 0.0
	if g.Draining {
		drain = 1
	}
	e.Gauge("reusetoold_draining", "1 while the daemon is draining for shutdown.", drain)
}

// Exposition writes metrics in the Prometheus text format for both
// roles' /metrics: each family's HELP and TYPE lines, then its samples.
type Exposition struct{ W io.Writer }

// Family begins a metric family of type typ: its HELP and TYPE lines.
func (e Exposition) Family(name, typ, help string) {
	fmt.Fprintf(e.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of the family just begun, labelled
// {label="value"} when label is not empty. v prints as %v does:
// integers in decimal, floats as %g.
func (e Exposition) Sample(name, label, value string, v any) {
	if label != "" {
		name += fmt.Sprintf("{%s=%q}", label, value)
	}
	fmt.Fprintf(e.W, "%s %v\n", name, v)
}

// Counter writes a counter family of one sample.
func (e Exposition) Counter(name, help string, v uint64) {
	e.Family(name, "counter", help)
	e.Sample(name, "", "", v)
}

// Gauge writes a gauge family of one sample: v is an integer or a
// float64.
func (e Exposition) Gauge(name, help string, v any) {
	e.Family(name, "gauge", help)
	e.Sample(name, "", "", v)
}
