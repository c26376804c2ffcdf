package cluster

import (
	"io"
	"sort"
	"sync/atomic"
	"time"

	"reusetool/internal/server"
)

// Metrics is the coordinator's counter registry, rendered on
// GET /metrics alongside per-node gauges sampled at request time.
type Metrics struct {
	start time.Time

	// JobsProxied counts analyze submissions accepted and forwarded to a
	// worker.
	JobsProxied atomic.Uint64
	// JobsRerouted counts jobs moved to another worker after their node
	// failed.
	JobsRerouted atomic.Uint64
	// SubmitRetries counts submit attempts beyond the first, across all
	// jobs (retries on the same node plus successor fallbacks).
	SubmitRetries atomic.Uint64
	// ProbeFailures counts failed health probes.
	ProbeFailures atomic.Uint64
	// NodesEvicted counts ring evictions after consecutive probe
	// failures; NodesRejoined counts evicted nodes re-admitted after a
	// successful probe.
	NodesEvicted  atomic.Uint64
	NodesRejoined atomic.Uint64

	// FitsProxied counts /v1/fit submissions accepted; each schedules
	// TrainingJobsScheduled related analyze jobs across the ring before
	// the fit itself is placed. PredictsProxied counts synchronous
	// /v1/predict queries forwarded to the model's ring owner.
	FitsProxied           atomic.Uint64
	PredictsProxied       atomic.Uint64
	TrainingJobsScheduled atomic.Uint64
}

// NewMetrics starts the uptime clock.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// NodeGauge is one worker's point-in-time state for the exposition.
type NodeGauge struct {
	Node     string
	Healthy  bool
	Inflight int
}

// WriteText renders the registry in the Prometheus exposition format.
// Per-node series are emitted in sorted node order so consecutive
// scrapes of an unchanged cluster are byte-identical.
func (m *Metrics) WriteText(w io.Writer, nodes []NodeGauge) {
	e := server.Exposition{W: w}
	e.Gauge("reusetoold_cluster_uptime_seconds", "Seconds since the coordinator started.", time.Since(m.start).Seconds())
	e.Counter("reusetoold_cluster_jobs_proxied_total", "Jobs accepted and forwarded to a worker.", m.JobsProxied.Load())
	e.Counter("reusetoold_cluster_jobs_rerouted_total", "Jobs moved to another worker after a node failure.", m.JobsRerouted.Load())
	e.Counter("reusetoold_cluster_submit_retries_total", "Submit attempts beyond the first.", m.SubmitRetries.Load())
	e.Counter("reusetoold_cluster_probe_failures_total", "Failed worker health probes.", m.ProbeFailures.Load())
	e.Counter("reusetoold_cluster_nodes_evicted_total", "Workers evicted from the ring after consecutive probe failures.", m.NodesEvicted.Load())
	e.Counter("reusetoold_cluster_nodes_rejoined_total", "Evicted workers re-admitted after a successful probe.", m.NodesRejoined.Load())
	e.Counter("reusetoold_cluster_fits_proxied_total", "Model-fit submissions accepted and scheduled.", m.FitsProxied.Load())
	e.Counter("reusetoold_cluster_predicts_proxied_total", "What-if predictions forwarded to a worker.", m.PredictsProxied.Load())
	e.Counter("reusetoold_cluster_training_jobs_total", "Training analyses scheduled as related jobs for fits.", m.TrainingJobsScheduled.Load())

	sorted := append([]NodeGauge(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
	healthy := 0
	for _, n := range sorted {
		if n.Healthy {
			healthy++
		}
	}
	e.Gauge("reusetoold_cluster_nodes_healthy", "Workers currently in the ring.", healthy)
	e.Family("reusetoold_cluster_node_inflight", "gauge", "Jobs this coordinator has in flight per worker.")
	for _, n := range sorted {
		e.Sample("reusetoold_cluster_node_inflight", "node", n.Node, n.Inflight)
	}
}
