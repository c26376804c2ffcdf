// Package server turns the one-shot reuse-distance analysis into a
// long-running service: an HTTP/JSON API in front of a bounded
// worker-pool job scheduler, fronted by a content-addressed result
// cache.
//
// The request flow is:
//
//	POST /v1/analyze ── resolve ── cacheKey ──► cache hit? ── yes ─► job done immediately
//	                                               │ no            (memory → disk → remote tier)
//	                                               ▼
//	                                     FIFO queue ─► worker pool ─► core.Pipeline
//	                                               │ (per-job deadline, cancelable)
//	                                               ▼
//	                                     cache.Put(persist stream + reports)
//	                                               │ async
//	                                               ├─► disk writer (tmp+rename)
//	                                               └─► write-behind ─► remote tier (PUT /v1/cache/{key})
//
// The cache key is a SHA-256 over the canonical IR bytes (lang.Format)
// plus canonicalized options; the value is the deterministic persist-v2
// collector stream, the rendered text report, and the deterministic
// JSON document, with a SHA-256 digest over all of them. Cache hits
// skip interpretation entirely. An entry is checked once, where its
// bytes enter the process (a fresh result, a disk load, a remote GET,
// a peer PUT): its digest, then a round trip of the artifact through
// internal/persist and a compare of engine fingerprints. A memory hit
// re-hashes the served bytes against the digest and decodes nothing.
//
// The wire types live in pkg/client — the public typed client — and
// every non-2xx response carries the structured
// {"error":{"code","message"}} envelope defined there. Each daemon
// also serves the shared-cache peer protocol (GET/PUT /v1/cache/{key})
// so a fleet of workers can warm each other through a common tier.
package server

import (
	"context"
	"encoding/gob"
	"io"
	"net/http"
	"runtime"
	"time"

	"reusetool/pkg/client"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the analysis worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the FIFO job queue (default 64); submissions
	// beyond it are rejected with 429.
	QueueDepth int
	// JobTimeout is the default per-job deadline (default 2m).
	JobTimeout time.Duration
	// MaxJobTimeout caps request-supplied deadlines (default JobTimeout).
	MaxJobTimeout time.Duration
	// CacheEntries bounds the in-memory result-cache tier (default 128).
	CacheEntries int
	// CacheDir enables the on-disk artifact store when non-empty.
	CacheDir string
	// RemoteCache enables the shared remote cache tier when non-empty:
	// the base URL of another reusetoold daemon (a dedicated cache node
	// or a worker peer) serving /v1/cache.
	RemoteCache string
	// WriteBehindDepth bounds the async queue feeding the remote tier
	// (default 64).
	WriteBehindDepth int
	// SimulateLatency adds a synthetic per-job delay before the
	// analysis runs (cache misses only). It exists for load drills and
	// the cluster throughput tests, where job cost must dominate
	// scheduling overhead regardless of host CPU count; production
	// deployments leave it zero.
	SimulateLatency time.Duration
}

// Server is the reusetoold service core: share-nothing except the
// scheduler and cache, so one instance serves many concurrent clients.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *ResultCache
	sched   *Scheduler
	mux     *http.ServeMux
	// models memoizes decoded cross-input scaling models for the predict
	// serving path.
	models modelCache
}

// New builds a server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	if cfg.MaxJobTimeout <= 0 {
		cfg.MaxJobTimeout = cfg.JobTimeout
	}
	m := NewMetrics()
	var rc *RemoteCache
	if cfg.RemoteCache != "" {
		rc = NewRemoteCache(cfg.RemoteCache, m)
	}
	c, err := NewResultCache(CacheOptions{
		MaxEntries:       cfg.CacheEntries,
		Dir:              cfg.CacheDir,
		Remote:           rc,
		WriteBehindDepth: cfg.WriteBehindDepth,
	}, m)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		cache:   c,
		sched:   NewScheduler(cfg.Workers, cfg.QueueDepth, cfg.JobTimeout, m),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/check", HandleCheck)
	mux.HandleFunc("POST /v1/fit", s.handleFit)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("GET /v1/jobs", s.sched.jobs.HandleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.sched.jobs.HandleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.sched.jobs.HandleCancel)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	// PR 5 route kept as a thin compatible alias.
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the counter registry (for tests and the daemon).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the result cache (for tests and the daemon).
func (s *Server) Cache() *ResultCache { return s.cache }

// Drain stops job intake, waits for in-flight work, then flushes the
// cache's async tiers (disk writer and write-behind queue), all
// honoring ctx. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	err := s.sched.Drain(ctx)
	if cerr := s.cache.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req client.AnalyzeRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	rr, err := resolve(req, s.cfg.MaxJobTimeout)
	if err != nil {
		WriteInvalid(w, err)
		return
	}
	key := rr.cacheKey()
	// The request context bounds the remote-tier lookup, so a sick cache
	// peer delays this submission only, not the daemon.
	hit, _ := s.cache.Get(r.Context(), key)
	s.serve(w, key, rr.timeout, hit, func(ctx context.Context, parallel bool) (*CacheEntry, error) {
		if s.cfg.SimulateLatency > 0 {
			select {
			case <-time.After(s.cfg.SimulateLatency):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		entry, err := rr.execute(ctx, parallel)
		if err != nil {
			return nil, err
		}
		if entry.SampleRate > 0 {
			s.metrics.SampledJobs.Add(1)
			s.metrics.SampledBlocks.Store(entry.SampledBlocks)
			s.metrics.SampleRate.Store(entry.SampleRate)
		}
		s.cache.Put(entry)
		return entry, nil
	})
}

// serve admits a /v1/analyze or /v1/fit submission. A cache hit is
// recorded as a finished job and answered 200 without scheduling;
// otherwise run is queued as a job and answered 202, or refused with
// 429 when the queue is full and 503 while the daemon drains.
func (s *Server) serve(w http.ResponseWriter, key string, timeout time.Duration, hit *CacheEntry, run func(context.Context, bool) (*CacheEntry, error)) {
	if hit != nil {
		doc := s.sched.jobs.Add(key, hit).Doc()
		WriteJob(w, http.StatusOK, &doc)
		return
	}
	j, err := s.sched.Submit(key, timeout, run)
	if err != nil {
		status, code := http.StatusServiceUnavailable, client.CodeDraining
		if err == ErrQueueFull {
			status, code = http.StatusTooManyRequests, client.CodeQueueFull
		}
		WriteError(w, status, code, "%v", err)
		return
	}
	doc := j.Doc()
	WriteJob(w, http.StatusAccepted, &doc)
}

// handleCacheGet serves the shared-tier peer protocol: an admitted
// local entry, digest included (memory or disk tier; never recursing
// into this daemon's own remote tier), as a gob stream.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "malformed cache key %q", key)
		return
	}
	e, _ := s.cache.lookupLocal(key)
	if e == nil {
		s.metrics.PeerMisses.Add(1)
		WriteError(w, http.StatusNotFound, client.CodeNotFound, "no cache entry %s", key)
		return
	}
	s.metrics.PeerHits.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = gob.NewEncoder(w).Encode(e)
}

// handleCachePut accepts a peer's write-behind entry once PutLocal has
// admitted it (digest, then the full check), storing it in the local
// tiers only (no write-behind echo, so two peers pointing at each
// other cannot loop). Every refused entry counts in CacheBadVerify.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "malformed cache key %q", key)
		return
	}
	e, err := decodeEntry(io.LimitReader(r.Body, maxCacheEntryBytes), key, s.metrics)
	if err != nil {
		WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "%v", err)
		return
	}
	if err := s.cache.PutLocal(e); err != nil {
		WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "verify: %v", err)
		return
	}
	s.metrics.PeerPuts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteHealth(w, s.sched.Draining(), client.Health{
		Role:       "worker",
		Workers:    s.cfg.Workers,
		QueueDepth: s.sched.QueueDepth(),
		Running:    s.sched.Running(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteText(w, Gauges{
		QueueDepth:       s.sched.QueueDepth(),
		RunningJobs:      s.sched.Running(),
		CacheEntries:     s.cache.Len(),
		WriteBehindDepth: s.cache.WriteBehindLen(),
		Draining:         s.sched.Draining(),
	})
}
