package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"time"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/persist"
	"reusetool/internal/sampling"
	"reusetool/internal/workloads"
	"reusetool/pkg/client"
)

// AnalyzeRequest is the POST /v1/analyze body. The wire type lives in
// pkg/client — the public client package is the source of truth for
// the v1 protocol — and the server aliases it so resolve() and the
// handlers cannot drift from what clients send.
type AnalyzeRequest = client.AnalyzeRequest

// CacheKeyFor validates a request and computes its content-addressed
// cache key without executing anything. The cluster coordinator shards
// jobs across workers with it: the key a worker would compute for the
// same request is identical, so routing by key gives every worker an
// effectively private slice of the keyspace.
func CacheKeyFor(req AnalyzeRequest) (string, error) {
	rr, err := resolve(req, 0)
	if err != nil {
		return "", err
	}
	return rr.cacheKey(), nil
}

// resolved is a validated request, ready to key and execute: the
// program is parsed/built, the hierarchy picked, defaults applied.
type resolved struct {
	req       AnalyzeRequest
	prog      *ir.Program
	init      func(*interp.Machine) error
	canonical string // canonical IR bytes (lang.Format of the program)
	dataset   *persist.Dataset
	hier      *cache.Hierarchy
	hierName  string
	mode      string
	level     string
	minShare  float64
	timeout   time.Duration
	name      string // program name for bookkeeping
	sample    sampling.Config
}

// resolve validates a request and normalizes it into executable form.
func resolve(req AnalyzeRequest, maxTimeout time.Duration) (*resolved, error) {
	r := &resolved{req: req}

	nSources := 0
	if req.Workload != "" {
		nSources++
	}
	if req.Program != "" {
		nSources++
	}
	if nSources != 1 {
		return nil, fmt.Errorf("exactly one of workload or program must be set")
	}

	switch {
	case req.Workload != "":
		prog, init, err := workloads.Build(req.Workload)
		if err != nil {
			return nil, err
		}
		r.prog, r.init, r.name = prog, init, prog.Name
	case req.Program != "":
		prog, init, err := lang.Parse(req.Program)
		if err != nil {
			return nil, fmt.Errorf("program: %w", err)
		}
		r.prog, r.init, r.name = prog, init, prog.Name
	}
	// Canonical IR bytes: the formatted program is whitespace- and
	// comment-insensitive, so trivially different spellings of the same
	// program share a cache key.
	r.canonical = lang.Format(r.prog)

	if len(req.Artifact) > 0 {
		d, err := persist.Load(bytes.NewReader(req.Artifact))
		if err != nil {
			return nil, fmt.Errorf("artifact: %w", err)
		}
		r.dataset = d
	}

	r.mode = req.Mode
	if r.mode == "" {
		r.mode = "dynamic"
	}
	if r.mode != "dynamic" && r.mode != "static" {
		return nil, fmt.Errorf("unknown mode %q (want dynamic or static)", req.Mode)
	}
	if r.mode == "static" && r.dataset != nil {
		return nil, fmt.Errorf("static mode cannot be combined with an artifact")
	}
	if r.dataset != nil && req.HistRes != 0 {
		return nil, fmt.Errorf("an artifact keeps its collection-time histogram resolution; drop histres")
	}

	r.sample = sampling.Config{
		Rate:      req.SampleRate,
		MaxBlocks: req.SampleMaxBlocks,
		Seed:      req.SampleSeed,
	}
	if err := r.sample.Validate(); err != nil {
		return nil, err
	}
	if r.sample.Enabled() {
		if r.mode == "static" {
			return nil, fmt.Errorf("static mode cannot sample; drop the sample_* fields")
		}
		if r.dataset != nil {
			return nil, fmt.Errorf("an artifact keeps its collection-time sampling; drop the sample_* fields")
		}
	}

	r.hierName = req.Hierarchy
	if r.hierName == "" {
		r.hierName = "scaled"
	}
	hier, err := cache.ByName(r.hierName)
	if err != nil {
		return nil, err
	}
	r.hier = hier

	for name := range req.Params {
		if _, ok := r.prog.Defaults[name]; !ok {
			return nil, fmt.Errorf("program %s has no parameter %q", r.name, name)
		}
	}

	r.level = req.Level
	if r.level == "" {
		r.level = "L2"
	}
	if r.hier.Level(r.level) == nil {
		return nil, fmt.Errorf("hierarchy %s has no level %q", r.hier.Name, r.level)
	}
	r.minShare = req.MinShare
	if r.minShare == 0 {
		r.minShare = 0.02
	}

	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative timeout_ms")
	}
	r.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	if maxTimeout > 0 && r.timeout > maxTimeout {
		r.timeout = maxTimeout
	}
	return r, nil
}

// cacheKey is the content address of the analysis: a SHA-256 over the
// canonical IR bytes and every option that can change the result or the
// rendered report. Submitting the same program with the same options —
// whether as a workload name, differently formatted source, or from a
// different client — lands on the same key.
func (r *resolved) cacheKey() string {
	h := sha256.New()
	write := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	write("reusetoold/v1")
	// Workload submissions are keyed by name in addition to the IR: a
	// built-in may carry Go-side init state (e.g. gtc's particle fill)
	// that the formatted IR does not capture, so it must not alias a
	// source submission of the same text.
	if r.req.Workload != "" {
		write("workload", r.req.Workload)
	} else {
		write("program")
	}
	write(r.canonical)
	if len(r.req.Artifact) > 0 {
		sum := sha256.Sum256(r.req.Artifact)
		write("artifact", hex.EncodeToString(sum[:]))
	}
	write("hier", r.hierName, "mode", r.mode)
	// Sampled and exact analyses of the same program must never share a
	// key. Exact requests write nothing here, so every pre-sampling key
	// is unchanged; sampled requests key on the normalized config, so
	// equivalent spellings (seed 0 vs. the explicit default) coincide.
	if r.sample.Enabled() {
		n := r.sample.Normalized()
		write("sample",
			strconv.FormatUint(n.Rate, 10),
			strconv.Itoa(n.MaxBlocks),
			strconv.FormatUint(n.Seed, 10))
	}
	write("histres", strconv.Itoa(r.req.HistRes))
	write("level", r.level)
	write("minshare", strconv.FormatFloat(r.minShare, 'g', -1, 64))
	names := make([]string, 0, len(r.req.Params))
	for name := range r.req.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		write("param", name, strconv.FormatInt(r.req.Params[name], 10))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// execute runs the pipeline for a cache miss and packages the result as
// a cache entry: rendered report, deterministic JSON, persist artifact,
// and the collector fingerprint the cache verifies hits against.
// parallel is the scheduler's fan-out grant (core.Options.Parallel); the
// entry is byte-identical either way.
func (r *resolved) execute(ctx context.Context, parallel bool) (*CacheEntry, error) {
	opts := core.Options{
		Hierarchy: r.hier,
		Params:    r.req.Params,
		HistRes:   r.req.HistRes,
		Sampling:  r.sample,
		Parallel:  parallel,
	}
	var src core.Source
	switch {
	case r.dataset != nil:
		src = core.SavedSource{
			Prog:      r.prog,
			Collector: r.dataset.Collector(),
			Trips:     r.dataset.TripsFunc(1),
		}
	case r.mode == "static":
		src = core.StaticSource{Prog: r.prog}
	default:
		src = core.DynamicSource{Prog: r.prog, Init: r.init}
	}
	res, err := core.Pipeline{Source: src, Options: opts}.RunContext(ctx)
	if err != nil {
		return nil, err
	}

	var report bytes.Buffer
	if err := res.WriteSummary(&report, r.level, r.minShare); err != nil {
		return nil, fmt.Errorf("render report: %w", err)
	}
	doc, err := res.EncodeJSON()
	if err != nil {
		return nil, err
	}
	var artifact bytes.Buffer
	snap := persist.Snapshot(res.Collector, r.name, nil)
	if res.Run != nil {
		snap = persist.Snapshot(res.Collector, r.name, res.Run.Trips)
	}
	if err := persist.Save(&artifact, snap); err != nil {
		return nil, err
	}
	entry := &CacheEntry{
		Key:         r.cacheKey(),
		Program:     r.name,
		Fingerprint: res.Collector.Fingerprint(),
		Artifact:    artifact.Bytes(),
		Report:      report.Bytes(),
		JSON:        doc,
	}
	if any, infos := res.Collector.Sampled(); any {
		for _, info := range infos {
			if !info.Enabled {
				continue
			}
			entry.SampledBlocks += uint64(info.AdmittedBlocks)
			if info.Rate > entry.SampleRate {
				entry.SampleRate = info.Rate
			}
		}
	}
	return entry, nil
}
