package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"reusetool/internal/cache"
	"reusetool/internal/ir"
	"reusetool/internal/persist"
	"reusetool/internal/predict"
	"reusetool/internal/sampling"
	"reusetool/pkg/client"
)

// Fit/predict service surface: POST /v1/fit schedules the 3–5 training
// analyses (each reusing the result cache when warm) and fits one
// cross-input scaling model, cached in the content-addressed store
// under the distinct model/ key namespace; POST /v1/predict answers
// what-if queries synchronously from the cached model — microseconds,
// no interpreter run.

// Training-run-count bounds. More than maxTrainRuns small runs buys no
// accuracy our 2-coefficient fits can use and turns "cheap training"
// into a batch job.
const (
	minTrainRuns = 2
	maxTrainRuns = 8
)

// resolvedFit is a validated fit request.
type resolvedFit struct {
	req       client.FitRequest
	prog      *ir.Program
	canonical string
	hier      *cache.Hierarchy
	hierName  string
	name      string
	timeout   time.Duration
}

// resolveFit validates a fit request. Unsound sampling configurations
// are refused with an error wrapping predict.ErrUnsoundTraining so the
// handler can map them to the typed unsound_training_input code.
func resolveFit(req client.FitRequest, maxTimeout time.Duration) (*resolvedFit, error) {
	// Neither the model key nor a training request carries a negative
	// cap, so it would be dropped; /v1/analyze refuses it the same way.
	if req.SampleMaxBlocks < 0 {
		return nil, sampling.Config{MaxBlocks: req.SampleMaxBlocks}.Validate()
	}
	if req.SampleRate > 1 || req.SampleMaxBlocks > 0 {
		return nil, fmt.Errorf("sample_rate %d, sample_max_blocks %d: %w",
			req.SampleRate, req.SampleMaxBlocks, predict.ErrUnsoundTraining)
	}
	// Every training analyze would refuse a seed that samples nothing;
	// refuse it here, before any of them runs.
	if req.SampleSeed != 0 && req.SampleRate != 1 {
		return nil, fmt.Errorf("sample_seed %d without sample_rate 1 samples nothing", req.SampleSeed)
	}
	if n := len(req.TrainParams); n < minTrainRuns || n > maxTrainRuns {
		return nil, fmt.Errorf("train_params needs %d-%d bindings (3-5 recommended), got %d",
			minTrainRuns, maxTrainRuns, n)
	}
	// The shared resolver validates the source, hierarchy, and every
	// binding's parameter names.
	base, err := resolve(client.AnalyzeRequest{
		Workload:  req.Workload,
		Program:   req.Program,
		Hierarchy: req.Hierarchy,
		HistRes:   req.HistRes,
		TimeoutMS: req.TimeoutMS,
	}, maxTimeout)
	if err != nil {
		return nil, err
	}
	rf := &resolvedFit{
		req:       req,
		prog:      base.prog,
		canonical: base.canonical,
		hier:      base.hier,
		hierName:  base.hierName,
		name:      base.name,
		timeout:   base.timeout,
	}
	varies := false
	for i, params := range req.TrainParams {
		for name := range params {
			if _, ok := rf.prog.Defaults[name]; !ok {
				return nil, fmt.Errorf("train_params[%d]: program %s has no parameter %q", i, rf.name, name)
			}
		}
		if i > 0 && !bindingEqual(req.TrainParams[0], params, rf.prog.Defaults) {
			varies = true
		}
	}
	if !varies {
		return nil, fmt.Errorf("the %d training bindings are identical; vary at least one parameter", len(req.TrainParams))
	}
	return rf, nil
}

// bindingEqual compares two override maps under the program defaults.
func bindingEqual(a, b map[string]int64, defaults map[string]int64) bool {
	for name, def := range defaults {
		av, bv := def, def
		if v, ok := a[name]; ok {
			av = v
		}
		if v, ok := b[name]; ok {
			bv = v
		}
		if av != bv {
			return false
		}
	}
	return true
}

// modelKey is the content address of the fitted model: a SHA-256 with a
// distinct "model/" namespace preimage over the canonical IR bytes, the
// machine, the histogram resolution, the sampling config, and the full
// (canonically ordered) training-binding set. Two fits of the same
// program on the same training inputs — from any node or client — land
// on the same key; the key shape itself stays a valid cache key, so the
// disk and peer tiers need no changes.
func (rf *resolvedFit) modelKey() string {
	h := sha256.New()
	write := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	write("reusetoold/model/v1")
	if rf.req.Workload != "" {
		write("workload", rf.req.Workload)
	} else {
		write("program")
	}
	write(rf.canonical)
	write("hier", rf.hierName)
	write("histres", strconv.Itoa(rf.req.HistRes))
	if rf.req.SampleRate == 1 {
		write("sample", strconv.FormatUint(rf.req.SampleSeed, 10))
	}
	// Bindings are order-insensitive: serialize each canonically, then
	// sort the serializations.
	lines := make([]string, 0, len(rf.req.TrainParams))
	for _, params := range rf.req.TrainParams {
		names := make([]string, 0, len(params))
		for name := range params {
			names = append(names, name)
		}
		sort.Strings(names)
		var b bytes.Buffer
		for _, name := range names {
			fmt.Fprintf(&b, "%s=%d;", name, params[name])
		}
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	for _, l := range lines {
		write("train", l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trainingRequest builds the analyze request for one training binding —
// exactly what a client would POST to /v1/analyze, so training results
// share keys (and cache entries) with ordinary analyses of the same
// small inputs.
func (rf *resolvedFit) trainingRequest(i int) client.AnalyzeRequest {
	return client.AnalyzeRequest{
		Workload:   rf.req.Workload,
		Program:    rf.req.Program,
		Params:     rf.req.TrainParams[i],
		Hierarchy:  rf.req.Hierarchy,
		HistRes:    rf.req.HistRes,
		TimeoutMS:  rf.req.TimeoutMS,
		SampleRate: rf.req.SampleRate,
		SampleSeed: rf.req.SampleSeed,
	}
}

// ModelKeyFor validates a fit request and computes its model cache key
// without executing anything. The coordinator shards fit jobs across
// the ring with it, exactly as CacheKeyFor shards analyses.
func ModelKeyFor(req client.FitRequest) (string, error) {
	rf, err := resolveFit(req, 0)
	if err != nil {
		return "", err
	}
	return rf.modelKey(), nil
}

// TrainingRequests validates a fit request and expands it into the
// per-binding analyze requests its training runs execute. The
// coordinator schedules these as related jobs across the ring.
func TrainingRequests(req client.FitRequest) ([]client.AnalyzeRequest, error) {
	rf, err := resolveFit(req, 0)
	if err != nil {
		return nil, err
	}
	out := make([]client.AnalyzeRequest, len(req.TrainParams))
	for i := range req.TrainParams {
		out[i] = rf.trainingRequest(i)
	}
	return out, nil
}

// FitSpec converts a predict request's fit-spec fields back into the
// fit request whose model it addresses.
func FitSpec(req client.PredictRequest) client.FitRequest {
	return client.FitRequest{
		Workload:    req.Workload,
		Program:     req.Program,
		TrainParams: req.TrainParams,
		Hierarchy:   req.Hierarchy,
		HistRes:     req.HistRes,
	}
}

// fit executes the training runs (warm training inputs come straight
// from the result cache) and fits the model. Runs before it in the
// worker pool give it their cache entries for free — the coordinator
// exploits this by scheduling the training analyses as related jobs
// first. parallel is the job's fan-out grant, which every cold training
// run uses.
func (s *Server) fit(ctx context.Context, rf *resolvedFit, parallel bool) (*CacheEntry, error) {
	runs := make([]*predict.TrainingRun, len(rf.req.TrainParams))
	for i := range rf.req.TrainParams {
		child, err := resolve(rf.trainingRequest(i), s.cfg.MaxJobTimeout)
		if err != nil {
			return nil, fmt.Errorf("training run %d: %w", i, err)
		}
		key := child.cacheKey()
		entry, ok := s.cache.Get(ctx, key)
		if ok {
			s.metrics.FitWarmHits.Add(1)
		} else {
			if entry, err = child.execute(ctx, parallel); err != nil {
				return nil, fmt.Errorf("training run %d: %w", i, err)
			}
			s.cache.Put(entry)
		}
		d, err := persist.Load(bytes.NewReader(entry.Artifact))
		if err != nil {
			return nil, fmt.Errorf("training run %d: %w", i, err)
		}
		run, err := predict.NewTrainingRun(d.Collector(), rf.req.TrainParams[i])
		if err != nil {
			return nil, fmt.Errorf("training run %d: %w", i, err)
		}
		if entry.SampleRate > run.SampleRate {
			run.SampleRate = entry.SampleRate
		}
		runs[i] = run
	}

	info, err := rf.prog.Finalize()
	if err != nil {
		return nil, err
	}
	m, err := predict.Fit(info, runs, predict.FitOptions{
		HierName: rf.hierName,
		HistRes:  rf.req.HistRes,
	})
	if err != nil {
		return nil, err
	}
	data, err := predict.Encode(m)
	if err != nil {
		return nil, err
	}
	var report bytes.Buffer
	m.WriteSummary(&report)
	doc, err := json.Marshal(map[string]any{
		"model":   rf.modelKey(),
		"program": m.Program,
		"runs":    m.Runs,
		"grans":   len(m.Grans),
	})
	if err != nil {
		return nil, err
	}
	s.metrics.ModelsFitted.Add(1)
	entry := &CacheEntry{
		Key:         rf.modelKey(),
		Program:     rf.name,
		Fingerprint: predict.Checksum(data),
		Model:       data,
		Report:      report.Bytes(),
		JSON:        doc,
	}
	s.cache.Put(entry)
	return entry, nil
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	var req client.FitRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	rf, err := resolveFit(req, s.cfg.MaxJobTimeout)
	if err != nil {
		WriteInvalid(w, err)
		return
	}
	key := rf.modelKey()
	// One job covers the training runs plus the fit; a cached entry only
	// counts as a hit when it holds a fitted model.
	hit, _ := s.cache.Get(r.Context(), key)
	if hit != nil && len(hit.Model) == 0 {
		hit = nil
	}
	s.serve(w, key, rf.timeout, hit, func(ctx context.Context, parallel bool) (*CacheEntry, error) {
		return s.fit(ctx, rf, parallel)
	})
}

// modelCacheEntries bounds the per-daemon decoded-model cache. Decoded
// models are immutable and small; this only caps growth under key churn.
const modelCacheEntries = 32

// modelCache memoizes decoded models so repeated predictions skip the
// gob decode — lookup is a mutex-guarded map read on the serving path.
type modelCache struct {
	mu sync.Mutex
	m  map[string]*predict.Model
}

func (mc *modelCache) get(key string) *predict.Model {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.m[key]
}

func (mc *modelCache) put(key string, m *predict.Model) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.m == nil {
		mc.m = make(map[string]*predict.Model, modelCacheEntries)
	}
	if len(mc.m) >= modelCacheEntries {
		for k := range mc.m {
			delete(mc.m, k)
			break
		}
	}
	mc.m[key] = m
}

// lookupModel finds a fitted model by key: decoded-model memo first,
// then the content-addressed cache (memory → disk → remote tiers).
func (s *Server) lookupModel(ctx context.Context, key string) (*predict.Model, error) {
	if m := s.models.get(key); m != nil {
		return m, nil
	}
	entry, ok := s.cache.Get(ctx, key)
	if !ok || len(entry.Model) == 0 {
		return nil, nil
	}
	m, err := predict.Decode(entry.Model)
	if err != nil {
		return nil, err
	}
	s.models.put(key, m)
	return m, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req client.PredictRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	key := req.Model
	if key == "" {
		var err error
		if key, err = ModelKeyFor(FitSpec(req)); err != nil {
			WriteInvalid(w, err)
			return
		}
	} else if !validCacheKey(key) {
		WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "malformed model key %q", key)
		return
	}

	// The timed window is the serving contract: model lookup plus
	// histogram reconstruction. Report rendering happens after the clock
	// stops — it is presentation, not prediction.
	start := time.Now()
	m, err := s.lookupModel(r.Context(), key)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, client.CodeInternal, "%v", err)
		return
	}
	if m == nil {
		s.metrics.PredictNoModel.Add(1)
		WriteError(w, http.StatusNotFound, client.CodeNotFound,
			"no fitted model %s; POST /v1/fit first", key)
		return
	}
	pred, err := m.Predict(req.Params)
	if err != nil {
		WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "%v", err)
		return
	}
	hier, err := cache.ByName(m.Hierarchy)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, client.CodeInternal, "model hierarchy: %v", err)
		return
	}
	levels := pred.LevelMisses(hier)
	elapsed := time.Since(start)
	s.metrics.PredictsServed.Add(1)
	s.metrics.PredictNanos.Add(uint64(elapsed.Nanoseconds()))

	level := req.Level
	if level == "" {
		level = "L2"
	}
	if hier.Level(level) == nil {
		WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest,
			"hierarchy %s has no level %q", hier.Name, level)
		return
	}
	var report bytes.Buffer
	m.WriteReport(&report, pred, hier, level)

	resp := client.PredictResponse{
		APIVersion: client.APIVersion,
		Model:      key,
		Params:     map[string]int64{},
		ElapsedUS:  float64(elapsed.Nanoseconds()) / 1e3,
		Report:     report.String(),
	}
	for _, p := range pred.Params {
		resp.Params[p.Name] = p.Default
	}
	for _, lm := range levels {
		resp.Levels = append(resp.Levels, client.PredictedLevel{
			Level:          lm.Level,
			TotalMisses:    lm.Total,
			ColdMisses:     lm.Cold,
			CapacityMisses: lm.Capacity,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}
