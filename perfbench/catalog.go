package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"reusetool/pkg/client"
)

// request is one distinct analyze request of a workload. label names it
// in the oracle, independent of how the daemon keys its cache.
type request struct {
	label string
	req   client.AnalyzeRequest
}

// The batch rotations. Each rotation sends every request once, in a
// seeded order, to a daemon with an empty cache, so every request runs
// the pipeline on the sequential path the daemon always takes.
var (
	// exactCold is the paper's Section V case studies, original and tuned.
	exactCold = []request{
		{"sweep3d", client.AnalyzeRequest{Workload: "sweep3d"}},
		{"sweep3d-blk6ic", client.AnalyzeRequest{Workload: "sweep3d-blk6ic"}},
		{"gtc", client.AnalyzeRequest{Workload: "gtc"}},
		{"gtc-tuned", client.AnalyzeRequest{Workload: "gtc-tuned"}},
	}
	// sampledLarge is the same two codes at larger inputs under SHARDS
	// sampling at a fixed rate, so the interpreter dominates.
	sampledLarge = []request{
		{"sweep3d{it=24,jt=24,kt=24}@R64", client.AnalyzeRequest{
			Workload: "sweep3d", Params: map[string]int64{"it": 24, "jt": 24, "kt": 24}, SampleRate: 64}},
		{"gtc{micell=60}@R64", client.AnalyzeRequest{
			Workload: "gtc", Params: map[string]int64{"micell": 60}, SampleRate: 64}},
	}
)

// batchWarmup is the small analysis a batch set-up runs once, so the
// first timed request does not pay the process's lazy set-up.
var batchWarmup = request{"fig1a", client.AnalyzeRequest{Workload: "fig1a"}}

// builtins lists the daemon's built-in workloads that service-warm
// caches in both modes. The sweep3d and gtc variants are cached in static
// mode only: their dynamic fills would add about 8 s to every set-up
// without adding a hit-path shape that sweep3d and gtc do not already
// have.
var builtins = []string{
	"fig1a", "fig1b", "fig2", "stream", "stencil", "transpose",
	"sweep3d", "gtc", "sweep3d-blk6", "sweep3d-blk6ic", "gtc-tuned",
}

// dynamicBuiltins is the subset of builtins cached in dynamic mode.
var dynamicBuiltins = map[string]bool{
	"fig1a": true, "fig1b": true, "fig2": true, "stream": true,
	"stencil": true, "transpose": true, "sweep3d": true, "gtc": true,
}

// programsDir holds the .loop example programs, relative to the
// checkout root the benchmark runs from.
const programsDir = "programs"

// hitKeys returns the service-warm hit set in Zipf rank order, most
// popular first. The order is fixed, so a seed changes which keys are
// drawn when, not how popular each one is; the cheap small-program keys
// lead, so the median hit is a small-program hit, and the sweep3d and
// gtc keys, whose cache verification costs 5-20 ms, sit in the tail.
func hitKeys(loops map[string]string) []request {
	var small, heavy []request
	for _, w := range builtins {
		heavyW := strings.HasPrefix(w, "sweep3d") || strings.HasPrefix(w, "gtc")
		add := func(r request) {
			if heavyW {
				heavy = append(heavy, r)
			} else {
				small = append(small, r)
			}
		}
		if dynamicBuiltins[w] {
			add(request{w, client.AnalyzeRequest{Workload: w}})
		}
		add(request{w + "@static", client.AnalyzeRequest{Workload: w, Mode: "static"}})
	}
	names := make([]string, 0, len(loops))
	for name := range loops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// The sweep3d kernel is sent for a static analysis: its dynamic
		// fill would repeat the built-in sweep3d's 3 s one.
		if strings.HasPrefix(name, "sweep3d") {
			heavy = append(heavy, request{"loop:" + name + "@static", client.AnalyzeRequest{Program: loops[name], Mode: "static"}})
		} else {
			small = append(small, request{"loop:" + name, client.AnalyzeRequest{Program: loops[name]}})
		}
	}
	return append(small, heavy...)
}

// readLoops loads the example .loop programs sent as inline source.
func readLoops() (map[string]string, error) {
	paths, err := filepath.Glob(filepath.Join(programsDir, "*.loop"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no %s/*.loop programs (run from the repository root)", programsDir)
	}
	loops := map[string]string{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		loops[strings.TrimSuffix(filepath.Base(p), ".loop")] = string(src)
	}
	return loops, nil
}

// missPool is one program's fresh static-mode bindings: parameter
// values no other request uses, so each is a cache miss the first time
// it is drawn and is never drawn twice in a run.
type missPool struct {
	workload string
	param    string
	first    int64
}

// missPools rotate in this order, one miss each, so every run has the
// same mix of miss programs whatever the seed.
var missPools = []missPool{
	{"fig2", "N", 401},
	{"stencil", "N", 129},
	{"stream", "N", 16385},
	{"transpose", "N", 257},
}

// missesPerPool bounds the misses per program and run. With the hit
// keys, the fit training entries and the two models, a run's distinct
// keys stay under the daemon's default 128-entry memory tier, so the
// seed decides hits and eviction never does.
const missesPerPool = 23

func (p missPool) request(i int) request {
	v := p.first + int64(i)
	return request{
		fmt.Sprintf("%s@static{%s=%d}", p.workload, p.param, v),
		client.AnalyzeRequest{Workload: p.workload, Mode: "static", Params: map[string]int64{p.param: v}},
	}
}

// model is one fitted scaling model served by /v1/predict.
type model struct {
	fit     client.FitRequest
	targets []int64 // values of param predicted in the mix
	param   string
}

var models = []model{
	{client.FitRequest{Workload: "fig2", TrainParams: []map[string]int64{{"N": 64}, {"N": 96}, {"N": 128}}},
		[]int64{512, 1024, 2048, 4096}, "N"},
	{client.FitRequest{Workload: "stencil", TrainParams: []map[string]int64{{"N": 32}, {"N": 48}, {"N": 64}}},
		[]int64{256, 512, 1024, 2048}, "N"},
}

// prediction is one /v1/predict request of the mix.
type prediction struct {
	label string
	model int
	req   client.PredictRequest
}

func (m model) prediction(i, target int) prediction {
	v := m.targets[target]
	return prediction{
		label: fmt.Sprintf("%s{%s=%d}", m.fit.Workload, m.param, v),
		model: i,
		req: client.PredictRequest{
			Workload: m.fit.Workload, TrainParams: m.fit.TrainParams,
			Params: map[string]int64{m.param: v},
		},
	}
}

// The service-warm mix: shares of analyze misses and predicts; the rest
// are analyze hits drawn from a Zipf law over the hit keys.
const (
	missShare    = 0.015
	predictShare = 0.05
	zipfS        = 1.1
)

// zipfWeights is each hit key's probability under the mix's Zipf law,
// the law rand.Zipf draws from: rank k has weight (1+k)^-s.
func zipfWeights(hits []request) map[string]float64 {
	w := map[string]float64{}
	for k, r := range hits {
		w[r.label] = math.Pow(float64(1+k), -zipfS)
	}
	return w
}

type opKind int

const (
	opHit opKind = iota
	opMiss
	opPredict
)

// op is one request of the service-warm sequence.
type op struct {
	kind opKind
	hit  int        // index into the hit keys (opHit)
	miss request    // the fresh binding (opMiss)
	pred prediction // the what-if query (opPredict)
}

// mix draws the service-warm operation sequence from a seed.
type mix struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	orders [][]int // per pool: seeded order of its fresh bindings
	misses int
}

func newMix(seed int64, nHits int) *mix {
	rng := rand.New(rand.NewSource(seed))
	m := &mix{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(nHits-1))}
	for range missPools {
		m.orders = append(m.orders, rng.Perm(missesPerPool))
	}
	return m
}

// next returns the next operation; ok is false once the miss pools are
// spent, which ends the run rather than let a key repeat as a "miss".
func (m *mix) next() (o op, ok bool) {
	u := m.rng.Float64()
	switch {
	case u < missShare:
		pool := m.misses % len(missPools)
		i := m.misses / len(missPools)
		if i >= missesPerPool {
			return op{}, false
		}
		m.misses++
		return op{kind: opMiss, miss: missPools[pool].request(m.orders[pool][i])}, true
	case u < missShare+predictShare:
		mi := m.rng.Intn(len(models))
		return op{kind: opPredict, pred: models[mi].prediction(mi, m.rng.Intn(len(models[mi].targets)))}, true
	}
	return op{kind: opHit, hit: int(m.zipf.Uint64())}, true
}
