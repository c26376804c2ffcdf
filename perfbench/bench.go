package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"reusetool/pkg/client"
)

// Poll pacing for async jobs. Each stays well under the shortest
// request it times: 1 s for a batch analysis, 15 ms for a static miss.
const (
	batchPoll   = 10 * time.Millisecond
	servicePoll = time.Millisecond
)

// requestTimeout bounds one request; a request that takes longer counts
// as failed.
const requestTimeout = 2 * time.Minute

// setupReps is how many times a run sets up, reporting the median.
// service-warm's set-up fills the cache with several seconds of
// analyses; a batch set-up takes about a tenth of a second.
const (
	batchSetupReps   = 7
	serviceSetupReps = 3
)

// bench carries one run's inputs and its failure tally.
type bench struct {
	seed      int64
	seconds   time.Duration
	or        *oracle
	attempted int
	failed    int
}

// fail counts a failed or wrong response and reports it on stderr.
func (b *bench) fail(err error) {
	b.failed++
	if b.failed <= 20 {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

// call is one analyze request as the client saw it.
type call struct {
	job   *client.Job
	wall  time.Duration // submit until the client sees the terminal state
	cpu   time.Duration // CPU time the process (client and daemon) spent meanwhile
	polls int
}

// analyze submits a request and polls it to a terminal state. With a
// recorder, the submit, each poll and each pause get spans under a
// "request" root.
func (b *bench) analyze(ctx context.Context, d *daemon, req client.AnalyzeRequest, rec *recorder, reqID int) (call, error) {
	b.attempted++
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	root := rec.begin("request", reqID, -1)
	start, cpu0 := time.Now(), processCPU()
	s := rec.begin("client.analyze", reqID, root)
	job, err := d.cl.Analyze(ctx, req)
	rec.end(s)
	polls := 0
	for err == nil && !job.Status.Terminal() {
		p := rec.begin("client.pause", reqID, root)
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(d.cl.PollInterval):
		}
		rec.end(p)
		if err != nil {
			break
		}
		s := rec.begin("client.job", reqID, root)
		job, err = d.cl.Job(ctx, job.ID)
		rec.end(s)
		polls++
	}
	wall, cpu := time.Since(start), processCPU()-cpu0
	rec.end(root)
	if err != nil {
		return call{}, err
	}
	return call{job: job, wall: wall, cpu: cpu, polls: polls}, nil
}

// predict sends one what-if query and times it.
func (b *bench) predict(ctx context.Context, d *daemon, req client.PredictRequest) (*client.PredictResponse, time.Duration, error) {
	b.attempted++
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	start := time.Now()
	resp, err := d.cl.Predict(ctx, req)
	return resp, time.Since(start), err
}

// samples collects one measured run's request timings.
type samples struct {
	setup    []time.Duration
	setupCPU cpuTimes // the host's CPU accounting across the set-ups
	// hits holds each hit key's CPU times; hitWeight is the key's share
	// of the workload's hits by design, not by the run's draw.
	hits       map[string][]time.Duration
	hitWeight  map[string]float64
	maccess    rate // reference accesses of pipeline runs over their wall time
	ops        rate // every timed request over the summed wall time
	allocBytes uint64
	cpu        cpuTimes // the host's CPU accounting across the measured window
}

func newSamples(hitWeight map[string]float64) *samples {
	return &samples{hits: map[string][]time.Duration{}, hitWeight: hitWeight}
}

// record counts one timed request; label names a hit's key.
func (s *samples) record(kind opKind, label string, wall, cpu time.Duration) {
	if kind == opHit {
		s.hits[label] = append(s.hits[label], cpu)
	}
	s.ops.add(1, wall)
}

// hitMS is the typical CPU cost of a hit: each key's median, averaged
// with the key's weight. Medians keep a hit that met a garbage
// collection from moving the number; fixed weights keep the seed's draw
// from moving it.
func (s *samples) hitMS() (float64, bool) {
	var sum, weight float64
	for label, ws := range s.hits {
		m, _ := median(ws)
		sum += s.hitWeight[label] * m
		weight += s.hitWeight[label]
	}
	if weight == 0 {
		return 0, false
	}
	return sum / weight, true
}

// endToEnd turns a measured run into the benchmark's end-to-end metrics.
// Times exclude the share of their window the hypervisor stole from this
// machine (see cpuTimes.stolen).
func (s *samples) endToEnd() (map[string]metric, error) {
	setupMS, ok := median(s.setup)
	if !ok {
		return nil, fmt.Errorf("no set-up was timed")
	}
	hitMS, ok := s.hitMS()
	if !ok || s.maccess.wall == 0 {
		return nil, fmt.Errorf("run too short: %d hit keys, %v of pipeline runs", len(s.hits), s.maccess.wall)
	}
	own := 1 - s.cpu.stolen()
	return map[string]metric{
		"setup_s":         {setupMS * (1 - s.setupCPU.stolen()) / 1e3, "s"},
		"maccess_per_s":   {s.maccess.perSecond() / own / 1e6, "Macc/s"},
		"hit_cpu_ms":      {hitMS, "ms"},
		"throughput_rps":  {s.ops.perSecond() / own, "1/s"},
		"alloc_mb_per_op": {float64(s.allocBytes) / 1e6 / s.ops.work, "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}, nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timeSetup runs set-up reps times into s and returns the last daemon,
// still serving; every earlier one is stopped.
func (s *samples) timeSetup(ctx context.Context, reps int, setup func() (*daemon, error)) (*daemon, error) {
	cpu0 := readCPUTimes()
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.stop(ctx); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		d, err = setup()
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, time.Since(start))
	}
	s.setupCPU = readCPUTimes().since(cpu0)
	return d, nil
}

// startBatch starts a daemon for a batch workload and waits until it
// reports ready.
func (b *bench) startBatch(ctx context.Context) (*daemon, error) {
	d, err := startDaemon(batchPoll)
	if err != nil {
		return nil, err
	}
	b.attempted++
	if h, err := d.cl.Health(ctx); err != nil || h.Status != "ok" {
		_ = d.stop(ctx)
		return nil, fmt.Errorf("daemon not ready: %v", err)
	}
	return d, nil
}

// batchSetup is the one-time work before a batch workload's first
// request: start the daemon, and finish the process's lazy set-up (code
// paged in, heap grown) with one small cold analysis that runs every
// pipeline stage.
func (b *bench) batchSetup(ctx context.Context) (*daemon, error) {
	d, err := b.startBatch(ctx)
	if err != nil {
		return nil, err
	}
	c, err := b.analyze(ctx, d, batchWarmup.req, nil, 0)
	if err == nil {
		_, err = b.or.checkJob(batchWarmup.label, c.job, false)
	}
	if err != nil {
		_ = d.stop(ctx)
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

// rotations runs whole rotations of a batch workload, each on a daemon
// with an empty cache, starting another while the time budget lasts, so
// every run analyzes each request equally often. fn gets the daemon and
// the rotation's seeded order.
func (b *bench) rotations(ctx context.Context, n int, fn func(d *daemon, order []int) error) error {
	next := rotationOrders(b.seed, n)
	start := time.Now()
	for time.Since(start) < b.seconds {
		d, err := b.startBatch(ctx)
		if err != nil {
			return err
		}
		err = fn(d, next())
		if serr := d.stop(ctx); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// rotationOrders returns the seeded sequence of rotation orders over n
// requests.
func rotationOrders(seed int64, n int) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(n) }
}

// warmResends is how many times a batch rotation sends each request
// again after the cold ones; the hits' mean needs more samples than a
// rotation has cold requests.
const warmResends = 5

// runBatch measures a batch workload: each rotation sends every request
// cold (the pipeline runs), then warmResends times warm (served from the
// cache, byte-identical to the cold response).
func (b *bench) runBatch(ctx context.Context, reqs []request) (map[string]metric, error) {
	weights := map[string]float64{}
	for _, r := range reqs {
		weights[r.label] = 1
	}
	s := newSamples(weights)
	d, err := s.timeSetup(ctx, batchSetupReps, func() (*daemon, error) { return b.batchSetup(ctx) })
	if err != nil {
		return nil, err
	}
	if err := d.stop(ctx); err != nil {
		return nil, err
	}
	alloc0, cpu0 := totalAlloc(), readCPUTimes()
	err = b.rotations(ctx, len(reqs), func(d *daemon, order []int) error {
		cold := make([]*client.Job, len(reqs))
		for _, i := range order {
			r := reqs[i]
			c, err := b.analyze(ctx, d, r.req, nil, 0)
			if err != nil {
				b.fail(fmt.Errorf("%s: %w", r.label, err))
				continue
			}
			pin, err := b.or.checkJob(r.label, c.job, false)
			if err != nil {
				b.fail(err)
				continue
			}
			cold[i] = c.job
			s.record(opMiss, r.label, c.wall, c.cpu)
			s.maccess.add(float64(pin.Accesses), c.wall)
		}
		// The hits start from a collected heap: the cold analyses'
		// garbage is theirs, not the hits'.
		runtime.GC()
		for k := 0; k < warmResends; k++ {
			for _, i := range order {
				r := reqs[i]
				if cold[i] == nil {
					continue
				}
				warm, err := b.analyze(ctx, d, r.req, nil, 0)
				if err == nil {
					_, err = b.or.checkJob(r.label, warm.job, true)
				}
				if err == nil {
					err = sameBytes(r.label, cold[i], warm.job)
				}
				if err != nil {
					b.fail(err)
					continue
				}
				s.record(opHit, r.label, warm.wall, warm.cpu)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.allocBytes, s.cpu = totalAlloc()-alloc0, readCPUTimes().since(cpu0)
	return s.endToEnd()
}

// warmCache is a started service-warm daemon: its cache holds every hit
// key and both models, and cold holds each hit key's cold response.
type warmCache struct {
	d     *daemon
	hits  []request
	cold  []*client.Job
	model []string // cache key of each fitted model
}

// serviceSetup is service-warm's one-time work: start the daemon, read
// the example programs, fill the cache with every hit key, fit both
// models and serve one prediction from each so its model is decoded.
func (b *bench) serviceSetup(ctx context.Context) (*warmCache, error) {
	d, err := startDaemon(servicePoll)
	if err != nil {
		return nil, err
	}
	w := &warmCache{d: d}
	err = func() error {
		loops, err := readLoops()
		if err != nil {
			return err
		}
		w.hits = hitKeys(loops)
		for _, r := range w.hits {
			c, err := b.analyze(ctx, d, r.req, nil, 0)
			if err != nil {
				return fmt.Errorf("fill %s: %w", r.label, err)
			}
			if _, err := b.or.checkJob(r.label, c.job, false); err != nil {
				return fmt.Errorf("fill: %w", err)
			}
			w.cold = append(w.cold, c.job)
		}
		for i, m := range models {
			b.attempted++
			job, err := d.cl.Fit(ctx, m.fit)
			if err == nil && !job.Status.Terminal() {
				job, err = d.cl.Wait(ctx, job.ID)
			}
			if err != nil {
				return fmt.Errorf("fit %s: %w", m.fit.Workload, err)
			}
			if job.Status != client.JobDone {
				return fmt.Errorf("fit %s: %s: %s", m.fit.Workload, job.Status, job.Error)
			}
			w.model = append(w.model, job.Key)
			p := m.prediction(i, 0)
			resp, _, err := b.predict(ctx, d, p.req)
			if err != nil {
				return fmt.Errorf("predict %s: %w", p.label, err)
			}
			if err := b.or.checkPredict(p.label, resp); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		_ = d.stop(ctx)
		return nil, err
	}
	return w, nil
}

// serve sends one op of the mix and checks its response. It returns the
// client-observed time and, for an analyze request, the call.
func (b *bench) serve(ctx context.Context, w *warmCache, o op, rec *recorder, reqID int) (time.Duration, call, error) {
	switch o.kind {
	case opHit:
		r := w.hits[o.hit]
		c, err := b.analyze(ctx, w.d, r.req, rec, reqID)
		if err == nil {
			_, err = b.or.checkJob(r.label, c.job, true)
		}
		if err == nil {
			err = sameBytes(r.label, w.cold[o.hit], c.job)
		}
		return c.wall, c, err
	case opMiss:
		c, err := b.analyze(ctx, w.d, o.miss.req, rec, reqID)
		if err == nil {
			_, err = b.or.checkJob(o.miss.label, c.job, false)
		}
		return c.wall, c, err
	}
	root := rec.begin("request", reqID, -1)
	s := rec.begin("client.predict", reqID, root)
	resp, wall, err := b.predict(ctx, w.d, o.pred.req)
	rec.end(s)
	rec.end(root)
	if err == nil {
		err = b.or.checkPredict(o.pred.label, resp)
	}
	return wall, call{}, err
}

// runService measures the service-warm mix against a warm daemon.
func (b *bench) runService(ctx context.Context) (map[string]metric, error) {
	var w *warmCache
	s := newSamples(nil)
	d, err := s.timeSetup(ctx, serviceSetupReps, func() (*daemon, error) {
		var err error
		w, err = b.serviceSetup(ctx)
		if err != nil {
			return nil, err
		}
		return w.d, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop(ctx)

	s.hitWeight = zipfWeights(w.hits)
	m := newMix(b.seed, len(w.hits))
	alloc0, cpu0 := totalAlloc(), readCPUTimes()
	start := time.Now()
	for time.Since(start) < b.seconds {
		o, ok := m.next()
		if !ok {
			break
		}
		wall, c, err := b.serve(ctx, w, o, nil, 0)
		if err != nil {
			b.fail(err)
			continue
		}
		label := o.miss.label
		if o.kind == opHit {
			label = w.hits[o.hit].label
		}
		s.record(o.kind, label, wall, c.cpu)
		if o.kind == opMiss {
			s.maccess.add(float64(b.or.Analyze[o.miss.label].Accesses), wall)
		}
	}
	s.allocBytes, s.cpu = totalAlloc()-alloc0, readCPUTimes().since(cpu0)
	return s.endToEnd()
}
