package main

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"reusetool/internal/predict"
	"reusetool/internal/server"
)

// spanDir is where a traced run writes its spans, relative to the
// checkout root; the build directory is already ignored by git.
const spanDir = ".bench_build/spans"

// ledger accumulates a traced run's per-layer measurements. Span-timed
// layers are read back from the recorder; the rest are counted here.
type ledger struct {
	rec *recorder

	// Pipeline replays of dynamic requests.
	dynamic     int
	interpTime  time.Duration // interpreter alone, into trace.Discard
	accesses    uint64
	engineTime  time.Duration // engines attached minus interpreter alone
	engineAlloc int64
	gcCycles    uint64
	clocks      uint64
	distinct    uint64
	patterns    uint64
	sampled     int
	admitted    uint64
	offered     uint64
	admittedAcc uint64

	artifactBytes, saves int

	// Hits: client-observed latency and the replayed key, verify and
	// encode time, and the job document size.
	hits          int
	hitLatencies  []time.Duration
	hitLatency    time.Duration
	hitServerSide time.Duration
	responseBytes int

	// Async jobs: queue wait and polls.
	async     int
	queueWait time.Duration
	polls     int

	// Replays timed with the recorder on and again with it off.
	traced, plain time.Duration

	// Analyze requests drawn, by kind, and the daemon's own count.
	drawnHits, drawnMisses   int
	daemonHits, daemonMisses float64
}

func (l *ledger) asyncJob(c call) error {
	sub, err1 := time.Parse(time.RFC3339Nano, c.job.Submitted)
	st, err2 := time.Parse(time.RFC3339Nano, c.job.Started)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("job %s: unparseable submitted/started stamps", c.job.ID)
	}
	l.async++
	l.queueWait += st.Sub(sub)
	l.polls += c.polls
	return nil
}

func (l *ledger) pipeline(p *pipelineOut) {
	l.artifactBytes += len(p.artifact)
	l.saves++
}

// hit records a served hit and its replay.
func (l *ledger) hit(latency, serverSide time.Duration, size int) {
	l.hits++
	l.hitLatencies = append(l.hitLatencies, latency)
	l.hitLatency += latency
	l.hitServerSide += serverSide
	l.responseBytes += size
}

// scrapeCache reads the daemon's cache hit and miss counters.
func scrapeCache(ctx context.Context, d *daemon) (hits, misses float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.cl.BaseURL()+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "reusetoold_cache_hits_total":
			hits, err = strconv.ParseFloat(val, 64)
		case "reusetoold_cache_misses_total":
			misses, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return hits, misses, sc.Err()
}

// fetchEntry reads a stored cache entry through the peer protocol.
func fetchEntry(ctx context.Context, d *daemon, key string) (*server.CacheEntry, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.cl.BaseURL()+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cache entry %s: status %d", key, resp.StatusCode)
	}
	var e server.CacheEntry
	if err := gob.NewDecoder(resp.Body).Decode(&e); err != nil {
		return nil, fmt.Errorf("cache entry %s: %w", key, err)
	}
	return &e, nil
}

// runTraced is the traced run: the workload's requests go through the
// daemon as in the measured run, and each is then replayed in-process,
// layer by layer, under spans.
func (b *bench) runTraced(ctx context.Context, workload string) (map[string]metric, error) {
	l := &ledger{rec: newRecorder()}
	var err error
	switch workload {
	case "exact-cold":
		err = b.traceBatch(ctx, l, exactCold)
	case "sampled-large":
		err = b.traceBatch(ctx, l, sampledLarge)
	case "service-warm":
		err = b.traceService(ctx, l)
	}
	if err != nil {
		return nil, err
	}
	if l.daemonHits != float64(l.drawnHits) || l.daemonMisses != float64(l.drawnMisses) {
		b.fail(fmt.Errorf("daemon counted %v hits and %v misses; the mix drew %d and %d",
			l.daemonHits, l.daemonMisses, l.drawnHits, l.drawnMisses))
	}
	path, err := l.rec.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, b.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return l.metrics(), nil
}

// traceBatch sends whole passes over a batch workload's requests, each
// cold then warm, and replays every one.
func (b *bench) traceBatch(ctx context.Context, l *ledger, reqs []request) error {
	d, err := b.batchSetup(ctx)
	if err != nil {
		return err
	}
	if err := d.stop(ctx); err != nil {
		return err
	}
	reqID := 0
	return b.rotations(ctx, len(reqs), func(d *daemon, order []int) error {
		h0, m0, err := scrapeCache(ctx, d)
		if err != nil {
			return err
		}
		for _, i := range order {
			r := reqs[i]
			reqID += 2
			cold, err := b.analyze(ctx, d, r.req, l.rec, reqID-1)
			var pin pinned
			if err == nil {
				pin, err = b.or.checkJob(r.label, cold.job, false)
			}
			if err == nil {
				err = l.asyncJob(cold)
			}
			if err != nil {
				b.fail(fmt.Errorf("%s: %w", r.label, err))
				continue
			}
			l.drawnMisses++
			warm, err := b.analyze(ctx, d, r.req, l.rec, reqID)
			if err == nil {
				err = sameBytes(r.label, cold.job, warm.job)
			}
			if err != nil {
				b.fail(fmt.Errorf("%s: %w", r.label, err))
				continue
			}
			l.drawnHits++
			if err := b.replayBatch(ctx, l, reqID, r, cold, warm, pin); err != nil {
				b.fail(fmt.Errorf("%s: replay: %w", r.label, err))
			}
		}
		h1, m1, err := scrapeCache(ctx, d)
		l.daemonHits += h1 - h0
		l.daemonMisses += m1 - m0
		return err
	})
}

// replayBatch replays one cold request's pipeline and its warm hit,
// traced and then untraced, and takes the reference measurements.
func (b *bench) replayBatch(ctx context.Context, l *ledger, reqID int, r request, cold, warm call, pin pinned) error {
	b.attempted++
	p, err := replayPipeline(ctx, l.rec, reqID-1, r.req)
	if err != nil {
		return err
	}
	if err := p.matches(r.label, cold.job, pin); err != nil {
		return err
	}
	hitWall, size, err := hitReplay(l.rec, reqID, r.req, p.artifact, p.fp, warm.job)
	if err != nil {
		return err
	}
	l.traced += p.wall + hitWall
	l.hit(warm.wall, hitWall, size)
	l.pipeline(p)

	ref, err := reference(ctx, l.rec, reqID-1, r.req, p)
	if err != nil {
		return err
	}
	l.dynamic++
	l.interpTime += ref.interp
	l.accesses += ref.accesses
	l.engineTime += p.collect - ref.interp
	l.engineAlloc += int64(p.collectMem) - int64(ref.interpAlloc)
	l.gcCycles += uint64(p.collectGCs)
	l.clocks += p.clocks
	l.distinct += p.distinct
	l.patterns += p.patterns
	if r.req.SampleRate > 1 {
		l.sampled++
		l.admitted += p.admitted
		l.offered += ref.offered
		l.admittedAcc += p.clocks
	}

	plain, err := replayPipeline(ctx, nil, 0, r.req)
	if err != nil {
		return err
	}
	plainHit, _, err := hitReplay(nil, 0, r.req, p.artifact, p.fp, warm.job)
	l.plain += plain.wall + plainHit
	return err
}

// traceService runs the service-warm mix for the time budget, replaying
// each request's server-side stages.
func (b *bench) traceService(ctx context.Context, l *ledger) error {
	w, err := b.serviceSetup(ctx)
	if err != nil {
		return err
	}
	defer w.d.stop(ctx)
	entries := make([]*server.CacheEntry, len(w.hits))
	for i, job := range w.cold {
		if entries[i], err = fetchEntry(ctx, w.d, job.Key); err != nil {
			return err
		}
	}
	fitted := make([]*predict.Model, len(w.model))
	for i, key := range w.model {
		e, err := fetchEntry(ctx, w.d, key)
		if err != nil {
			return err
		}
		if fitted[i], err = predict.Decode(e.Model); err != nil {
			return err
		}
	}
	h0, m0, err := scrapeCache(ctx, w.d)
	if err != nil {
		return err
	}
	m := newMix(b.seed, len(w.hits))
	start := time.Now()
	for reqID := 1; time.Since(start) < b.seconds; reqID++ {
		o, ok := m.next()
		if !ok {
			break
		}
		wall, c, err := b.serve(ctx, w, o, l.rec, reqID)
		if err != nil {
			b.fail(err)
			continue
		}
		b.attempted++
		if err := b.replayOp(ctx, l, reqID, w, entries, fitted, o, wall, c); err != nil {
			b.fail(fmt.Errorf("replay: %w", err))
		}
	}
	h1, m1, err := scrapeCache(ctx, w.d)
	l.daemonHits, l.daemonMisses = h1-h0, m1-m0
	return err
}

// replayOp replays one service-warm op, traced and then untraced.
func (b *bench) replayOp(ctx context.Context, l *ledger, reqID int, w *warmCache, entries []*server.CacheEntry,
	fitted []*predict.Model, o op, wall time.Duration, c call) error {
	switch o.kind {
	case opHit:
		l.drawnHits++
		r, e := w.hits[o.hit], entries[o.hit]
		traced, size, err := hitReplay(l.rec, reqID, r.req, e.Artifact, e.Fingerprint, c.job)
		if err != nil {
			return fmt.Errorf("%s: %w", r.label, err)
		}
		plain, _, err := hitReplay(nil, 0, r.req, e.Artifact, e.Fingerprint, c.job)
		l.hit(wall, traced, size)
		l.traced += traced
		l.plain += plain
		return err
	case opMiss:
		l.drawnMisses++
		if err := l.asyncJob(c); err != nil {
			return err
		}
		p, err := replayPipeline(ctx, l.rec, reqID, o.miss.req)
		if err == nil {
			err = p.matches(o.miss.label, c.job, b.or.Analyze[o.miss.label])
		}
		if err == nil {
			_, err = reference(ctx, l.rec, reqID, o.miss.req, p)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", o.miss.label, err)
		}
		l.pipeline(p)
		plain, err := replayPipeline(ctx, nil, 0, o.miss.req)
		if err != nil {
			return err
		}
		l.traced += p.wall
		l.plain += plain.wall
		return nil
	}
	mdl := fitted[o.pred.model]
	traced, l2, err := predictReplay(l.rec, reqID, mdl, o.pred.req.Params)
	if err == nil && l2 != b.or.PredictL2[o.pred.label] {
		err = fmt.Errorf("in-process L2 misses %v, pinned %v", l2, b.or.PredictL2[o.pred.label])
	}
	if err != nil {
		return fmt.Errorf("predict %s: %w", o.pred.label, err)
	}
	plain, _, err := predictReplay(nil, 0, mdl, o.pred.req.Params)
	l.traced += traced
	l.plain += plain
	return err
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics turns the ledger into the per-layer metrics. A layer that
// does not run on the workload reports 0.
func (l *ledger) metrics() map[string]metric {
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	hitP99, _ := percentile(l.hitLatencies, 0.99) // 0 below 1000 hits
	dyn := float64(l.dynamic)
	engine := float64(l.engineTime.Nanoseconds())
	out := map[string]metric{
		"interp.ns_per_access":          {ratio(float64(l.interpTime.Nanoseconds()), float64(l.accesses)), "ns"},
		"interp.accesses":               {ratio(float64(l.accesses), dyn), "count"},
		"reusedist.ns_per_block_access": {ratio(engine, float64(l.clocks)), "ns"},
		"reusedist.block_accesses":      {ratio(float64(l.clocks), dyn), "count"},
		"reusedist.distinct_blocks":     {ratio(float64(l.distinct), dyn), "count"},
		"reusedist.patterns":            {ratio(float64(l.patterns), dyn), "count"},
		"reusedist.alloc_mb":            {ratio(float64(l.engineAlloc)/1e6, dyn), "MB"},
		"runtime.gc_cycles_per_op":      {ratio(float64(l.gcCycles), dyn), "count"},
		"sampling.ns_per_access":        {0, "ns"},
		"sampling.admitted_blocks":      {ratio(float64(l.admitted), float64(l.sampled)), "count"},
		"sampling.admit_ratio":          {ratio(float64(l.admittedAcc), float64(l.offered)), "ratio"},
		"staticanalysis.analyze_ms":     {l.rec.meanMS("staticanalysis.analyze"), "ms"},
		"metrics.build_ms":              {l.rec.meanMS("metrics.build"), "ms"},
		"depend.analyze_ms":             {l.rec.meanMS("depend.analyze"), "ms"},
		"staticreuse.estimate_ms":       {l.rec.meanMS("staticreuse.estimate"), "ms"},
		"reusecheck.check_ms":           {l.rec.meanMS("reusecheck.check"), "ms"},
		"viewer.summary_ms":             {l.rec.meanMS("viewer.summary"), "ms"},
		"core.encode_json_ms":           {l.rec.meanMS("core.encode_json"), "ms"},
		"persist.save_ms":               {l.rec.meanMS("persist.save"), "ms"},
		"persist.artifact_kb":           {ratio(float64(l.artifactBytes)/1e3, float64(l.saves)), "KB"},
		"persist.verify_ms":             {l.rec.meanMS("persist.verify"), "ms"},
		"server.cache_key_ms":           {l.rec.meanMS("server.cache_key"), "ms"},
		"server.hit_p99_ms":             {hitP99, "ms"},
		"server.http_ms":                {ratio(ms(l.hitLatency-l.hitServerSide), float64(l.hits)), "ms"},
		"server.response_kb":            {ratio(float64(l.responseBytes)/1e3, float64(l.hits)), "KB"},
		"server.hit_ratio":              {ratio(l.daemonHits, l.daemonHits+l.daemonMisses), "ratio"},
		"server.queue_wait_ms":          {ratio(ms(l.queueWait), float64(l.async)), "ms"},
		"client.polls_per_job":          {ratio(float64(l.polls), float64(l.async)), "count"},
		"predict.predict_us":            {l.rec.meanMS("predict.predict") * 1e3, "us"},
		"unattributed.share":            {l.rec.unattributed("request", "replay"), "ratio"},
		"tracing.overhead":              {ratio(float64(l.traced), float64(l.plain)), "ratio"},
	}
	if l.sampled > 0 {
		out["sampling.ns_per_access"] = metric{ratio(engine, float64(l.accesses)), "ns"}
	}
	return out
}
