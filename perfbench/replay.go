package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/depend"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/metrics"
	"reusetool/internal/persist"
	"reusetool/internal/predict"
	"reusetool/internal/reusedist"
	"reusetool/internal/sampling"
	"reusetool/internal/server"
	"reusetool/internal/staticanalysis"
	"reusetool/internal/staticreuse"
	"reusetool/internal/trace"
	"reusetool/internal/viewer"
	"reusetool/internal/workloads"
	"reusetool/pkg/client"
)

// The report options every benchmark request leaves at the daemon's
// defaults.
const (
	reportLevel    = "L2"
	reportMinShare = 0.02
)

// replay re-runs one request's stages in-process, each in a child span
// of one root, stopping at the first error.
type replay struct {
	rec  *recorder
	req  int
	root int
	err  error
}

func newReplay(rec *recorder, reqID int) *replay {
	return &replay{rec: rec, req: reqID, root: rec.begin("replay", reqID, -1)}
}

func (r *replay) step(name string, f func() error) {
	if r.err != nil {
		return
	}
	i := r.rec.begin(name, r.req, r.root)
	r.err = f()
	r.rec.end(i)
}

// done closes the root span and returns the replay's wall time.
func (r *replay) done(start time.Time) (time.Duration, error) {
	r.rec.end(r.root)
	return time.Since(start), r.err
}

// pipelineOut is what a pipeline replay produced, for comparison with
// the daemon's response and for the reference measurements.
type pipelineOut struct {
	report, doc, artifact []byte
	fp                    uint64
	res                   *core.Result
	init                  func(*interp.Machine) error
	wall                  time.Duration

	// Dynamic replays only: the engine run's wall time, allocation and
	// GC cycles, and the engines' counts.
	collect     time.Duration
	collectMem  uint64
	collectGCs  uint32
	clocks      uint64
	distinct    uint64
	patterns    uint64
	admitted    uint64
	granularity []uint // block bits of each engine
}

func buildProgram(req client.AnalyzeRequest) (*ir.Program, func(*interp.Machine) error, error) {
	if req.Workload != "" {
		return workloads.Build(req.Workload)
	}
	return lang.Parse(req.Program)
}

// replayPipeline runs a cache-miss request's stages in the order the
// daemon's resolver and pipeline run them: key, program build, then the
// dynamic (interpreter with the engines attached, engine finish, static
// analysis, metrics) or static (estimate, metrics) stages, then
// dependence analysis, report, JSON document, persist artifact and
// fingerprint. With a nil recorder it records nothing.
func replayPipeline(ctx context.Context, rec *recorder, reqID int, req client.AnalyzeRequest) (*pipelineOut, error) {
	start := time.Now()
	r := newReplay(rec, reqID)
	out := &pipelineOut{}
	var prog *ir.Program
	var info *ir.Info
	hier := cache.ScaledItanium2()
	res := &core.Result{Hier: hier, Params: req.Params}
	var trips map[trace.ScopeID]interp.TripStat

	r.step("server.cache_key", func() error { _, err := server.CacheKeyFor(req); return err })
	r.step("program.build", func() (err error) { prog, out.init, err = buildProgram(req); return err })
	r.step("ir.finalize", func() (err error) { info, err = prog.Finalize(); return err })
	res.Info = info
	if req.Mode == "static" {
		var est *staticreuse.Result
		r.step("staticreuse.estimate", func() (err error) {
			est, err = staticreuse.Estimate(info, hier, staticreuse.Options{Params: req.Params, HistRes: req.HistRes})
			return err
		})
		r.step("metrics.build", func() (err error) {
			res.Report, err = metrics.Build(info, est.Collector, est.Static, hier, metrics.SetAssoc)
			res.Static, res.Collector = est.Static, est.Collector
			return err
		})
	} else {
		var col *reusedist.Collector
		r.step("reusedist.new", func() error {
			cfg := reusedist.Config{
				HistRes:  req.HistRes,
				Sampling: sampling.Config{Rate: req.SampleRate, MaxBlocks: req.SampleMaxBlocks, Seed: req.SampleSeed},
			}
			if m, err := interp.Layout(info, req.Params); err == nil {
				cfg.Hints.FootprintBytes = m.DataFootprint()
			}
			cfg.Hints.Refs = len(info.Refs)
			cfg.Hints.Scopes = info.Scopes.Len()
			col = reusedist.NewCollectorWith(hier.Granularities(), cfg)
			return nil
		})
		if r.err == nil {
			var run *interp.Result
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			r.step("interp+reusedist", func() (err error) {
				run, err = interp.RunContext(ctx, info, req.Params, col, initOpts(out.init)...)
				return err
			})
			out.collect = time.Since(t0)
			runtime.ReadMemStats(&ms1)
			out.collectMem, out.collectGCs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
			r.step("reusedist.finish", func() error { col.Finish(); return nil })
			r.step("staticanalysis.analyze", func() error {
				res.Static = staticanalysis.Analyze(info, run.Machine, staticanalysis.TripsFromRun(run, 1))
				return nil
			})
			r.step("metrics.build", func() (err error) {
				res.Report, err = metrics.Build(info, col, res.Static, hier, metrics.SetAssoc)
				return err
			})
			if run != nil {
				res.Run, trips = run, run.Trips
			}
			res.Collector = col
		}
	}
	r.step("depend.analyze", func() error { res.Deps = depend.Analyze(info, req.Params); return nil })
	r.step("core.write_summary", func() error {
		var b bytes.Buffer
		err := res.WriteSummary(&b, reportLevel, reportMinShare)
		out.report = b.Bytes()
		return err
	})
	r.step("core.encode_json", func() (err error) { out.doc, err = res.EncodeJSON(); return err })
	r.step("persist.save", func() error {
		var b bytes.Buffer
		err := persist.Save(&b, persist.Snapshot(res.Collector, prog.Name, trips))
		out.artifact = b.Bytes()
		return err
	})
	r.step("reusedist.fingerprint", func() error { out.fp = res.Collector.Fingerprint(); return nil })
	wall, err := r.done(start)
	if err != nil {
		return nil, err
	}
	out.wall, out.res = wall, res
	if res.Run != nil {
		for _, e := range res.Collector.Engines {
			// A finished sampled engine's clock is scaled up by its rate;
			// divided back, it counts the block accesses it processed.
			info := e.Sample()
			out.clocks += e.Clock() / max(info.Rate, 1)
			out.distinct += uint64(e.DistinctBlocks())
			out.admitted += uint64(info.AdmittedBlocks)
			out.granularity = append(out.granularity, e.BlockBits())
			for _, rd := range e.Refs() {
				if rd != nil {
					out.patterns += uint64(len(rd.Patterns))
				}
			}
		}
	}
	return out, nil
}

func initOpts(init func(*interp.Machine) error) []interp.Option {
	if init == nil {
		return nil
	}
	return []interp.Option{interp.WithInit(init)}
}

// matches checks a replay against the daemon's response: the same
// engine fingerprint, report and JSON document, byte for byte.
func (p *pipelineOut) matches(label string, job *client.Job, pin pinned) error {
	if fp := fmt.Sprintf("%016x", p.fp); fp != pin.Fingerprint {
		return fmt.Errorf("%s: in-process fingerprint %s, daemon %s", label, fp, pin.Fingerprint)
	}
	if string(p.report) != job.Report || !bytes.Equal(p.doc, job.Result) {
		return fmt.Errorf("%s: in-process report or document differs from the daemon's", label)
	}
	return nil
}

// hitReplay runs what the daemon does to serve a cache hit: compute the
// key, verify the stored artifact by a persist round trip, and encode
// the job document. It returns the three stages' time and the
// document's size.
func hitReplay(rec *recorder, reqID int, req client.AnalyzeRequest, artifact []byte, fp uint64, job *client.Job) (time.Duration, int, error) {
	start := time.Now()
	r := newReplay(rec, reqID)
	r.step("server.cache_key", func() error {
		key, err := server.CacheKeyFor(req)
		if err == nil && key != job.Key {
			err = fmt.Errorf("key %s, daemon %s", key, job.Key)
		}
		return err
	})
	r.step("persist.verify", func() error {
		d, err := persist.Load(bytes.NewReader(artifact))
		if err != nil {
			return err
		}
		if got := d.Collector().Fingerprint(); got != fp {
			return fmt.Errorf("artifact fingerprint %016x, stored %016x", got, fp)
		}
		return nil
	})
	size := 0
	r.step("server.encode_job", func() error {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		err := enc.Encode(job)
		size = b.Len()
		return err
	})
	wall, err := r.done(start)
	return wall, size, err
}

// predictReplay evaluates a fitted model the way /v1/predict does and
// returns the predicted L2 misses.
func predictReplay(rec *recorder, reqID int, m *predict.Model, params map[string]int64) (time.Duration, float64, error) {
	start := time.Now()
	r := newReplay(rec, reqID)
	l2 := 0.0
	r.step("predict.predict", func() error {
		pred, err := m.Predict(params)
		if err != nil {
			return err
		}
		for _, lm := range pred.LevelMisses(cache.ScaledItanium2()) {
			if lm.Level == reportLevel {
				l2 = lm.Total
			}
		}
		return nil
	})
	wall, err := r.done(start)
	return wall, l2, err
}

// refs are the reference measurements of one pipeline replay.
type refs struct {
	interp      time.Duration // the interpreter alone, into trace.Discard
	interpAlloc uint64
	accesses    uint64
	offered     uint64 // block accesses offered to the samplers
}

// reference times, outside any request replay, the calls a replay
// cannot split apart: the interpreter alone (the run minus it is the
// engines' time), the report's two halves, and for a sampled request
// the block accesses offered to the samplers.
func reference(ctx context.Context, rec *recorder, reqID int, req client.AnalyzeRequest, p *pipelineOut) (refs, error) {
	root := rec.begin("reference", reqID, -1)
	defer rec.end(root)
	res := p.res
	var out refs
	if res.Run != nil {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		s := rec.begin("interp.discard", reqID, root)
		run, err := interp.RunContext(ctx, res.Info, req.Params, trace.Discard{}, initOpts(p.init)...)
		out.interp = rec.end(s)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return refs{}, err
		}
		out.accesses, out.interpAlloc = run.Accesses, ms1.TotalAlloc-ms0.TotalAlloc
		if req.SampleRate > 1 {
			bc := &blockCounter{bits: p.granularity}
			if _, err := interp.RunContext(ctx, res.Info, req.Params, bc, initOpts(p.init)...); err != nil {
				return refs{}, err
			}
			out.offered = bc.n
		}
	}
	var err error
	rec.timed("viewer.summary", reqID, root, func() {
		err = viewer.SummaryWith(io.Discard, res.Report, res.Deps, reportLevel, reportMinShare)
	})
	rec.timed("reusecheck.check", reqID, root, func() { res.Opportunities(reportLevel, res.Params) })
	return out, err
}

// blockCounter counts the block accesses a reference stream offers the
// engines, one granularity each: the denominator of the admit ratio.
type blockCounter struct {
	bits []uint
	n    uint64
}

func (c *blockCounter) EnterScope(trace.ScopeID) {}
func (c *blockCounter) ExitScope(trace.ScopeID)  {}
func (c *blockCounter) Access(_ trace.RefID, addr uint64, size uint32, _ bool) {
	for _, bb := range c.bits {
		first, last := addr>>bb, (addr+uint64(size)-1)>>bb
		if size == 0 {
			last = first
		}
		c.n += last - first + 1
	}
}
