package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"reusetool/internal/interp"
	"reusetool/internal/trace"
	"reusetool/pkg/client"
)

// writeOracle runs every distinct request the workloads can send
// through a daemon once and writes the outputs as the oracle.
func writeOracle(ctx context.Context, path string) error {
	d, err := startDaemon(servicePoll)
	if err != nil {
		return err
	}
	defer d.stop(ctx)
	loops, err := readLoops()
	if err != nil {
		return err
	}
	reqs := append(append(append([]request{}, exactCold...), sampledLarge...), hitKeys(loops)...)
	for _, p := range missPools {
		for i := 0; i < missesPerPool; i++ {
			reqs = append(reqs, p.request(i))
		}
	}
	b := &bench{}
	o := oracle{Analyze: map[string]pinned{}, PredictL2: map[string]float64{}}
	for _, r := range reqs {
		if _, dup := o.Analyze[r.label]; dup {
			continue
		}
		c, err := b.analyze(ctx, d, r.req, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", r.label, err)
		}
		if c.job.Status != client.JobDone {
			return fmt.Errorf("%s: %s: %s", r.label, c.job.Status, c.job.Error)
		}
		p, err := observe(c.job)
		if err != nil {
			return fmt.Errorf("%s: %w", r.label, err)
		}
		if r.req.Mode == "static" {
			if p.Accesses, err = countAccesses(ctx, r.req); err != nil {
				return fmt.Errorf("%s: %w", r.label, err)
			}
		}
		o.Analyze[r.label] = p
	}
	for i, m := range models {
		job, err := d.cl.Fit(ctx, m.fit)
		if err == nil && !job.Status.Terminal() {
			job, err = d.cl.Wait(ctx, job.ID)
		}
		if err != nil {
			return fmt.Errorf("fit %s: %w", m.fit.Workload, err)
		}
		for t := range m.targets {
			p := m.prediction(i, t)
			resp, _, err := b.predict(ctx, d, p.req)
			if err != nil {
				return fmt.Errorf("predict %s: %w", p.label, err)
			}
			if o.PredictL2[p.label], err = l2Misses(resp); err != nil {
				return fmt.Errorf("predict %s: %w", p.label, err)
			}
		}
	}
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// countAccesses runs a static-mode request's program in the interpreter
// to count the accesses its estimate covers.
func countAccesses(ctx context.Context, req client.AnalyzeRequest) (uint64, error) {
	prog, init, err := buildProgram(req)
	if err != nil {
		return 0, err
	}
	info, err := prog.Finalize()
	if err != nil {
		return 0, err
	}
	run, err := interp.RunContext(ctx, info, req.Params, trace.Discard{}, initOpts(init)...)
	if err != nil {
		return 0, err
	}
	return run.Accesses, nil
}
