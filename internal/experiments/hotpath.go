package experiments

import (
	"fmt"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/reusedist"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

// HotpathWorkloads names the workloads the hot-path set replays, in
// reporting order: BenchmarkHotpath times them, and the pinned-fingerprint
// tests check the engines' output on them.
func HotpathWorkloads() []string {
	return []string{"fig1a", "fig2", "stream", "stencil", "transpose", "sweep3d", "gtc"}
}

// hotpathProgram builds the named workload at the set's fixed sizes
// (large enough for stable ns/access, small enough to replay in
// milliseconds).
func hotpathProgram(name string) (*ir.Program, func(*interp.Machine) error, error) {
	switch name {
	case "fig1a":
		return workloads.Fig1(false), nil, nil
	case "fig2":
		return workloads.Fig2(), nil, nil
	case "stream":
		return workloads.Stream(1<<16, 4), nil, nil
	case "stencil":
		return workloads.Stencil(192, 4), nil, nil
	case "transpose":
		return workloads.Transpose(256), nil, nil
	case "sweep3d":
		cfg := workloads.DefaultSweep3D()
		cfg.N = 12
		p, err := workloads.Sweep3D(cfg)
		return p, nil, err
	case "gtc":
		cfg := workloads.DefaultGTC()
		cfg.Micell = 5
		return workloads.GTC(cfg)
	}
	return nil, nil, fmt.Errorf("hotpath: unknown workload %q", name)
}

// HotpathTrace executes the named hotpath workload once and returns its
// recorded instrumentation event stream. The returned events can be
// replayed any number of times against fresh collectors; benchmarks use
// this to time the per-access handler without interpreter overhead.
func HotpathTrace(name string) ([]trace.Event, error) {
	prog, init, err := hotpathProgram(name)
	if err != nil {
		return nil, err
	}
	info, err := prog.Finalize()
	if err != nil {
		return nil, fmt.Errorf("hotpath: %s: %w", name, err)
	}
	rec := &trace.Recorder{}
	var opts []interp.Option
	if init != nil {
		opts = append(opts, interp.WithInit(init))
	}
	if _, err := interp.Run(info, nil, rec, opts...); err != nil {
		return nil, fmt.Errorf("hotpath: %s: %w", name, err)
	}
	return rec.Events, nil
}

// HotpathCollector builds the collector configuration the set replays into:
// one engine per granularity of the target hierarchy, default histogram
// resolution and tree.
func HotpathCollector(hier *cache.Hierarchy) *reusedist.Collector {
	return reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{})
}
