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

// hotpathProgram builds the named workload at the suites' fixed sizes:
// for the hot-path set, large enough for stable ns/access and small
// enough to replay in milliseconds; comparable sizes for the other
// built-ins, which only the sampling suite replays.
func hotpathProgram(name string) (*ir.Program, func(*interp.Machine) error, error) {
	switch name {
	case "fig1a", "fig1b":
		return workloads.Fig1(name == "fig1b"), nil, nil
	case "fig2":
		return workloads.Fig2(), nil, nil
	case "stream":
		return workloads.Stream(1<<16, 4), nil, nil
	case "stencil":
		return workloads.Stencil(192, 4), nil, nil
	case "transpose":
		return workloads.Transpose(256), nil, nil
	case "sweep3d", "sweep3d-blk6", "sweep3d-blk6ic":
		cfg := workloads.DefaultSweep3D()
		cfg.N = 12
		if name != "sweep3d" {
			cfg.Block = 6
			cfg.DimInterchange = name == "sweep3d-blk6ic"
		}
		p, err := workloads.Sweep3D(cfg)
		return p, nil, err
	case "gtc", "gtc-tuned":
		cfg := workloads.DefaultGTC()
		cfg.Micell = 5
		if name == "gtc-tuned" {
			vs := workloads.GTCVariants(cfg)
			cfg = vs[len(vs)-1].Config
		}
		return workloads.GTC(cfg)
	}
	return nil, nil, fmt.Errorf("hotpath: unknown workload %q", name)
}

// HotpathTrace executes the named workload once, at hotpathProgram's
// size, and returns its recording: every event the interpreter sent,
// each access run kept whole. The recording can be replayed any number
// of times against fresh collectors; benchmarks use this to time the
// engines without interpreter overhead, and they receive runs as they
// do in production.
func HotpathTrace(name string) (*trace.Recorder, error) {
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
	return rec, nil
}

// HotpathCollector builds the collector configuration the set replays into:
// one engine per granularity of the target hierarchy, default histogram
// resolution and tree.
func HotpathCollector(hier *cache.Hierarchy) *reusedist.Collector {
	return reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{})
}
