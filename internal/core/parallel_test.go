package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/pipeline"
	"reusetool/internal/reusedist"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
	"reusetool/internal/xmlout"
)

// diffWorkloads are the programs the sequential-vs-parallel differential
// tests run: the two paper examples plus the Sweep3D kernel, whose three
// granularities (L2/L3 lines and TLB pages) exercise the per-engine
// fan-out split.
func diffWorkloads(t *testing.T) map[string]*ir.Program {
	t.Helper()
	sweep, err := workloads.Sweep3D(workloads.DefaultSweep3D())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*ir.Program{
		"fig1a":   workloads.Fig1(false),
		"fig2":    workloads.Fig2(),
		"sweep3d": sweep,
	}
}

// TestParallelMatchesSequential is the PR's central differential test:
// the parallel fan-out must produce a bit-identical report (compared as
// marshaled XML) and identical simulated miss counts on every workload.
func TestParallelMatchesSequential(t *testing.T) {
	for name := range diffWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			run := func(parallel bool) ([]byte, map[string]uint64) {
				t.Helper()
				// Rebuild the program: finalize mutates it.
				progs := diffWorkloads(t)
				res, err := Pipeline{
					Source:  DynamicSource{Prog: progs[name]},
					Options: Options{Simulate: true, Parallel: parallel},
				}.Run()
				if err != nil {
					t.Fatal(err)
				}
				xml, err := xmlout.MarshalWith(res.Report, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				misses := map[string]uint64{}
				for _, l := range res.Hier.Levels {
					misses[l.Name] = res.Sim.Misses(l.Name)
				}
				return xml, misses
			}
			seqXML, seqMiss := run(false)
			parXML, parMiss := run(true)
			if !bytes.Equal(seqXML, parXML) {
				t.Errorf("parallel report differs from sequential (%d vs %d bytes)",
					len(seqXML), len(parXML))
			}
			if !reflect.DeepEqual(seqMiss, parMiss) {
				t.Errorf("simulated misses differ: sequential %v, parallel %v", seqMiss, parMiss)
			}
		})
	}
}

// TestParallelTeeSeesFullStream runs the fan-out with a Tee recorder
// attached and checks the recorded event stream matches the sequential
// reference exactly — order included. Under -race this also serves as
// the concurrency test for the producer/consumer handoff.
func TestParallelTeeSeesFullStream(t *testing.T) {
	record := func(parallel bool) []trace.Event {
		t.Helper()
		rec := &trace.Recorder{}
		_, err := Pipeline{
			Source:  DynamicSource{Prog: workloads.Fig2()},
			Options: Options{Parallel: parallel, Tee: rec},
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rec.Events
	}
	seq := record(false)
	par := record(true)
	if len(seq) == 0 {
		t.Fatal("no events recorded")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel tee saw a different stream: %d vs %d events", len(seq), len(par))
	}
}

// TestParallelSimulateOnly checks the sweeps' fast path under the
// fan-out: simulator-only, no collector.
func TestParallelSimulateOnly(t *testing.T) {
	run := func(parallel bool) map[string]uint64 {
		t.Helper()
		res, err := Pipeline{
			Source:  DynamicSource{Prog: workloads.Stream(4096, 3)},
			Options: Options{SimulateOnly: true, Parallel: parallel, Tee: &trace.Counter{}},
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		misses := map[string]uint64{}
		for _, l := range res.Hier.Levels {
			misses[l.Name] = res.Sim.Misses(l.Name)
		}
		return misses
	}
	if seq, par := run(false), run(true); !reflect.DeepEqual(seq, par) {
		t.Errorf("simulate-only misses differ: sequential %v, parallel %v", seq, par)
	}
}

// atLeastTwoCPUs raises GOMAXPROCS to 2 for the rest of the test when it
// is 1, so the fan-out really starts its goroutines.
func atLeastTwoCPUs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestParallelPanicJoinsConsumers runs a program whose Init panics under
// the fan-out. The panic must reach the caller, and once it is recovered
// no consumer goroutine may be left parked on its ring: a daemon that
// recovers a job's panic would otherwise leak them, with their batches,
// per panicking job.
func TestParallelPanicJoinsConsumers(t *testing.T) {
	atLeastTwoCPUs(t)
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Init's panic did not reach the caller")
			}
		}()
		_, _ = Pipeline{
			Source: DynamicSource{Prog: workloads.Fig2(), Init: func(*interp.Machine) error {
				panic("init failed")
			}},
			Options: Options{Parallel: true},
		}.Run()
	}()
	// A joined consumer has closed its done channel but may not have
	// returned yet; give it a moment to leave the count.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the recovered panic, want at most %d", n, base)
	}
}

// TestFanOutNeedsTwoCPUs checks the fan-out's CPU gate: with Parallel
// and two engines it builds a Fanout only when GOMAXPROCS exceeds 1; on
// one CPU the collector stays whole on the inline path.
func TestFanOutNeedsTwoCPUs(t *testing.T) {
	atLeastTwoCPUs(t)
	p := Pipeline{Options: Options{Parallel: true}}
	col := p.newCollector(nil, 0)
	if len(col.Engines) < 2 {
		t.Fatalf("%d engines, want at least 2", len(col.Engines))
	}
	h, join := p.fanOut(col)
	if _, ok := h.(*pipeline.Fanout); !ok {
		t.Errorf("GOMAXPROCS %d: handler is %T, want *pipeline.Fanout", runtime.GOMAXPROCS(0), h)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h, join = p.fanOut(col)
	if c, ok := h.(*reusedist.Collector); !ok || c != col {
		t.Errorf("GOMAXPROCS 1: handler is %T, want the collector inline", h)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}
