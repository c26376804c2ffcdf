package reusedist_test

import (
	"fmt"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/reusedist"
	"reusetool/internal/sampling"
	"reusetool/internal/workloads"
)

// TestEnginesShareNoCacheLine builds the collector of every built-in
// workload on every named hierarchy, exact and sampled, sized as
// core.Pipeline sizes it, and checks that no 64-byte line holding one
// engine's per-access state (its struct fields, per-scope counters and
// admission memo) holds any byte of another engine. A fanned-out
// collector runs each engine on its own CPU, and a line that one writes
// while the other reads it costs the fan-out most of its gain.
func TestEnginesShareNoCacheLine(t *testing.T) {
	for _, hname := range []string{"scaled", "full", "opteron"} {
		hier, err := cache.ByName(hname)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range workloads.Names() {
			prog, _, err := workloads.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			info, err := prog.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			hints := reusedist.CapacityHints{Refs: len(info.Refs), Scopes: info.Scopes.Len()}
			if m, err := interp.Layout(info, nil); err == nil {
				hints.FootprintBytes = m.DataFootprint()
			}
			for _, smp := range []sampling.Config{{}, {Rate: 64}} {
				col := reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{Hints: hints, Sampling: smp})
				enginesShareNoLine(t, fmt.Sprintf("%s on %s (sampling %v)", name, hname, smp), col)
			}
		}
	}
}

// enginesShareNoLine fails t when a line holding one of col's engines'
// per-access state holds any byte of another of its engines.
func enginesShareNoLine(t *testing.T, label string, col *reusedist.Collector) {
	t.Helper()
	const line = 64
	for i, a := range col.Engines {
		for j, b := range col.Engines {
			if i == j {
				continue
			}
			for _, s := range reusedist.StateSpans(a) {
				lo, hi := s.Lo/line*line, (s.Hi+line-1)/line*line
				for _, m := range reusedist.MemorySpans(b) {
					if m.Lo < hi && lo < m.Hi {
						t.Errorf("%s: engine %d's state [%#x, %#x) shares a line with engine %d's bytes [%#x, %#x)",
							label, i, s.Lo, s.Hi, j, m.Lo, m.Hi)
					}
				}
			}
		}
	}
}
