package reusedist_test

import (
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/reusedist"
	"reusetool/internal/workloads"
)

// TestEnginesShareNoCacheLine builds the collector of every built-in
// workload on every named hierarchy, sized as core.Pipeline sizes it,
// and checks that no 64-byte line holding one engine's per-access state
// (its struct fields and per-scope counters) holds any byte of another
// engine. A fanned-out collector runs each engine on its own CPU, and a
// line that one writes while the other reads it costs the fan-out most
// of its gain.
func TestEnginesShareNoCacheLine(t *testing.T) {
	const line = 64
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
			col := reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{Hints: hints})
			for i, a := range col.Engines {
				for j, b := range col.Engines {
					if i == j {
						continue
					}
					for _, s := range reusedist.StateSpans(a) {
						lo, hi := s.Lo/line*line, (s.Hi+line-1)/line*line
						for _, m := range reusedist.MemorySpans(b) {
							if m.Lo < hi && lo < m.Hi {
								t.Errorf("%s on %s: engine %d's state [%#x, %#x) shares a line with engine %d's bytes [%#x, %#x)",
									name, hname, i, s.Lo, s.Hi, j, m.Lo, m.Hi)
							}
						}
					}
				}
			}
		}
	}
}
