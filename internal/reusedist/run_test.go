package reusedist_test

import (
	"fmt"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/reusedist"
	"reusetool/internal/sampling"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

// perAccess hides a handler's AccessRun, so the interpreter feeds it
// one access at a time.
type perAccess struct{ trace.Handler }

// TestRunsMatchPerAccessSampled runs built-in workloads through the
// interpreter into a collector twice, once taking runs and once one
// access at a time, and checks the two collectors' fingerprints are
// equal, exact and at every sampling shape: R=1, fixed rates 8 and 64
// (where the admission memo turns most accesses away), and an adaptive
// cap of 16 blocks (where the memo outlives many halvings).
func TestRunsMatchPerAccessSampled(t *testing.T) {
	cases := []struct {
		name   string
		params map[string]int64
	}{
		{"sweep3d", map[string]int64{"it": 10, "jt": 10, "kt": 10}},
		{"gtc", map[string]int64{"micell": 4}},
		{"stencil", nil},
		{"transpose", nil},
		{"fig2", nil},
	}
	smps := []sampling.Config{{}, {Rate: 1}, {Rate: 8}, {Rate: 64}, {MaxBlocks: 16}}
	for _, c := range cases {
		prog, init, err := workloads.Build(c.name)
		if err != nil {
			t.Fatal(err)
		}
		info := workloads.MustFinalize(prog)
		m, err := interp.Layout(info, c.params)
		if err != nil {
			t.Fatal(err)
		}
		hints := reusedist.CapacityHints{Refs: len(info.Refs), Scopes: info.Scopes.Len(), FootprintBytes: m.DataFootprint()}
		for _, smp := range smps {
			t.Run(fmt.Sprintf("%s/%v", c.name, smp), func(t *testing.T) {
				var fps [2]uint64
				for i, wrap := range []func(*reusedist.Collector) trace.Handler{
					func(col *reusedist.Collector) trace.Handler { return col },
					func(col *reusedist.Collector) trace.Handler { return perAccess{col} },
				} {
					col := reusedist.NewCollectorWith(cache.ScaledItanium2().Granularities(), reusedist.Config{Hints: hints, Sampling: smp})
					if _, err := interp.Run(info, c.params, wrap(col), interp.WithInit(init)); err != nil {
						t.Fatal(err)
					}
					col.Finish()
					fps[i] = col.Fingerprint()
				}
				if fps[0] != fps[1] {
					t.Errorf("fingerprint with runs %#x, one access at a time %#x", fps[0], fps[1])
				}
			})
		}
	}
}
