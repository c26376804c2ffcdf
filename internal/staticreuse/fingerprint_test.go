package staticreuse_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/staticreuse"
	"reusetool/internal/workloads"
)

// estimateFingerprints pins the collector fingerprint of a static
// estimate (default hierarchy and resolution) on every built-in workload
// and shipped .loop program at its defaults, and on the first and last
// parameter bindings of each program perfbench's service-warm workload
// sends as static misses. The values were recorded before assign moved
// from a sorted, per-offset scan to a recency heap over offset runs; any
// drift in a histogram bin, miss count or cold count changes them.
var estimateFingerprints = map[string]uint64{
	"fig1a":            0xa935fce09299fa11,
	"fig1b":            0xa1fec0fdc56908a3,
	"fig2":             0x90fa31824fc4a899,
	"gtc":              0x9a2a2330d96b857d,
	"gtc-tuned":        0x1db51bb7c28b71ff,
	"stencil":          0xdfeae80d0cdca002,
	"stream":           0xbf1a40875924e42a,
	"sweep3d":          0x474b371f78bb102b,
	"sweep3d-blk6":     0x4fba56bc780c87db,
	"sweep3d-blk6ic":   0x4fba56bc780c87db,
	"transpose":        0x49be245eba7b8d07,
	"gather.loop":      0xc6bc09ed51e85489,
	"matmul.loop":      0x92c20948536a4690,
	"rowwalk.loop":     0xa935fce09299fa11,
	"saxpy.loop":       0x78a1e5da5e56acfe,
	"sweep3d.loop":     0x1e1b27dfc114b713,
	"fig2{N=401}":      0xf70bf6e83d575aee,
	"fig2{N=423}":      0x27964546bc41e090,
	"stencil{N=129}":   0xe01762d74a5dc999,
	"stencil{N=151}":   0x9c0292e366085940,
	"stream{N=16385}":  0x7cb0927dc0213924,
	"stream{N=16407}":  0x3ea1a2e887a0a40e,
	"transpose{N=257}": 0x99464de1befdc10a,
	"transpose{N=279}": 0xed373a4f4ba219f6,
}

// TestEstimateFingerprintsPinned estimates every pinned case and checks
// its fingerprint.
func TestEstimateFingerprintsPinned(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "programs", "*.loop"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no .loop programs found: %v", err)
	}
	type binding struct {
		name  string
		param string
		value int64
	}
	cases := []binding{}
	for _, name := range workloads.Names() {
		cases = append(cases, binding{name: name})
	}
	for _, f := range files {
		cases = append(cases, binding{name: f})
	}
	for _, b := range []struct {
		name   string
		lo, hi int64
	}{{"fig2", 401, 423}, {"stencil", 129, 151}, {"stream", 16385, 16407}, {"transpose", 257, 279}} {
		cases = append(cases, binding{b.name, "N", b.lo}, binding{b.name, "N", b.hi})
	}
	for _, c := range cases {
		key := filepath.Base(c.name)
		if c.param != "" {
			key = fmt.Sprintf("%s{%s=%d}", c.name, c.param, c.value)
		}
		t.Run(key, func(t *testing.T) {
			var prog *ir.Program
			if filepath.Ext(c.name) == ".loop" {
				src, err := os.ReadFile(c.name)
				if err != nil {
					t.Fatal(err)
				}
				prog, _, err = lang.Parse(string(src))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				prog, _, err = workloads.Build(c.name)
				if err != nil {
					t.Fatal(err)
				}
			}
			info, err := prog.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			var opts staticreuse.Options
			if c.param != "" {
				opts.Params = map[string]int64{c.param: c.value}
			}
			est, err := staticreuse.Estimate(info, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := est.Collector.Fingerprint()
			want, ok := estimateFingerprints[key]
			if !ok {
				t.Fatalf("no pinned fingerprint for %q (got %#x)", key, got)
			}
			if got != want {
				t.Errorf("fingerprint = %#x, want %#x (the static estimate changed)", got, want)
			}
		})
	}
}
