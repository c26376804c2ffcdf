package persist

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/reusedist"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

var update = flag.Bool("update", false, "add missing seeds to the FuzzLoad corpus under testdata/fuzz/FuzzLoad")

// FuzzLoad feeds arbitrary bytes to the artifact decoder. Every untrusted
// artifact the daemon accepts (an /v1/analyze upload, a peer's cache PUT,
// a remote-tier or disk-tier read) goes through Load, so the property is
// that Load either refuses the stream or returns a dataset every reader
// can index: its collector fingerprints without panicking, and a Save ->
// Load round trip reproduces the fingerprint. The seed corpus in
// testdata/fuzz/FuzzLoad (fig2 and stencil artifacts from real runs, plus
// one crafted artifact per malformed shape) runs with every go test.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRoundTrip(t, d)
	})
}

// checkRoundTrip asserts the FuzzLoad property for a loaded dataset.
func checkRoundTrip(t *testing.T, d *Dataset) {
	t.Helper()
	fp := d.Collector().Fingerprint()
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatalf("save of a loaded dataset: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("reload of a saved dataset: %v", err)
	}
	if got := back.Collector().Fingerprint(); got != fp {
		t.Fatalf("save/load moved the fingerprint: %016x -> %016x", fp, got)
	}
}

// realArtifact runs a built-in workload through the exact pipeline and
// saves it the way the daemon does, trip statistics included.
func realArtifact(t *testing.T, workload string) []byte {
	t.Helper()
	prog, init, err := workloads.Build(workload)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Pipeline{Source: core.DynamicSource{Prog: prog, Init: init}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, Snapshot(res.Collector, prog.Name, res.Run.Trips)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawHist gob-encodes as a histogram with the given wire fields, so a
// test can write a resolution or a bin that no real histogram holds.
type rawHist struct {
	Sub    uint64
	BinIdx []uint32
	BinCnt []uint64
}

func (h rawHist) GobEncode() ([]byte, error) {
	type histogramWire rawHist // drops the method, so Encode does not recurse
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(histogramWire(h))
	return buf.Bytes(), err
}

// rawPattern, rawRef and rawDataset mirror reusedist.Pattern, refWire and
// datasetWire field by field, with the histogram replaced by rawHist.
type rawPattern struct {
	Key    reusedist.PatternKey
	Hist   rawHist
	MissAt []uint64
	Count  uint64
}

type rawRef struct {
	Ref   trace.RefID
	Scope trace.ScopeID
	Pats  []rawPattern
	Total uint64
	Cold  uint64
}

type rawDataset struct {
	Version int
	Program string
	Grans   []reusedist.Granularity
	RefsV2  [][]rawRef
	Clocks  []uint64
}

// rawArtifact writes a one-reference artifact at every scaled-hierarchy
// granularity with one pattern per hist, each under the zero key and
// holding one reuse arc.
func rawArtifact(t *testing.T, hists ...rawHist) []byte {
	t.Helper()
	d := rawDataset{Version: FormatVersion, Program: "crafted", Grans: cache.ScaledItanium2().Granularities()}
	accesses := 1 + uint64(len(hists))
	for _, g := range d.Grans {
		ref := rawRef{Ref: 0, Scope: 1, Total: accesses, Cold: 1}
		for _, h := range hists {
			ref.Pats = append(ref.Pats, rawPattern{Hist: h, MissAt: make([]uint64, len(g.Thresholds)), Count: 1})
		}
		d.RefsV2 = append(d.RefsV2, []rawRef{ref})
		d.Clocks = append(d.Clocks, accesses)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// craftedArtifacts returns one malformed artifact per shape Load must
// refuse, most of them a real fig2 artifact with one field changed. All
// but the repeated RefID and pattern key, which silently dropped a
// reference's or a pattern's data, crashed or exhausted the memory of a
// reader that trusted the stream.
func craftedArtifacts(t *testing.T, fig2 []byte) map[string][]byte {
	t.Helper()
	mutate := func(f func(d *Dataset)) []byte {
		d, err := Load(bytes.NewReader(fig2))
		if err != nil {
			t.Fatal(err)
		}
		f(d)
		var buf bytes.Buffer
		if err := Save(&buf, d); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	firstPattern := func(d *Dataset) *reusedist.Pattern {
		for _, rd := range d.Refs[0] {
			if ps := rd.PatternsByKey(); len(ps) > 0 {
				return ps[0]
			}
		}
		t.Fatal("fig2 artifact has no pattern")
		return nil
	}
	return map[string][]byte{
		"unequal-lengths": mutate(func(d *Dataset) { d.Refs, d.Clocks = d.Refs[:1], d.Clocks[:1] }),
		"block-bits-60":   mutate(func(d *Dataset) { d.Grans[0].BlockBits = 60 }),
		"extra-level":     mutate(func(d *Dataset) { d.Grans[0].LevelNames = append([]string{"L1"}, d.Grans[0].LevelNames...) }),
		"nil-histogram":   mutate(func(d *Dataset) { firstPattern(d).Hist = nil }),
		"short-missat": mutate(func(d *Dataset) {
			p := firstPattern(d)
			p.MissAt = p.MissAt[:len(p.MissAt)-1]
		}),
		"huge-refid":     mutate(func(d *Dataset) { d.Refs[0][0].Ref = 1 << 30 }),
		"negative-refid": mutate(func(d *Dataset) { d.Refs[0][0].Ref = -1 }),
		"repeated-refid": mutate(func(d *Dataset) { d.Refs[0][1].Ref = d.Refs[0][0].Ref }),
		"huge-bin":       rawArtifact(t, rawHist{Sub: 8, BinIdx: []uint32{1 << 31}, BinCnt: []uint64{1}}),
		"bad-resolution": rawArtifact(t, rawHist{Sub: 0, BinIdx: []uint32{300}, BinCnt: []uint64{1}}),
		"repeated-pattern-key": rawArtifact(t,
			rawHist{Sub: 8, BinIdx: []uint32{0}, BinCnt: []uint64{1}},
			rawHist{Sub: 8, BinIdx: []uint32{0}, BinCnt: []uint64{1}}),
	}
}

// TestLoadRejectsCraftedArtifacts checks that Load refuses one crafted
// artifact per malformed shape and accepts the real ones they derive
// from, and that the FuzzLoad corpus holds all of them. -update adds the
// seeds the corpus lacks and rewrites none: all but repeated-pattern-key
// were written while reusedist.PatternKey still had a calling-context
// field, so they also stand for streams that carry it.
func TestLoadRejectsCraftedArtifacts(t *testing.T) {
	seeds := map[string][]byte{
		"fig2":    realArtifact(t, "fig2"),
		"stencil": realArtifact(t, "stencil"),
	}
	for name, data := range seeds {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: real artifact refused: %v", name, err)
		}
		checkRoundTrip(t, d)
	}
	for name, data := range craftedArtifacts(t, seeds["fig2"]) {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Load accepted a malformed artifact", name)
		} else if !strings.HasPrefix(err.Error(), "persist: ") {
			t.Errorf("%s: error %q lacks the persist prefix", name, err)
		}
		seeds[name] = data
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzLoad")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range seeds {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); err == nil {
			continue
		} else if !*update {
			t.Errorf("FuzzLoad corpus lacks seed %s (run go test ./internal/persist -run TestLoadRejectsCraftedArtifacts -update): %v", name, err)
			continue
		}
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
