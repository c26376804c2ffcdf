package predict_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/predict"
)

var update = flag.Bool("update", false, "rewrite the FuzzDecode seed corpus under testdata/fuzz/FuzzDecode")

// FuzzDecode feeds arbitrary bytes to the model decoder. A peer's
// PUT /v1/cache/{key} model entry reaches Decode through the server's
// admission check, and a decoded model is served by Predict, so the
// property is that each of the two either returns an error or
// succeeds: neither panics. The seed corpus in testdata/fuzz/FuzzDecode
// (a fitted fig2 model, its truncations and one crafted model per
// shape Decode refuses) runs with every go test.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := predict.Decode(data)
		if err != nil {
			return
		}
		_, _ = m.Predict(nil)
	})
}

// craftedModels returns one malformed model per shape Decode must
// refuse, each the fitted fig2 model with one field changed. Every one
// of them made Predict panic or exhaust memory before Decode checked
// the shape.
func craftedModels(t *testing.T, fig2 *predict.Model) map[string][]byte {
	t.Helper()
	mutate := func(f func(m *predict.Model)) []byte {
		data, err := predict.Encode(fig2)
		if err != nil {
			t.Fatal(err)
		}
		m, err := predict.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		f(m)
		out, err := predict.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := func(m *predict.Model) *predict.PatternModel {
		for gi := range m.Grans {
			if len(m.Grans[gi].Patterns) > 0 {
				return &m.Grans[gi].Patterns[0]
			}
		}
		t.Fatal("fig2 model has no pattern")
		return nil
	}
	return map[string][]byte{
		"negative-distbins": mutate(func(m *predict.Model) { m.DistBins = -1 }),
		"huge-distbins":     mutate(func(m *predict.Model) { m.DistBins = 1 << 40 }),
		"bad-resolution":    mutate(func(m *predict.Model) { m.Grans[0].Res = 3 }),
		"long-dists": mutate(func(m *predict.Model) {
			p := first(m)
			p.Dists = append(p.Dists, p.Dists[0])
		}),
	}
}

// TestDecodeRejectsCraftedModels checks that Decode refuses one crafted
// model per malformed shape and accepts the fitted model they derive
// from and predicts with it, and that the FuzzDecode corpus holds all
// of them plus truncations of the fitted model (-update rewrites it).
func TestDecodeRejectsCraftedModels(t *testing.T) {
	m := fitFig2(t, cache.ScaledItanium2())
	data, err := predict.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := predict.Decode(data)
	if err != nil {
		t.Fatalf("fitted model refused: %v", err)
	}
	if _, err := back.Predict(nil); err != nil {
		t.Fatalf("fitted model does not predict: %v", err)
	}
	seeds := map[string][]byte{"fig2": data}
	for _, frac := range []int{2, 4, 8} {
		seeds[fmt.Sprintf("fig2-cut%d", frac)] = data[:len(data)/frac]
	}
	for name, crafted := range craftedModels(t, m) {
		if _, err := predict.Decode(crafted); err == nil {
			t.Errorf("%s: Decode accepted a malformed model", name)
		} else if !strings.HasPrefix(err.Error(), "predict: ") {
			t.Errorf("%s: error %q lacks the predict prefix", name, err)
		}
		seeds[name] = crafted
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range seeds {
		path := filepath.Join(dir, name)
		if *update {
			seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if _, err := os.Stat(path); err != nil {
			t.Errorf("FuzzDecode corpus lacks seed %s (run go test ./internal/predict -run TestDecodeRejectsCraftedModels -update): %v", name, err)
		}
	}
}
