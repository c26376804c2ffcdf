package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestReportGoldens runs the real binary and pins its text reports byte
// for byte: -static on every built-in workload and shipped .loop program
// (testdata/static), and the sequential dynamic pipeline on the small
// built-ins (testdata/dynamic). Both end in the ranked "Static reuse
// opportunities" section, so the goldens pin the report's ranking as
// well as the pipeline's numbers. Run with -update to regenerate.
func TestReportGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "reusetool")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	report := func(t *testing.T, golden string, args ...string) {
		var out, errw bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errw
		if err := cmd.Run(); err != nil {
			t.Fatalf("reusetool %s: %v\n%s", strings.Join(args, " "), err, errw.String())
		}
		compareGolden(t, golden, out.String())
	}

	programs, err := filepath.Glob(filepath.Join("..", "..", "programs", "*.loop"))
	if err != nil || len(programs) == 0 {
		t.Fatalf("no .loop programs found: %v", err)
	}
	sort.Strings(programs)
	for _, w := range builtinWorkloads {
		t.Run("static/"+w, func(t *testing.T) {
			report(t, filepath.Join("testdata", "static", "workload-"+w+".golden"), "-static", "-workload", w)
		})
	}
	for _, f := range programs {
		name := strings.TrimSuffix(filepath.Base(f), ".loop")
		t.Run("static/"+name, func(t *testing.T) {
			report(t, filepath.Join("testdata", "static", name+".golden"), "-static", "-program", f)
		})
	}
	// The dynamic pipeline on the built-ins that run in a fraction of a
	// second; the large ones would dominate tier-1's time.
	for _, w := range []string{"fig1a", "fig1b", "fig2", "stream", "stencil", "transpose"} {
		t.Run("dynamic/"+w, func(t *testing.T) {
			report(t, filepath.Join("testdata", "dynamic", "workload-"+w+".golden"), "-parallel=false", "-workload", w)
		})
	}
}
