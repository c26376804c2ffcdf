package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestReportGoldens runs the real binary and pins its text reports byte
// for byte: -static on every built-in workload and shipped .loop program
// (testdata/static), the sequential dynamic pipeline on the small
// built-ins (testdata/dynamic), and -cct on a small gtc and sweep3d
// (testdata/cct). The first two end in the ranked "Static reuse
// opportunities" section, so the goldens pin the report's ranking as
// well as the pipeline's numbers. Run with -update to regenerate.
func TestReportGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	run := buildReusetool(t)
	report := func(t *testing.T, golden string, args ...string) {
		compareGolden(t, golden, run(t, args...))
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
	// -cct profiles the analysis's own run: the tree is the same with the
	// fan-out on and off, and recording the run beside it changes neither
	// the report nor the trace.
	for _, c := range []struct {
		workload string
		args     []string
	}{
		{"gtc", []string{"-param", "micell=2", "-level", "L3"}},
		{"sweep3d", []string{"-param", "it=6", "-param", "jt=6", "-param", "kt=6"}},
	} {
		golden := filepath.Join("testdata", "cct", "workload-"+c.workload+".golden")
		args := func(flags ...string) []string {
			return append(append(flags, "-workload", c.workload), c.args...)
		}
		t.Run("cct/"+c.workload, func(t *testing.T) {
			report(t, golden, args("-cct", "-parallel=false")...)
			report(t, golden, args("-cct")...)
			dir := t.TempDir()
			alone, withCCT := filepath.Join(dir, "alone.trace"), filepath.Join(dir, "cct.trace")
			run(t, args("-dump-trace", alone)...)
			report(t, golden, args("-cct", "-dump-trace", withCCT)...)
			a, errA := os.ReadFile(alone)
			b, errB := os.ReadFile(withCCT)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("-cct -dump-trace wrote %d trace bytes, -dump-trace alone %d; they differ", len(b), len(a))
			}
		})
	}
}

// buildReusetool builds the binary and returns a function that runs it
// and returns its standard output, failing the test when it exits
// non-zero.
func buildReusetool(t *testing.T) func(t *testing.T, args ...string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "reusetool")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(t *testing.T, args ...string) string {
		var out, errw bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errw
		if err := cmd.Run(); err != nil {
			t.Fatalf("reusetool %s: %v\n%s", strings.Join(args, " "), err, errw.String())
		}
		return out.String()
	}
}

// TestCompareSamplesBothSides: -compare analyzes the other workload with
// the main analysis's options, so under -sample-rate each column of the
// comparison reads the misses a sampled run of its workload alone
// reports.
func TestCompareSamplesBothSides(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	run := buildReusetool(t)
	opts := []string{"-param", "it=6", "-param", "jt=6", "-param", "kt=6", "-sample-rate", "8", "-parallel=false"}
	table := run(t, append([]string{"-workload", "sweep3d", "-compare", "sweep3d-blk6ic"}, opts...)...)
	for _, level := range []string{"L2", "L3", "TLB"} {
		var row []string
		for _, line := range strings.Split(table, "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == level {
				row = f
			}
		}
		if row == nil {
			t.Fatalf("no %s row in the comparison:\n%s", level, table)
		}
		for i, w := range []string{"sweep3d", "sweep3d-blk6ic"} {
			alone := run(t, append([]string{"-workload", w, "-level", level}, opts...)...)
			_, line, _ := strings.Cut(alone, "\n"+level+" misses: ")
			misses, _, ok := strings.Cut(line, " total")
			if !ok {
				t.Fatalf("%s alone: no %s misses line:\n%s", w, level, alone)
			}
			if row[1+i] != misses {
				t.Errorf("%s: the comparison reads %s %s misses, a sampled run alone %s", w, row[1+i], level, misses)
			}
		}
	}
}
