package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this binary's main: with
// EXPERIMENTS_RUN_MAIN=1 the test binary behaves as the command.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its exit code and
// stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestUnknownExperimentRefused: a name no experiment has, a typo of
// one, and the retired hotpath experiment each exit 2 before running
// anything, and the message and the -exp help text list the same
// valid names.
func TestUnknownExperimentRefused(t *testing.T) {
	const valid = "all, fig1, fig2, fig5, table2, fig8, fig9, fig10, fig11, predict, static, sampling"
	for _, name := range []string{"bogus", "fig8a", "hotpath"} {
		code, stderr := runMain(t, "-exp", name)
		if code != 2 {
			t.Errorf("-exp %s: exit %d, want 2 (stderr %q)", name, code, stderr)
		}
		if want := `unknown experiment "` + name + `"; valid: ` + valid; !strings.Contains(stderr, want) {
			t.Errorf("-exp %s: stderr %q does not contain %q", name, stderr, want)
		}
	}
	if _, usage := runMain(t, "-h"); !strings.Contains(usage, "experiment to run: "+valid) {
		t.Errorf("-h does not list %q under -exp:\n%s", valid, usage)
	}
}

func TestParseInts(t *testing.T) {
	got := parseInts("8, 12,16 ,,20")
	want := []int64{8, 12, 16, 20}
	if len(got) != len(want) {
		t.Fatalf("parseInts = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseInts = %v, want %v", got, want)
		}
	}
	if out := parseInts(""); len(out) != 0 {
		t.Errorf("empty input should parse to nothing, got %v", out)
	}
}
