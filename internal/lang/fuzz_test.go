package lang

import (
	"testing"

	"reusetool/internal/workloads"
)

// builtinSources formats every built-in workload as .loop text — the fuzz
// seeds and the round-trip fixtures.
func builtinSources(t testing.TB) map[string]string {
	t.Helper()
	out := map[string]string{}
	add := func(name string, src string) { out[name] = src }
	add("fig1a", Format(workloads.Fig1(false)))
	add("fig1b", Format(workloads.Fig1(true)))
	add("fig2", Format(workloads.Fig2()))
	add("stream", Format(workloads.Stream(1<<10, 2)))
	add("stencil", Format(workloads.Stencil(64, 2)))
	add("transpose", Format(workloads.Transpose(64)))
	sw, err := workloads.Sweep3D(workloads.DefaultSweep3D())
	if err != nil {
		t.Fatal(err)
	}
	add("sweep3d", Format(sw))
	gtc, _, err := workloads.GTC(workloads.DefaultGTC())
	if err != nil {
		t.Fatal(err)
	}
	add("gtc", Format(gtc))
	return out
}

// roundTrip parses src and, on success, checks that formatting is a
// fixpoint: parse(src) formats to text that parses back to the same text.
func roundTrip(t *testing.T, src string) {
	t.Helper()
	prog, _, err := Parse(src)
	if err != nil {
		return // invalid input: only crashes and hangs are failures
	}
	first := Format(prog)
	prog2, _, err := Parse(first)
	if err != nil {
		t.Fatalf("reparse of formatted program failed: %v\nprogram:\n%s", err, first)
	}
	second := Format(prog2)
	if first != second {
		t.Errorf("format not a fixpoint:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

func TestBuiltinWorkloadsRoundTrip(t *testing.T) {
	for name, src := range builtinSources(t) {
		t.Run(name, func(t *testing.T) {
			prog, _, err := Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if got := Format(prog); got != src {
				t.Errorf("parse→format changed the text:\noriginal:\n%s\ngot:\n%s", src, got)
			}
			roundTrip(t, src)
		})
	}
}

func FuzzParseRoundTrip(f *testing.F) {
	for _, src := range builtinSources(f) {
		f.Add(src)
	}
	// A few handwritten edge cases: empty, minimal, and malformed inputs.
	f.Add("")
	f.Add("program p\nmain {\n}\n")
	f.Add("program p\nparam N = 4\narray A[N] elem 8\nmain {\n  loop i = 0..N-1 {\n    load A[i]\n  }\n}\n")
	f.Add("program p\nmain {\n  loop i = 0..")
	// Constant zero divisors: a parse error, not a folding panic.
	f.Add("program p\narray A f64 [8]\nroutine main {\n  for i = 0 .. 3 {\n    access A[i + 4/0], A[i % (2 - 2)]\n  }\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		roundTrip(t, src)
	})
}
