package reusecheck

import (
	"strings"
	"testing"

	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/trace"
)

// checkSrc parses .loop source and runs the full checker with the
// uninitialized-data check suppressed (these fixtures declare no init).
func checkSrc(t *testing.T, src string) []Diagnostic {
	t.Helper()
	prog, _, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return Check(info, Options{AssumeInitialized: true})
}

// find returns the diagnostics with one code.
func find(diags []Diagnostic, code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func TestDeadStoreSameIteration(t *testing.T) {
	diags := checkSrc(t, `program p
param N 8
array A f64 [N]
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    access A[i]!
    access A[i]!
  }
}
`)
	ds := find(diags, "dead-store")
	if len(ds) != 1 {
		t.Fatalf("dead-store diagnostics = %d, want 1\n%v", len(ds), diags)
	}
	d := ds[0]
	if d.Line != 6 {
		t.Errorf("dead store reported at line %d, want 6 (the first store)", d.Line)
	}
	if !strings.Contains(d.Msg, "overwritten at line 7") {
		t.Errorf("msg = %q, want the killing store's line", d.Msg)
	}
	if d.Severity != SevDefect || d.Hint == "" {
		t.Errorf("dead store severity/hint: %+v", d)
	}
}

func TestDeadStoreKilledByRead(t *testing.T) {
	diags := checkSrc(t, `program p
param N 8
array A f64 [N]
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    access A[i]!
    access A[i]
    access A[i]!
  }
}
`)
	if ds := find(diags, "dead-store"); len(ds) != 0 {
		t.Errorf("read between stores must kill the pending store: %v", ds)
	}
}

func TestDeadStoreGuardedStoresSeparate(t *testing.T) {
	// The branch store and the fall-through store run under different
	// guard contexts: neither may be reported dead.
	diags := checkSrc(t, `program p
param N 8
param M 4
array A f64 [N]
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    if i < M {
      access A[i]!
    }
    access A[i]!
  }
}
`)
	if ds := find(diags, "dead-store"); len(ds) != 0 {
		t.Errorf("guarded store wrongly reported dead: %v", ds)
	}
}

func TestDeadStoreCrossIteration(t *testing.T) {
	diags := checkSrc(t, `program p
param N 8
array A f64 [N]
routine main file p.f line 1 {
  for t = 0 .. 9 line 2 {
    access A[0]!
  }
}
`)
	ds := find(diags, "dead-store")
	if len(ds) != 1 {
		t.Fatalf("cross-iteration dead store missing:\n%v", diags)
	}
	if !strings.Contains(ds[0].Msg, "does not depend on loop t") {
		t.Errorf("msg = %q", ds[0].Msg)
	}
	if ds[0].Line != 6 {
		t.Errorf("line = %d, want 6", ds[0].Line)
	}
}

func TestDeadStoreCrossIterationNeedsTwoTrips(t *testing.T) {
	diags := checkSrc(t, `program p
param N 8
array A f64 [N]
routine main file p.f line 1 {
  for t = 0 .. 0 line 2 {
    access A[0]!
  }
}
`)
	if ds := find(diags, "dead-store"); len(ds) != 0 {
		t.Errorf("one-trip loop cannot overwrite: %v", ds)
	}
}

func TestDeadGuard(t *testing.T) {
	diags := checkSrc(t, `program p
param N 8
array A f64 [N]
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    if i < N {
      access A[i]
    }
  }
}
`)
	dg := find(diags, "dead-guard")
	if len(dg) != 1 {
		t.Fatalf("dead-guard diagnostics = %d, want 1\n%v", len(dg), diags)
	}
	if !strings.Contains(dg[0].Msg, "always holds") {
		t.Errorf("msg = %q", dg[0].Msg)
	}
}

func TestDeadGuardNeverHolds(t *testing.T) {
	diags := checkSrc(t, `program p
param N 8
array A f64 [N]
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    if i > N {
      access A[0]
    }
    access A[i]
  }
}
`)
	dg := find(diags, "dead-guard")
	if len(dg) != 1 {
		t.Fatalf("dead-guard diagnostics = %d, want 1\n%v", len(dg), diags)
	}
	if !strings.Contains(dg[0].Msg, "never holds") {
		t.Errorf("msg = %q", dg[0].Msg)
	}
}

func TestUndecidableGuardNotFlagged(t *testing.T) {
	diags := checkSrc(t, `program p
param N 8
param M 4
array A f64 [N]
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    if i < M {
      access A[i]
    }
    access A[i]
  }
}
`)
	if dg := find(diags, "dead-guard"); len(dg) != 0 {
		t.Errorf("undecidable guard flagged: %v", dg)
	}
}

func TestBoundsProvedNote(t *testing.T) {
	diags := checkSrc(t, `program p
param N 8
array A f64 [N]
routine main file p.f line 1 {
  for i = 0 .. N-1 line 2 {
    access A[i]
  }
}
`)
	notes := find(diags, "bounds-proved")
	if len(notes) != 1 {
		t.Fatalf("bounds-proved notes = %d, want 1\n%v", len(notes), diags)
	}
	if notes[0].Severity != SevNote {
		t.Errorf("severity = %v, want note", notes[0].Severity)
	}
	if Findings(diags) != 0 {
		t.Errorf("notes must not count as findings: %d", Findings(diags))
	}
}

func TestSortDedupAndOrder(t *testing.T) {
	d1 := Diagnostic{File: "b.f", Line: 2, Code: "x", Msg: "m"}
	d2 := Diagnostic{File: "a.f", Line: 9, Code: "x", Msg: "m"}
	d3 := Diagnostic{File: "a.f", Line: 9, Code: "x", Msg: "m"} // dup of d2
	d4 := Diagnostic{File: "a.f", Line: 1, Code: "z", Msg: "m"}
	got := Sort([]Diagnostic{d1, d2, d3, d4})
	if len(got) != 3 {
		t.Fatalf("dedup kept %d, want 3", len(got))
	}
	if got[0] != d4 || got[1] != d2 || got[2] != d1 {
		t.Errorf("order = %v", got)
	}
}

func TestCheckIsDeterministic(t *testing.T) {
	src := `program p
param N 32
array A f64 [N, N]
array B f64 [N, N]
routine main file p.f line 1 {
  for j = 0 .. N-1 line 2 {
    for i = 0 .. N-1 line 3 {
      access A[j, i], B[0, j], B[i, j]!
    }
  }
}
`
	first := checkSrc(t, src)
	for round := 0; round < 3; round++ {
		again := checkSrc(t, src)
		if len(again) != len(first) {
			t.Fatalf("run %d: %d diagnostics, first run had %d", round, len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("run %d: diagnostic %d drifted:\n%v\n%v", round, i, first[i], again[i])
			}
		}
	}
}

// TestOpportunityFieldsPopulated: every opportunity carries the ranked
// suffix the issue requires — a miss prediction level, a transform,
// and a legality verdict.
func TestOpportunityFieldsPopulated(t *testing.T) {
	diags := checkSrc(t, `program p
param N 64
array A f64 [N, N]
array B f64 [N, N]
routine main file p.f line 1 {
  for j = 0 .. N-1 line 2 {
    for i = 0 .. N-1 line 3 {
      access A[j, i], B[0, j], B[i, j]!
    }
  }
}
`)
	var opps int
	for _, d := range diags {
		if d.Severity != SevOpportunity {
			continue
		}
		opps++
		if d.Level == "" || d.Transform == "" || d.Legality == "" {
			t.Errorf("%s at %s:%d missing ranking fields: %+v", d.Code, d.File, d.Line, d)
		}
	}
	if opps == 0 {
		t.Fatalf("fixture produced no opportunities:\n%v", diags)
	}
}

// TestCallKillsPending: an opaque call may read anything, so stores
// across it are not dead.
func TestCallKillsPending(t *testing.T) {
	prog := ir.NewProgram("p")
	n := prog.Param("N", 8)
	a := prog.AddArray("A", 8, n)
	i := prog.Var("i")
	sub := prog.AddRoutine("sub", "p.f", 20)
	sub.Body = []ir.Stmt{ir.Do(a.Read(ir.C(0)))}
	main := prog.AddRoutine("main", "p.f", 1)
	w1 := a.WriteRef(i)
	w1.Line = 3
	w2 := a.WriteRef(i)
	w2.Line = 5
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.Do(w1),
			&ir.Call{Callee: sub},
			ir.Do(w2),
		).At(2),
	}
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	diags := Check(info, Options{AssumeInitialized: true})
	if ds := find(diags, "dead-store"); len(ds) != 0 {
		t.Errorf("store across opaque call reported dead: %v", ds)
	}
}

// parseInfo parses and finalizes .loop source.
func parseInfo(t *testing.T, src string) *ir.Info {
	t.Helper()
	prog, _, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// claimsAt returns the diagnostics with one code at one line.
func claimsAt(diags []Diagnostic, code string, line int) []Diagnostic {
	var out []Diagnostic
	for _, d := range find(diags, code) {
		if d.Line == line {
			out = append(out, d)
		}
	}
	return out
}

// The walker must not believe a binding a loop or branch may have
// changed. Each program below is checked against its own execution.

// TestStaleBindingAfterLoopNoDeadStoreOrGuard: the loop rebinds t, so
// the second store writes A[7], not A[0], and t == 0 does not hold.
func TestStaleBindingAfterLoopNoDeadStoreOrGuard(t *testing.T) {
	info := parseInfo(t, `program p
param N 8
array A f64 [N]
array B f64 [N]
routine main file p.f line 1 {
  let t = 0
  access A[t]!
  for i = 0 .. N-1 line 4 {
    let t = i
    access B[i]
  }
  access A[t]!
  if t == 0 {
    access B[0]
  }
}
`)
	diags := Check(info, Options{AssumeInitialized: true})
	if got := claimsAt(diags, "dead-store", 7); len(got) != 0 {
		t.Errorf("store before the loop reported dead: %v", got)
	}
	if got := find(diags, "dead-guard"); len(got) != 0 {
		t.Errorf("guard on a rebound name decided: %v", got)
	}
	res, err := interp.Run(info, nil, trace.Discard{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 10 {
		t.Errorf("run made %d accesses, want 10 (the guard never holds)", res.Accesses)
	}
}

// TestStaleBindingAfterLoopNotProvedInBounds: after the loop t = 15.
func TestStaleBindingAfterLoopNotProvedInBounds(t *testing.T) {
	info := parseInfo(t, `program p
param N 8
array A f64 [N]
array B f64 [N]
routine main file p.f line 1 {
  let t = 0
  for i = 0 .. N-1 line 3 {
    let t = i + N
    access B[i]
  }
  access A[t]
}
`)
	if got := claimsAt(Check(info, Options{AssumeInitialized: true}), "bounds-proved", 11); len(got) != 0 {
		t.Errorf("A[t] proved in bounds after the loop rebound t: %v", got)
	}
	if _, err := interp.Run(info, nil, trace.Discard{}); err == nil || !strings.Contains(err.Error(), "15 not in [0,8)") {
		t.Errorf("run error = %v, want A[t] out of bounds at 15", err)
	}
}

// TestNestedLoopVariableNotProvedInBounds: the inner loop rebinds k,
// which ends at N+2 = 10.
func TestNestedLoopVariableNotProvedInBounds(t *testing.T) {
	info := parseInfo(t, `program p
param N 8
array A f64 [N]
array B f64 [N]
routine main file p.f line 1 {
  let k = 0
  for i = 0 .. 1 line 3 {
    for k = N .. N+2 line 4 {
      access B[i]
    }
  }
  access A[k]
}
`)
	if got := claimsAt(Check(info, Options{AssumeInitialized: true}), "bounds-proved", 12); len(got) != 0 {
		t.Errorf("A[k] proved in bounds after a nested loop rebound k: %v", got)
	}
	if _, err := interp.Run(info, nil, trace.Discard{}); err == nil || !strings.Contains(err.Error(), "10 not in [0,8)") {
		t.Errorf("run error = %v, want A[k] out of bounds at 10", err)
	}
}

// writeAddrs records the address of every write.
type writeAddrs struct {
	trace.Discard
	addrs []uint64
}

func (w *writeAddrs) Access(_ trace.RefID, addr uint64, _ uint32, write bool) {
	if write {
		w.addrs = append(w.addrs, addr)
	}
}

// TestStaleSubstitutionNoDeadStore: in each program the two stores
// write different elements, because a name the first store's subscript
// was substituted from changed in between. Substituting the stale
// binding would make them one region and the first store dead.
func TestStaleSubstitutionNoDeadStore(t *testing.T) {
	const head = "program p\nparam N 8\narray A f64 [N]\narray B f64 [N]\nroutine main file p.f line 1 {\n"
	cases := map[string]string{
		// t = i is bound in the loop; after it t is 7, while the
		// second loop leaves i at 2.
		"binding made in a loop": `  for i = 0 .. N-1 line 2 {
    let t = i
    access B[i]
  }
  access A[t]!
  for i = 0 .. 2 line 7 {
    access B[i]
  }
  access A[i]!
}
`,
		// t = s, then s is rebound: t is 1, s is 2.
		"binding over a rebound name": `  let s = s + 1
  let t = s
  let s = s + 1
  access A[t]!
  access A[s]!
}
`,
		// t = s, then a loop rebinds s: t is 1, s is 2.
		"binding over a name a loop rebinds": `  let s = s + 1
  let t = s
  for i = 0 .. 2 line 4 {
    let s = i
  }
  access A[t]!
  access A[s]!
}
`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			info := parseInfo(t, head+body)
			if got := find(Check(info, Options{AssumeInitialized: true}), "dead-store"); len(got) != 0 {
				t.Errorf("stores to different elements reported as one region: %v", got)
			}
			rec := &writeAddrs{}
			if _, err := interp.Run(info, nil, rec); err != nil {
				t.Fatal(err)
			}
			if n := len(rec.addrs); n != 2 || rec.addrs[0] == rec.addrs[1] {
				t.Errorf("write addresses %v, want two different ones", rec.addrs)
			}
		})
	}
}

// TestCallRebindsNotProvedInBounds: all routines share one variable
// namespace, so the callee's loop leaves k at N+2 = 10.
func TestCallRebindsNotProvedInBounds(t *testing.T) {
	info := parseInfo(t, `program p
param N 8
array A f64 [N]
array B f64 [N]
routine sub file p.f line 20 {
  for k = N .. N+2 line 21 {
    access B[0]
  }
}
routine main file p.f line 1 {
  let k = 0
  call sub
  access A[k]
}
`)
	if got := claimsAt(Check(info, Options{AssumeInitialized: true}), "bounds-proved", 13); len(got) != 0 {
		t.Errorf("A[k] proved in bounds after a call rebound k: %v", got)
	}
	if _, err := interp.Run(info, nil, trace.Discard{}); err == nil || !strings.Contains(err.Error(), "10 not in [0,8)") {
		t.Errorf("run error = %v, want A[k] out of bounds at 10", err)
	}
}

// TestBranchRebindNotProvedInBounds: the branch rebinds t, so after the
// If t may be 15, not 0.
func TestBranchRebindNotProvedInBounds(t *testing.T) {
	info := parseInfo(t, `program p
param N 8
array A f64 [N]
routine main file p.f line 1 {
  let t = 0
  if N > 4 {
    let t = N + 7
  }
  access A[t]
}
`)
	if got := claimsAt(Check(info, Options{AssumeInitialized: true}), "bounds-proved", 9); len(got) != 0 {
		t.Errorf("A[t] proved in bounds after a branch rebound t: %v", got)
	}
	if _, err := interp.Run(info, nil, trace.Discard{}); err == nil || !strings.Contains(err.Error(), "15 not in [0,8)") {
		t.Errorf("run error = %v, want A[t] out of bounds at 15", err)
	}
}
