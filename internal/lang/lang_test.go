package lang

import (
	"strings"
	"testing"

	"reusetool/internal/interp"
	"reusetool/internal/scope"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

const saxpySrc = `
# classic saxpy
program saxpy
param N 1024
array X f64 [N]
array Y f64 [N]

routine main file saxpy.f line 1 {
  for i = 0 .. N-1 line 3 {
    access X[i], Y[i], Y[i]!
  }
}
`

func TestParseAndRunSaxpy(t *testing.T) {
	prog, _, err := Parse(saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "saxpy" {
		t.Errorf("name = %q", prog.Name)
	}
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var c trace.Counter
	res, err := interp.Run(info, nil, &c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 3*1024 {
		t.Errorf("accesses = %d, want 3072", res.Accesses)
	}
	if c.Writes != 1024 || c.Reads != 2*1024 {
		t.Errorf("reads/writes = %d/%d", c.Reads, c.Writes)
	}
	// The loop scope carries its source line.
	loop := workloads.FindScope(info, scope.KindLoop, "i")
	if info.Scopes.Node(loop).Line != 3 {
		t.Errorf("loop line = %d, want 3", info.Scopes.Node(loop).Line)
	}
	// Parameters override as usual.
	var c2 trace.Counter
	if _, err := interp.Run(info, map[string]int64{"N": 10}, &c2); err != nil {
		t.Fatal(err)
	}
	if c2.Accesses != 30 {
		t.Errorf("overridden accesses = %d, want 30", c2.Accesses)
	}
}

const fullSrc = `
program full
param N 64
param T 3
array A f64 [N, N]
array B f64 [N]
dataarray idx i64 [N]

routine kernel file k.f line 10 {
  for j = 0 .. N-1 by 2 line 12 {
    let m = min(j+1, N-1)
    if m < 32 {
      access A[j, m]
    } else {
      access A[m, j]!
    }
    access B[idx[j]]
  }
}

routine main file main.f line 1 {
  timestep for t = 0 .. T-1 line 2 {
    call kernel
  }
}
`

func TestParseFullLanguage(t *testing.T) {
	prog, _, err := Parse(fullSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// "main" is the entry even though kernel was declared first.
	if prog.Main == nil || prog.Main.Name != "main" {
		t.Fatalf("main routine = %+v", prog.Main)
	}
	// The timestep marker made it through.
	ts := workloads.FindScope(info, scope.KindLoop, "t")
	if !info.Scopes.Node(ts).TimeStep {
		t.Error("timestep loop not marked")
	}
	// Runs cleanly with an initialized index array.
	res, err := interp.Run(info, nil, trace.Discard{}, interp.WithInit(func(m *interp.Machine) error {
		for _, a := range prog.Arrays {
			if a.Name == "idx" {
				m.FillData(a, func(i int64) int64 { return i % 64 })
			}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Per time step: N/2 = 32 iterations, 2 accesses each (A + B).
	if want := uint64(3 * 32 * 2); res.Accesses != want {
		t.Errorf("accesses = %d, want %d", res.Accesses, want)
	}
	// The "by 2" stride reached the loop.
	j := workloads.FindScope(info, scope.KindLoop, "j")
	if got := res.Trips[j]; got.Execs != 3 || got.Iters != 3*32 {
		t.Errorf("j trips = %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"missing program", "param N 4\n", `expected "program"`},
		{"bad decl", "program p\nwidget w\n", "expected param"},
		{"bad type", "program p\narray A f16 [4]\nroutine main {}\n", "unknown element type"},
		{"undeclared array", "program p\nroutine main { for i = 0 .. 3 { access Q[i] } }", "undeclared array"},
		{"undeclared call", "program p\nroutine main { call nope }", "undeclared routine"},
		{"redeclared array", "program p\narray A f64 [4]\narray A f64 [4]\nroutine main {}\n", "redeclared"},
		{"redeclared routine", "program p\nroutine main {}\nroutine main {}\n", "redeclared"},
		{"no routines", "program p\nparam N 4\n", "no routines"},
		{"unterminated block", "program p\nroutine main { for i = 0 .. 3 {", "unexpected end"},
		{"non-data index", "program p\narray A f64 [4]\narray B f64 [4]\nroutine main { for i = 0 .. 3 { access B[A[i]] } }", "must be a dataarray"},
		{"bad cmp", "program p\nroutine main { if 1 = 2 { } }", "comparison"},
		{"bad char", "program p\nroutine main { access @ }", "unexpected character"},
		// Constant folding cannot evaluate these; they used to panic.
		{"constant division by zero", "program p\narray A f64 [8]\nroutine main {\n for i = 0 .. 3 { access A[i + 4/0] } }",
			"<input>:4: division by zero in constant expression"},
		{"constant modulo by zero", "program p\nparam N 0\narray A f64 [8]\nroutine main { let x = (2 + 1) % (1 - 1) }",
			"<input>:4: modulo by zero in constant expression"},
	}
	for _, c := range cases {
		_, _, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestExpressionPrecedence(t *testing.T) {
	src := `
program prec
array A f64 [100]
routine main {
  for i = 0 .. 0 {
    access A[2+3*4-10/2]
  }
}
`
	prog, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if _, err := interp.Run(info, nil, &rec); err != nil {
		t.Fatal(err)
	}
	// 2+12-5 = 9; element 9 of an 8-byte array: offset 72 from the base.
	var addr uint64
	for _, e := range rec.Events {
		if e.Kind == trace.EvAccess {
			addr = e.Addr
		}
	}
	mach, _ := interp.Layout(info, nil)
	if want := mach.ArrayBase(prog.Arrays[0]) + 72; addr != want {
		t.Errorf("addr = %d, want %d", addr, want)
	}
}

func TestUnaryMinusAndComments(t *testing.T) {
	src := `
program neg
param N 8
array A f64 [N]
routine main {
  for i = 0 .. N-1 {
    # negative offsets clamp back via max
    access A[max(-1*i + N-1, 0)]
  }
}
`
	prog, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(info, nil, trace.Discard{}); err != nil {
		t.Fatal(err)
	}
}

func TestInitDeclarations(t *testing.T) {
	src := `
program gather
param N 256
dataarray idx i64 [N]
array A f64 [N]
init idx stride 7

routine main {
  for i = 0 .. N-1 {
    access A[idx[i]]
  }
}
`
	prog, init, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if init == nil {
		t.Fatal("no initializer returned")
	}
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if _, err := interp.Run(info, nil, &rec, interp.WithInit(init)); err != nil {
		t.Fatal(err)
	}
	// idx[1] = 7: the second access targets element 7.
	var addrs []uint64
	for _, e := range rec.Events {
		if e.Kind == trace.EvAccess {
			addrs = append(addrs, e.Addr)
		}
	}
	if addrs[1]-addrs[0] != 7*8 {
		t.Errorf("stride init wrong: delta %d, want 56", addrs[1]-addrs[0])
	}
	// Other kinds parse and run.
	for _, kind := range []string{"identity", "random 42", "const 3"} {
		src2 := "program g\nparam N 64\ndataarray d i64 [N]\narray A f64 [N]\ninit d " + kind +
			"\nroutine main { for i = 0 .. N-1 { access A[min(d[i], N-1)] } }"
		p2, init2, err := Parse(src2)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		info2, err := p2.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := interp.Run(info2, nil, trace.Discard{}, interp.WithInit(init2)); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	// Bad init targets fail at parse time.
	if _, _, err := Parse("program p\narray A f64 [4]\ninit A identity\nroutine main {}"); err == nil {
		t.Error("init on non-data array should fail")
	}
	if _, _, err := Parse("program p\ndataarray d i64 [4]\ninit d bogus\nroutine main {}"); err == nil {
		t.Error("unknown init kind should fail")
	}
}
