package interp_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/pipeline"
	"reusetool/internal/reusedist"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

// eventLog is a trace.Handler that folds every event, with all of its
// arguments, into a hash, and keeps the first keep events so a mismatch
// can be shown.
type eventLog struct {
	n    uint64
	hash uint64
	kept []trace.Event
	keep int
}

func newEventLog(keep int) *eventLog { return &eventLog{hash: 14695981039346656037, keep: keep} }

func (l *eventLog) add(e trace.Event) {
	w := uint64(e.Kind) | uint64(uint16(e.Scope))<<8 | uint64(uint32(e.Ref))<<24 | uint64(e.Size)<<56
	if e.Write {
		w |= 1 << 7
	}
	for _, x := range [2]uint64{w, e.Addr} {
		l.hash = (l.hash ^ x) * 1099511628211
		l.hash ^= l.hash >> 29
	}
	if len(l.kept) < l.keep {
		l.kept = append(l.kept, e)
	}
	l.n++
}

func (l *eventLog) EnterScope(s trace.ScopeID) { l.add(trace.Event{Kind: trace.EvEnter, Scope: s}) }
func (l *eventLog) ExitScope(s trace.ScopeID)  { l.add(trace.Event{Kind: trace.EvExit, Scope: s}) }
func (l *eventLog) Access(ref trace.RefID, addr uint64, size uint32, write bool) {
	l.add(trace.Event{Kind: trace.EvAccess, Ref: ref, Addr: addr, Size: size, Write: write})
}

// runLog is a trace.RunHandler that expands every run into its
// eventLog, so its log must equal that of a handler without runs. It
// counts the accesses that came in runs.
type runLog struct {
	*eventLog
	runAccesses uint64
}

func (l *runLog) AccessRun(refs []trace.RunRef, iters uint64) {
	l.runAccesses += iters * uint64(len(refs))
	trace.ExpandRun(l.eventLog, refs, iters)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// runBoth runs info checked, planned into a handler without runs, and
// planned into a run handler, and fails t unless all three emit the same
// events and end with the same error text, and, when they succeed, the
// same access count and trip statistics. It returns the planned run.
func runBoth(t testing.TB, info *ir.Info, params map[string]int64, opts ...interp.Option) (*interp.Result, error) {
	t.Helper()
	res, _, err := runWays(t, info, params, opts...)
	return res, err
}

// runWays is runBoth that also reports how many accesses the run
// handler received in runs.
func runWays(t testing.TB, info *ir.Info, params map[string]int64, opts ...interp.Option) (*interp.Result, uint64, error) {
	t.Helper()
	planned, checked, runs := newEventLog(4096), newEventLog(4096), &runLog{eventLog: newEventLog(4096)}
	pres, perr := interp.Run(info, params, planned, opts...)
	cres, cerr := interp.Run(info, params, checked, append(opts[:len(opts):len(opts)], interp.Checked())...)
	rres, rerr := interp.Run(info, params, runs, opts...)
	for _, w := range []struct {
		name string
		log  *eventLog
		res  *interp.Result
		err  error
	}{{"planned", planned, pres, perr}, {"run", runs.eventLog, rres, rerr}} {
		if errText(w.err) != errText(cerr) {
			t.Fatalf("errors differ:\n%s: %v\nchecked: %v", w.name, w.err, cerr)
		}
		if w.log.n != checked.n || w.log.hash != checked.hash {
			for i := range min(len(w.log.kept), len(checked.kept)) {
				if w.log.kept[i] != checked.kept[i] {
					t.Fatalf("event %d differs: %s %+v, checked %+v", i, w.name, w.log.kept[i], checked.kept[i])
				}
			}
			t.Fatalf("event streams differ: %s %d events (hash %x), checked %d (hash %x)",
				w.name, w.log.n, w.log.hash, checked.n, checked.hash)
		}
		if w.err != nil {
			continue
		}
		if w.res.Accesses != cres.Accesses {
			t.Fatalf("accesses: %s %d, checked %d", w.name, w.res.Accesses, cres.Accesses)
		}
		if !reflect.DeepEqual(w.res.Trips, cres.Trips) {
			t.Fatalf("trips differ:\n%s: %v\nchecked: %v", w.name, w.res.Trips, cres.Trips)
		}
	}
	if perr != nil {
		return nil, runs.runAccesses, perr
	}
	if n := interp.PlanAccesses(cres); n != 0 {
		t.Fatalf("checked run took %d addresses from plans", n)
	}
	if p, r := interp.PlanAccesses(pres), interp.PlanAccesses(rres); p != r {
		t.Fatalf("planned accesses: %d without runs, %d with", p, r)
	}
	return pres, runs.runAccesses, nil
}

func initOpts(init func(*interp.Machine) error) []interp.Option {
	if init == nil {
		return nil
	}
	return []interp.Option{interp.WithInit(init)}
}

func planShare(res *interp.Result) float64 {
	return float64(interp.PlanAccesses(res)) / float64(res.Accesses)
}

// TestPlannedMatchesCheckedWorkloads runs every built-in workload at its
// defaults, the two sampled-large sizes, and every shipped .loop program
// both ways.
func TestPlannedMatchesCheckedWorkloads(t *testing.T) {
	type tc struct {
		label, name string
		params      map[string]int64
		// minShare and minRunShare are the least shares of accesses
		// that must run from a plan and reach a run handler in runs, so
		// neither can silently stop engaging.
		minShare, minRunShare float64
	}
	cases := []tc{
		{"sweep3d-it=jt=kt=24", "sweep3d", map[string]int64{"it": 24, "jt": 24, "kt": 24}, 1, 1},
		{"gtc-micell=60", "gtc", map[string]int64{"micell": 60}, 0.7, 0.5},
	}
	for _, name := range workloads.Names() {
		cases = append(cases, tc{label: name, name: name})
	}
	for _, c := range cases {
		t.Run(c.label, func(t *testing.T) {
			prog, init, err := workloads.Build(c.name)
			if err != nil {
				t.Fatal(err)
			}
			res, inRuns, err := runWays(t, workloads.MustFinalize(prog), c.params, initOpts(init)...)
			if err != nil {
				t.Fatal(err)
			}
			if share := planShare(res); share < c.minShare {
				t.Errorf("%.1f%% of %d accesses ran from a plan, want at least %.0f%%", 100*share, res.Accesses, 100*c.minShare)
			}
			runShare := float64(inRuns) / float64(res.Accesses)
			if runShare < c.minRunShare {
				t.Errorf("%.1f%% of %d accesses came in runs, want at least %.0f%%", 100*runShare, res.Accesses, 100*c.minRunShare)
			}
			t.Logf("%d accesses, %.1f%% from plans, %.1f%% in runs", res.Accesses, 100*planShare(res), 100*runShare)
		})
	}

	files, err := filepath.Glob(filepath.Join("..", "..", "programs", "*.loop"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no .loop programs: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, init, err := lang.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			res, err := runBoth(t, workloads.MustFinalize(prog), nil, initOpts(init)...)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d accesses, %.1f%% from plans", res.Accesses, 100*planShare(res))
		})
	}
}

// parseProgram parses .loop source and finalizes it.
func parseProgram(t *testing.T, src string) (*ir.Info, func(*interp.Machine) error) {
	t.Helper()
	prog, init, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return workloads.MustFinalize(prog), init
}

// TestPlannedFailsLikeChecked pins the failure modes a plan must
// reproduce: the same error text after the same event prefix.
func TestPlannedFailsLikeChecked(t *testing.T) {
	const head = "program p\nparam N 10\nparam Z 0\narray A f64 [N]\narray B f64 [4, N]\n" +
		"dataarray idx i64 [N]\ninit idx random 7\nroutine main file p.f line 1 {\n"
	cases := []struct {
		name, body, want string
		budget           uint64
	}{
		{"oob-first-iteration", "for i = -1 .. 5 { access B[1, i + 1], A[i] }",
			"interp: A[i]: subscript 0 out of bounds: -1 not in [0,10)", 0},
		{"oob-mid-loop", "for i = 0 .. 19 { access A[i] }",
			"interp: A[i]: subscript 0 out of bounds: 10 not in [0,10)", 0},
		{"oob-last-iteration", "for i = 0 .. 10 { access B[2, 5], A[i]! }",
			"interp: A[i]=: subscript 0 out of bounds: 10 not in [0,10)", 0},
		{"oob-descending", "for i = 9 .. -3 by -2 { access A[i] }",
			"interp: A[i]: subscript 0 out of bounds: -1 not in [0,10)", 0},
		// Both ends are 0; the middle iteration wraps to MinInt64.
		{"oob-wrapped-mid-loop", "for i = 0 .. 2 { access A[i * 4611686018427387904 * 2] }",
			"subscript 0 out of bounds: -9223372036854775808 not in [0,10)", 0},
		{"oob-per-access-ref", "for i = 0 .. 9 { access A[i], A[min(i, 5) * 2] }",
			"interp: A[(min(i, 5) * 2)]: subscript 0 out of bounds: 10 not in [0,10)", 0},
		{"zero-divisor", "for i = 0 .. 9 { access A[i], B[0, i + N / Z] }",
			"interp: B[0,(i + (N / Z))]: eval (i + (N / Z)): division by zero", 0},
		{"zero-modulus", "for i = 0 .. 9 { access A[i], B[0, i + N % Z] }",
			"interp: B[0,(i + (N % Z))]: eval (i + (N % Z)): modulo by zero", 0},
		{"bad-load", "for i = 0 .. 9 { access A[i], A[idx[i + 3]] }",
			"interp: A[idx[(i + 3)]]: eval idx[(i + 3)]: Load idx: subscript 0 out of bounds: 10", 0},
		{"access-budget", "for j = 0 .. 3 { for i = 0 .. 9 { access A[i], B[j, i]! } }",
			"interp: access budget of 37 exceeded", 37},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			info, init := parseProgram(t, head+c.body+"\n}\n")
			opts := initOpts(init)
			if c.budget > 0 {
				opts = append(opts, interp.WithMaxAccesses(c.budget))
			}
			_, err := runBoth(t, info, nil, opts...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want it to contain %q", err, c.want)
			}
		})
	}

	// The language refuses a Load from a plain array; the IR does not.
	p := ir.NewProgram("badload")
	a := p.AddArray("A", 8, ir.C(4))
	i := p.Var("i")
	p.AddRoutine("main", "f", 1).Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.C(3), ir.Do(a.Read(i), a.Read(&ir.Load{Array: a, Index: []ir.Expr{i}}))),
	}
	const want = "interp: A[A[i]]: eval A[i]: Load from non-data array A"
	if _, err := runBoth(t, workloads.MustFinalize(p), nil); err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
}

// TestLayoutSizeOverflowRefused: an array whose element count wraps must
// be refused before anything indexes it.
func TestLayoutSizeOverflowRefused(t *testing.T) {
	for _, c := range []struct{ name, decl, body, want string }{
		{"data-2d", "dataarray idx i64 [N, N]\narray A f64 [8]",
			"for i = 0 .. 3 { access A[idx[1, i]] }", "interp: array idx: "},
		{"plain-3d", "array A f64 [N, N, N]",
			"for i = 0 .. 3 { access A[i, 1, 2] }", "interp: array A: "},
		{"byte-size", "param M 2147483648\narray A f64 [M, M]",
			"access A[0, 0]", "interp: array A: byte size of 4611686018427387904 elements overflows int64"},
		{"end-address", "param M 2147483648\narray A i8 [M, M]\narray B i8 [M, M]\narray C i8 [M, M]\narray D i8 [M, M]",
			"access D[0, 0]", "interp: array D: end address overflows the address space"},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := "program p\nparam N 4294967296\n" + c.decl + "\nroutine main file p.f line 1 {\n" + c.body + "\n}\n"
			info, init := parseProgram(t, src)
			_, err := interp.Run(info, nil, trace.Discard{}, initOpts(init)...)
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Fatalf("error = %v, want prefix %q", err, c.want)
			}
			if _, err := interp.Layout(info, nil); err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Fatalf("Layout error = %v, want prefix %q", err, c.want)
			}
		})
	}
}

// runWithin runs f in a goroutine and fails t if it has not returned
// within d: the programs below hung the interpreter before loops ran by
// trip count and counted iterations toward the cancellation stride.
func runWithin(t *testing.T, d time.Duration, f func() (*interp.Result, error)) (*interp.Result, error) {
	t.Helper()
	type out struct {
		res *interp.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := f()
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("run did not return within %v", d)
		return nil, nil
	}
}

func TestLoopAtInt64EdgeStops(t *testing.T) {
	for _, hi := range []string{"9223372036854775807", "9223372036854775806"} {
		info, _ := parseProgram(t, "program p\nroutine main file p.f line 1 {\n"+
			"for i = 9223372036854775800 .. "+hi+" line 2 { let x = i }\n}\n")
		for _, opts := range [][]interp.Option{nil, {interp.Checked()}} {
			res, err := runWithin(t, 10*time.Second, func() (*interp.Result, error) {
				return interp.Run(info, nil, trace.Discard{}, opts...)
			})
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(8)
			if hi != "9223372036854775807" {
				want = 7
			}
			for _, ts := range res.Trips {
				if ts.Execs != 1 || ts.Iters != want {
					t.Errorf("hi %s: trips %+v, want 1 exec of %d iterations", hi, ts, want)
				}
			}
			if len(res.Trips) != 1 {
				t.Errorf("trips = %v, want one loop", res.Trips)
			}
		}
	}
	// The widest loop a plan can meet: a negative step across the whole
	// range runs the same on both paths.
	info, _ := parseProgram(t, "program p\narray A f64 [4]\nroutine main file p.f line 1 {\n"+
		"for i = 9223372036854775807 .. -9223372036854775807 - 1 by -4611686018427387904 { access A[0], A[i - i + 3] }\n}\n")
	res, err := runBoth(t, info, nil)
	if err != nil || res.Accesses != 8 {
		t.Fatalf("accesses = %v, err = %v, want 8 accesses", res, err)
	}
}

// TestBudgetEndsInsideRun: an instance inside which the access budget
// ends runs access by access, so a run handler sees the run fail on
// the same access with the same error; the instances before it still
// arrive as runs.
func TestBudgetEndsInsideRun(t *testing.T) {
	info, _ := parseProgram(t, "program p\narray A f64 [10]\narray B f64 [4, 10]\nroutine main file p.f line 1 {\n"+
		"for j = 0 .. 3 { for i = 0 .. 9 { access A[i], B[j, i]! } }\n}\n")
	for budget := uint64(1); budget <= 80; budget++ {
		_, inRuns, err := runWays(t, info, nil, interp.WithMaxAccesses(budget))
		want := fmt.Sprintf("interp: access budget of %d exceeded", budget)
		if budget == 80 {
			want = "<nil>"
		}
		if errText(err) != want {
			t.Errorf("budget %d: error = %v, want %s", budget, err, want)
		}
		if whole := budget / 20 * 20; inRuns != whole {
			t.Errorf("budget %d: %d accesses came in runs, want the %d of the instances that fit", budget, inRuns, whole)
		}
	}
}

// TestDeadlineStopsRunUnderFanout: one loop instance of 2·10^11
// accesses that all come in runs stops by its deadline under the
// fan-out, and the fan-out's consumers, one taking runs and one not,
// have caught up within the bound of a batch's work when Close returns.
func TestDeadlineStopsRunUnderFanout(t *testing.T) {
	info, _ := parseProgram(t, "program p\narray A f64 [4]\nroutine main file p.f line 1 {\n"+
		"for i = 0 .. 100000000000 line 2 { access A[i - i], A[3]! }\n}\n")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	eng := reusedist.New(reusedist.Config{BlockBits: 7})
	var count trace.Counter
	start := time.Now()
	res, err := runWithin(t, 5*time.Second, func() (*interp.Result, error) {
		f := pipeline.NewFanout(eng, &count)
		res, err := interp.RunContext(ctx, info, nil, f)
		if cerr := f.Close(); cerr != nil {
			t.Errorf("fan-out: %v", cerr)
		}
		return res, err
	})
	if !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("result %v, error = %v, want context.DeadlineExceeded", res, err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("returned after %v, want within 1s", el)
	}
	if count.Accesses == 0 || eng.Clock() != count.Accesses {
		t.Errorf("consumers saw %d and %d accesses, want the same nonzero count", eng.Clock(), count.Accesses)
	}
}

func TestDeadlineStopsAccessFreeLoop(t *testing.T) {
	info, _ := parseProgram(t, "program p\nroutine main file p.f line 1 {\n"+
		"for i = 0 .. 100000000000 line 2 { let x = i }\n}\n")
	for _, opts := range [][]interp.Option{nil, {interp.Checked()}} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, err := runWithin(t, 5*time.Second, func() (*interp.Result, error) {
			return interp.RunContext(ctx, info, nil, trace.Discard{}, opts...)
		})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error = %v, want context.DeadlineExceeded", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("returned after %v, want within 1s", el)
		}
	}
}
