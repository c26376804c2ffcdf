package staticreuse

import (
	"math"

	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/trace"
)

// Stats holds the execution-count estimates the static estimator derives
// by walking the program once with parameters bound: per-loop trip counts,
// per-reference access totals, and the dominant dynamic loop chain each
// routine executes under. It is the static stand-in for interp.Result.
type Stats struct {
	// tripSum/execs accumulate weighted per-execution trip counts per loop
	// scope; Trips() reports their ratio.
	tripSum map[trace.ScopeID]float64
	execs   map[trace.ScopeID]float64
	// refTotal is the estimated number of accesses per reference.
	refTotal map[trace.RefID]float64
	// refOrder is a flattened pre-order index per reference, used to order
	// same-iteration accesses.
	refOrder map[trace.RefID]int
	// orderedRefs lists references by ascending refOrder.
	orderedRefs []trace.RefID
	// chain is the dominant dynamic loop chain (innermost first) each
	// routine's body executes under: empty for main, the loops around the
	// hottest call site otherwise.
	chain map[*ir.Routine][]*ir.Loop
	// chainMult is the multiplicity at which that chain was recorded.
	chainMult map[*ir.Routine]float64
	// routineOf maps a routine scope back to its routine.
	routineOf map[trace.ScopeID]*ir.Routine
	// Approx is set when the walk hit something it could only guess at
	// (unknown loop bounds, undecidable branches, recursion).
	Approx bool
}

// Trips reports the average per-execution trip count of the loop at scope
// s, or def if the loop was never reached.
func (st *Stats) Trips(s trace.ScopeID, def float64) float64 {
	e := st.execs[s]
	if e <= 0 {
		return def
	}
	return st.tripSum[s] / e
}

// RefTotal reports the estimated access count of a reference.
func (st *Stats) RefTotal(id trace.RefID) float64 { return st.refTotal[id] }

// Order reports the flattened program order index of a reference.
func (st *Stats) Order(id trace.RefID) int { return st.refOrder[id] }

// Chain returns the dominant dynamic loop chain of the routine containing
// the given scope, innermost first (empty for main).
func (st *Stats) Chain(info *ir.Info, s trace.ScopeID) []*ir.Loop {
	rs := info.Scopes.EnclosingRoutine(s)
	if r, ok := st.routineOf[rs]; ok {
		return st.chain[r]
	}
	return nil
}

// walker evaluates the program approximately: parameters are bound, loop
// variables take their midpoint value inside the loop body, Let bindings
// are folded when their right-hand side is computable, and branches are
// taken when their condition is decidable (split evenly otherwise).
type walker struct {
	st    *Stats
	env   map[string]float64
	known map[string]bool
	depth int
}

const maxCallDepth = 64

// collectStats walks the finalized program from main with the given
// machine's parameter bindings.
func collectStats(info *ir.Info, mach *interp.Machine) *Stats {
	st := &Stats{
		tripSum:   map[trace.ScopeID]float64{},
		execs:     map[trace.ScopeID]float64{},
		refTotal:  map[trace.RefID]float64{},
		refOrder:  map[trace.RefID]int{},
		chain:     map[*ir.Routine][]*ir.Loop{},
		chainMult: map[*ir.Routine]float64{},
		routineOf: map[trace.ScopeID]*ir.Routine{},
	}
	for _, r := range info.Prog.Routines {
		st.routineOf[r.Scope()] = r
	}
	// Flattened pre-order reference indices (routines in declaration
	// order; calls do not re-enter).
	idx := 0
	var number func(body []ir.Stmt)
	number = func(body []ir.Stmt) {
		for _, s := range body {
			switch x := s.(type) {
			case *ir.Loop:
				number(x.Body)
			case *ir.If:
				number(x.Then)
				number(x.Else)
			case *ir.Access:
				for _, ref := range x.Refs {
					st.refOrder[ref.ID()] = idx
					st.orderedRefs = append(st.orderedRefs, ref.ID())
					idx++
				}
			}
		}
	}
	for _, r := range info.Prog.Routines {
		number(r.Body)
	}

	w := &walker{st: st, env: map[string]float64{}, known: map[string]bool{}}
	for name := range info.Prog.Defaults {
		w.env[name] = float64(mach.Param(name))
		w.known[name] = true
	}
	w.walkBody(info.Prog.Main.Body, 1, nil)
	return st
}

func (w *walker) walkBody(body []ir.Stmt, mult float64, loops []*ir.Loop) {
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Loop:
			w.walkLoop(st, mult, loops)
		case *ir.Let:
			if v, ok := w.eval(st.E); ok {
				w.env[st.Var.Name] = v
				w.known[st.Var.Name] = true
			} else {
				w.known[st.Var.Name] = false
				w.st.Approx = true
			}
		case *ir.If:
			l, lok := w.eval(st.Cond.L)
			r, rok := w.eval(st.Cond.R)
			if lok && rok {
				if st.Cond.Holds(int64(math.Round(l)), int64(math.Round(r))) {
					w.walkBody(st.Then, mult, loops)
					w.walkBody(st.Else, 0, loops)
				} else {
					w.walkBody(st.Then, 0, loops)
					w.walkBody(st.Else, mult, loops)
				}
			} else {
				w.st.Approx = true
				w.walkBody(st.Then, mult/2, loops)
				w.walkBody(st.Else, mult/2, loops)
			}
		case *ir.Access:
			for _, ref := range st.Refs {
				w.st.refTotal[ref.ID()] += mult
			}
		case *ir.Call:
			if w.depth >= maxCallDepth {
				w.st.Approx = true
				continue
			}
			if mult > w.st.chainMult[st.Callee] {
				w.st.chainMult[st.Callee] = mult
				w.st.chain[st.Callee] = append([]*ir.Loop(nil), loops...)
			}
			w.depth++
			w.walkBody(st.Callee.Body, mult, loops)
			w.depth--
		}
	}
}

func (w *walker) walkLoop(l *ir.Loop, mult float64, loops []*ir.Loop) {
	lo, lok := w.eval(l.Lo)
	hi, hok := w.eval(l.Hi)
	step := float64(l.Step.(ir.Const))
	trip := 1.0
	if lok && hok {
		trip = math.Floor((hi-lo)/step) + 1
		if trip < 0 {
			trip = 0
		}
	} else {
		w.st.Approx = true
	}
	sc := l.Scope()
	w.st.execs[sc] += mult
	w.st.tripSum[sc] += mult * trip

	name := l.Var.Name
	oldV, oldK := w.env[name], w.known[name]
	if lok && hok && trip > 0 {
		w.env[name] = (lo + lo + step*(trip-1)) / 2 // midpoint of visited values
		w.known[name] = true
	} else {
		w.known[name] = false
	}
	// Loops with zero estimated trips still get walked (at zero weight) so
	// inner structure is recorded.
	w.walkBody(l.Body, mult*trip, append([]*ir.Loop{l}, loops...))
	if lok && hok && trip > 0 {
		// After the loop the variable holds the last value it ran
		// with, as in the interpreter.
		w.env[name] = lo + step*(trip-1)
		w.known[name] = true
	} else {
		w.env[name], w.known[name] = oldV, oldK
	}
}

// eval approximately evaluates an expression under the current bindings.
func (w *walker) eval(e ir.Expr) (float64, bool) {
	switch x := e.(type) {
	case ir.Const:
		return float64(x), true
	case *ir.Var:
		if w.known[x.Name] {
			return w.env[x.Name], true
		}
		return 0, false
	case *ir.Bin:
		l, lok := w.eval(x.L)
		r, rok := w.eval(x.R)
		if !lok || !rok {
			return 0, false
		}
		switch x.Op {
		case ir.OpAdd:
			return l + r, true
		case ir.OpSub:
			return l - r, true
		case ir.OpMul:
			return l * r, true
		case ir.OpDiv:
			if r == 0 {
				return 0, false
			}
			return math.Trunc(l / r), true
		case ir.OpMod:
			if r == 0 {
				return 0, false
			}
			return math.Mod(l, r), true
		case ir.OpMin:
			return math.Min(l, r), true
		case ir.OpMax:
			return math.Max(l, r), true
		}
		return 0, false
	case *ir.Load:
		// Data-dependent value: unknown statically.
		return 0, false
	}
	return 0, false
}
