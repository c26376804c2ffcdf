package ir

import (
	"fmt"
	"sort"

	"reusetool/internal/scope"
	"reusetool/internal/trace"
)

// Program is a complete workload description.
type Program struct {
	Name     string
	Arrays   []*Array
	Routines []*Routine
	// Main is the entry routine; it must be one of Routines.
	Main *Routine
	// Defaults holds default parameter values, overridable at run time.
	Defaults map[string]int64

	vars map[string]*Var
}

// NewProgram creates an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Defaults: map[string]int64{}, vars: map[string]*Var{}}
}

// Var interns the variable with the given name. All variables of a program
// share one namespace; loops keep private iteration counters, so reusing a
// name across routines is safe.
func (p *Program) Var(name string) *Var {
	if v, ok := p.vars[name]; ok {
		return v
	}
	v := &Var{Name: name, slot: -1}
	p.vars[name] = v
	return v
}

// Param interns a variable and records its default value.
func (p *Program) Param(name string, def int64) *Var {
	v := p.Var(name)
	p.Defaults[name] = def
	return v
}

// AddArray declares an array with the given element size and extents
// (innermost dimension first) and returns it.
func (p *Program) AddArray(name string, elem int64, dims ...Expr) *Array {
	a := &Array{Name: name, Elem: elem, Dims: dims, idx: len(p.Arrays)}
	p.Arrays = append(p.Arrays, a)
	return a
}

// AddDataArray declares an integer-content array readable through Load.
func (p *Program) AddDataArray(name string, elem int64, dims ...Expr) *Array {
	a := p.AddArray(name, elem, dims...)
	a.Data = true
	return a
}

// AddRoutine declares a routine and returns it. The first routine added
// becomes Main unless overridden.
func (p *Program) AddRoutine(name, file string, line int) *Routine {
	r := &Routine{Name: name, File: file, Line: line}
	p.Routines = append(p.Routines, r)
	if p.Main == nil {
		p.Main = r
	}
	return r
}

// Info is the finalized form of a Program: scope tree built, reference and
// variable slots assigned, per-reference loop nests recorded.
type Info struct {
	Prog   *Program
	Scopes *scope.Tree
	// Refs is indexed by trace.RefID.
	Refs []*Ref
	// RefLoops gives, per reference, the enclosing loops innermost first.
	RefLoops [][]*Loop
	// LoopByScope maps loop scope IDs back to their loops.
	LoopByScope map[trace.ScopeID]*Loop
	// NumSlots is the size of the interpreter's variable frame.
	NumSlots int

	paramSlot map[string]int
	seenRefs  map[*Ref]bool
}

// Finalize validates the program, builds its static scope tree, and
// assigns reference IDs and variable slots.
func (p *Program) Finalize() (*Info, error) {
	if p.Main == nil {
		return nil, fmt.Errorf("ir: program %q has no main routine", p.Name)
	}
	info := &Info{
		Prog:        p,
		Scopes:      scope.NewTree(p.Name),
		LoopByScope: map[trace.ScopeID]*Loop{},
		paramSlot:   map[string]int{},
		seenRefs:    map[*Ref]bool{},
	}

	// Deterministic variable slot assignment.
	names := make([]string, 0, len(p.vars))
	for n := range p.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		p.vars[n].slot = i
		info.paramSlot[n] = i
	}
	info.NumSlots = len(names)

	// File scopes.
	fileScope := map[string]trace.ScopeID{}
	for _, r := range p.Routines {
		if _, ok := fileScope[r.File]; !ok {
			fileScope[r.File] = info.Scopes.Add(info.Scopes.Root(), scope.KindFile, r.File, 0)
		}
	}

	seenRoutine := map[string]bool{}
	for _, r := range p.Routines {
		if seenRoutine[r.Name] {
			return nil, fmt.Errorf("ir: duplicate routine %q", r.Name)
		}
		seenRoutine[r.Name] = true
		r.scope = info.Scopes.Add(fileScope[r.File], scope.KindRoutine, r.Name, r.Line)
		if err := info.finalizeBody(p, r.Body, r.scope, nil); err != nil {
			return nil, fmt.Errorf("ir: routine %q: %w", r.Name, err)
		}
	}
	return info, nil
}

func (info *Info) finalizeBody(p *Program, body []Stmt, parent trace.ScopeID, loops []*Loop) error {
	for _, s := range body {
		switch st := s.(type) {
		case *Loop:
			if st.Var == nil {
				return fmt.Errorf("loop without variable")
			}
			if err := checkVars(p, st.Lo, st.Hi, st.Step); err != nil {
				return err
			}
			step, ok := st.Step.(Const)
			if !ok || step == 0 {
				return fmt.Errorf("loop %s: step must be a nonzero constant, got %v", st.Var.Name, st.Step)
			}
			st.scope = info.Scopes.Add(parent, scope.KindLoop, st.Var.Name, st.Line)
			if st.TimeStep {
				info.Scopes.MarkTimeStep(st.scope)
			}
			info.LoopByScope[st.scope] = st
			if err := info.finalizeBody(p, st.Body, st.scope, append(loops, st)); err != nil {
				return err
			}
		case *Let:
			if st.Var == nil {
				return fmt.Errorf("let without variable")
			}
			if err := checkVars(p, st.E); err != nil {
				return err
			}
		case *If:
			if err := checkVars(p, st.Cond.L, st.Cond.R); err != nil {
				return err
			}
			if err := info.finalizeBody(p, st.Then, parent, loops); err != nil {
				return err
			}
			if err := info.finalizeBody(p, st.Else, parent, loops); err != nil {
				return err
			}
		case *Access:
			for _, ref := range st.Refs {
				if ref.Array == nil {
					return fmt.Errorf("reference without array")
				}
				if len(ref.Index) != ref.Array.Rank() {
					return fmt.Errorf("reference %s: %d subscripts for rank-%d array",
						ref.Array.Name, len(ref.Index), ref.Array.Rank())
				}
				if err := checkVars(p, ref.Index...); err != nil {
					return err
				}
				if info.seenRefs[ref] {
					return fmt.Errorf("reference %s used in two statements", ref.Name())
				}
				info.seenRefs[ref] = true
				ref.id = trace.RefID(len(info.Refs))
				ref.scope = parent
				info.Refs = append(info.Refs, ref)
				nest := make([]*Loop, len(loops))
				// Innermost first.
				for i := range loops {
					nest[i] = loops[len(loops)-1-i]
				}
				info.RefLoops = append(info.RefLoops, nest)
			}
		case *Call:
			if st.Callee == nil {
				return fmt.Errorf("call without callee")
			}
			found := false
			for _, r := range p.Routines {
				if r == st.Callee {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("call to routine %q not in program", st.Callee.Name)
			}
		default:
			return fmt.Errorf("unknown statement %T", s)
		}
	}
	return nil
}

// checkVars verifies every Var in the expressions is interned in p (and
// thus has a slot), including under Loads.
func checkVars(p *Program, exprs ...Expr) error {
	for _, e := range exprs {
		if e == nil {
			return fmt.Errorf("nil expression")
		}
		var err error
		WalkExpr(e, func(x Expr) {
			if v, ok := x.(*Var); ok {
				if p.vars[v.Name] != v {
					err = fmt.Errorf("variable %q not created through Program.Var", v.Name)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// WalkExpr calls f on e and all its subexpressions.
func WalkExpr(e Expr, f func(Expr)) {
	f(e)
	switch x := e.(type) {
	case *Bin:
		WalkExpr(x.L, f)
		WalkExpr(x.R, f)
	case *Load:
		for _, idx := range x.Index {
			WalkExpr(idx, f)
		}
	}
}

// Mentions reports whether e reads the variable name.
func Mentions(e Expr, name string) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if v, ok := x.(*Var); ok && v.Name == name {
			found = true
		}
	})
	return found
}

// Slot returns the interpreter frame slot of v (valid after Finalize).
func (v *Var) Slot() int { return v.slot }

// ParamSlot returns the frame slot for a parameter name, or -1.
func (info *Info) ParamSlot(name string) int {
	if s, ok := info.paramSlot[name]; ok {
		return s
	}
	return -1
}

// Name identifies the program (metrics.Source).
func (info *Info) Name() string { return info.Prog.Name }

// Tree returns the static scope tree (metrics.Source).
func (info *Info) Tree() *scope.Tree { return info.Scopes }

// RefLabel renders a reference and names its array (metrics.Source).
func (info *Info) RefLabel(id trace.RefID) (refName, arrayName string, ok bool) {
	r := info.Ref(id)
	if r == nil {
		return "", "", false
	}
	return r.Name(), r.Array.Name, true
}

// Ref returns the reference with the given ID, or nil.
func (info *Info) Ref(id trace.RefID) *Ref {
	if id < 0 || int(id) >= len(info.Refs) {
		return nil
	}
	return info.Refs[id]
}

// LoopsOf returns the enclosing loops of ref, innermost first.
func (info *Info) LoopsOf(id trace.RefID) []*Loop {
	if id < 0 || int(id) >= len(info.RefLoops) {
		return nil
	}
	return info.RefLoops[id]
}
