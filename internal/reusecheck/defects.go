package reusecheck

import (
	"fmt"

	"reusetool/internal/ir"
)

// defects runs the program-level defect checks: provably empty loops,
// provably out-of-bounds subscripts, data arrays read through a load but
// never written or initialized, and parameters no expression uses. Every
// finding is provable for the bound parameters: the checks stay silent
// whenever bounds are triangular, accesses are guarded, or subscripts
// are not affine (depend.Analysis.Span).
func defects(w *walker, opts Options) []Diagnostic {
	info := w.info
	var out []Diagnostic
	report := func(file string, line int, code, msg string) {
		out = append(out, Diagnostic{File: file, Line: line, Code: code, Severity: SevDefect, Msg: msg})
	}

	for _, el := range w.deps.EmptyLoops() {
		report(w.fileOf(el.Routine), el.Loop.Line, "empty-loop",
			fmt.Sprintf("loop %s from %s to %s by %d never executes",
				el.Loop.Var.Name, el.Lo, el.Hi, loopStep(el.Loop)))
	}

	for _, ref := range info.Refs {
		for d := range ref.Index {
			lo, hi, ext, ok := w.deps.Span(ref.ID(), d)
			if ok && (lo < 0 || hi > ext-1) {
				report(w.fileOf(w.facts[ref.ID()].routine), ref.Line, "oob",
					fmt.Sprintf("subscript %d of %s spans [%d,%d], outside [0,%d]", d, ref.Name(), lo, hi, ext-1))
			}
		}
	}

	if !opts.AssumeInitialized {
		for arr, site := range uninitData(info, opts, w.fileOf) {
			report(site.file, site.line, "uninit-data",
				fmt.Sprintf("data array %q is read through load but never written or initialized", arr.Name))
		}
	}

	used := map[string]bool{}
	markVars := func(e ir.Expr, _ int) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if v, ok := x.(*ir.Var); ok {
				used[v.Name] = true
			}
		})
	}
	for _, rt := range info.Prog.Routines {
		eachExpr(rt.Body, markVars)
	}
	for _, arr := range info.Prog.Arrays {
		for _, dim := range arr.Dims {
			markVars(dim, 0)
		}
	}
	for name := range info.Prog.Defaults {
		if !used[name] {
			report(w.fileOf(nil), opts.ParamLines[name], "unused-param",
				fmt.Sprintf("parameter %q is declared but never used", name))
		}
	}
	return out
}

// site is a source position.
type site struct {
	file string
	line int
}

// uninitData returns, for each data array read through a load with no
// write reference and no init declaration, the position of its first
// load.
func uninitData(info *ir.Info, opts Options, fileOf func(*ir.Routine) string) map[*ir.Array]site {
	written := map[*ir.Array]bool{}
	for _, r := range info.Refs {
		if r.Write {
			written[r.Array] = true
		}
	}
	firstLoad := map[*ir.Array]site{}
	for _, rt := range info.Prog.Routines {
		file := fileOf(rt)
		eachExpr(rt.Body, func(e ir.Expr, line int) {
			ir.WalkExpr(e, func(x ir.Expr) {
				ld, ok := x.(*ir.Load)
				if !ok {
					return
				}
				ln := ld.Line
				if ln == 0 {
					ln = line
				}
				if _, seen := firstLoad[ld.Array]; !seen {
					firstLoad[ld.Array] = site{file: file, line: ln}
				}
			})
		})
	}
	for arr := range firstLoad {
		if !arr.Data || written[arr] || opts.Initialized[arr] {
			delete(firstLoad, arr)
		}
	}
	return firstLoad
}

// eachExpr visits every expression in a statement body with the line
// of its carrying statement as fallback position.
func eachExpr(body []ir.Stmt, f func(e ir.Expr, line int)) {
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Loop:
			f(st.Lo, st.Line)
			f(st.Hi, st.Line)
			f(st.Step, st.Line)
			eachExpr(st.Body, f)
		case *ir.Let:
			f(st.E, st.Line)
		case *ir.If:
			f(st.Cond.L, 0)
			f(st.Cond.R, 0)
			eachExpr(st.Then, f)
			eachExpr(st.Else, f)
		case *ir.Access:
			for _, r := range st.Refs {
				for _, idx := range r.Index {
					f(idx, r.Line)
				}
			}
		}
	}
}
