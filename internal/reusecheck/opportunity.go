package reusecheck

import (
	"fmt"

	"reusetool/internal/cache"
	"reusetool/internal/depend"
	"reusetool/internal/histo"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/metrics"
	"reusetool/internal/staticreuse"
	"reusetool/internal/symbolic"
	"reusetool/internal/trace"
)

// Analyses are what the report path reads besides the IR and the
// layout, each for the program at Options.Params. A caller that already
// holds one hands it to Opportunities; each nil field is computed the
// way Check computes it.
type Analyses struct {
	// Deps is the program's dependence analysis (depend.Analyze), which
	// the walker and the opportunity detectors both read.
	Deps *depend.Analysis
	// Estimate is a static estimate on Options.Hier and Report its
	// report, handed over together and only when RanksWith accepts the
	// resolution and model they were built with. The ranking reads only
	// Options.Level of them, so when they are nil it estimates that
	// level alone.
	Estimate *staticreuse.Result
	Report   *metrics.Report
}

// missModel is the static miss prediction the opportunity detectors
// rank with: per-(reference, carrying-scope) pattern misses and
// per-reference totals at one cache level, from the same
// staticreuse -> metrics pipeline the -static mode runs.
type missModel struct {
	level      string
	blockBytes int64
	patterns   map[patternKey]float64
	byRef      map[trace.RefID]float64
	refTotal   func(trace.RefID) float64
	ok         bool
}

type patternKey struct {
	ref   trace.RefID
	carry trace.ScopeID
}

// The ranking predicts misses with a static estimate at rankRes and its
// report under rankModel. It always estimates at the default resolution,
// whatever resolution the analysis it accompanies was run at.
const (
	rankRes   = histo.DefaultResolution
	rankModel = metrics.SetAssoc
)

// RanksWith reports whether an estimate at histogram resolution histRes
// (0 = the default) and its report under model are exactly what the
// ranking computes for itself, so they may be handed over in Analyses.
func RanksWith(histRes int, model metrics.Model) bool {
	return model == rankModel && (histRes == 0 || histRes == rankRes)
}

// estimate runs the static estimate the ranking predicts misses with and
// builds its report; both are nil when either fails or the hierarchy has
// no level opts.Level. It estimates the ranked level alone: a block
// size's estimate and a level's report depend on no other level, so the
// rest of the hierarchy would change nothing the ranking reads.
func estimate(info *ir.Info, opts Options) (*staticreuse.Result, *metrics.Report) {
	lvl := opts.Hier.Level(opts.Level)
	if lvl == nil {
		return nil, nil
	}
	ranked := *opts.Hier
	ranked.Levels = []cache.Level{*lvl}
	est, err := staticreuse.Estimate(info, &ranked, staticreuse.Options{Params: opts.Params, HistRes: rankRes})
	if err != nil {
		return nil, nil
	}
	rep, err := metrics.Build(info, est.Collector, est.Static, &ranked, rankModel)
	if err != nil {
		return nil, nil
	}
	return est, rep
}

// buildMissModel reads the ranking's miss model at opts.Level from a
// static estimate and its report. Without a report the model is empty
// and every miss delta is zero.
func buildMissModel(est *staticreuse.Result, rep *metrics.Report, opts Options) missModel {
	m := missModel{level: opts.Level, patterns: map[patternKey]float64{}, byRef: map[trace.RefID]float64{}}
	lvl := opts.Hier.Level(opts.Level)
	if lvl == nil {
		return m
	}
	m.blockBytes = int64(lvl.LineSize())
	if rep == nil {
		return m
	}
	lr := rep.Level(opts.Level)
	if lr == nil {
		return m
	}
	for _, p := range lr.Patterns {
		m.patterns[patternKey{ref: p.Ref, carry: p.Carrying}] += p.Misses
	}
	for id, misses := range lr.MissesByRef {
		m.byRef[id] = misses
	}
	m.refTotal = est.Stats.RefTotal
	m.ok = true
	return m
}

// opportunities runs the three opportunity detectors over the walker's
// reference facts: loop-invariant loads, redundant region re-sweeps,
// and layout-mismatched access orders. Each diagnostic carries the
// predicted miss reduction and the legality verdict of the fixing
// transformation, from the walker's dependence analysis. Without a
// static estimate and its report it estimates the ranked level itself.
func opportunities(w *walker, est *staticreuse.Result, rep *metrics.Report, opts Options) []Diagnostic {
	info, deps, fileOf := w.info, w.deps, w.fileOf
	mach, err := interp.Layout(info, deps.Params)
	if err != nil {
		return nil // no layout, no address forms: defects-only degraded mode
	}
	if est == nil {
		est, rep = estimate(info, opts)
	}
	model := buildMissModel(est, rep, opts)

	strideCache := map[*ir.Array][]int64{}
	stridesOf := func(a *ir.Array) []int64 {
		if s, ok := strideCache[a]; ok {
			return s
		}
		s := make([]int64, a.Rank())
		for d := range s {
			s[d] = mach.ArrayStride(a, d)
		}
		strideCache[a] = s
		return s
	}

	var out []Diagnostic
	for id := range info.Refs {
		fact := w.facts[id]
		if fact == nil || fact.dead || fact.guarded || len(fact.nest) == 0 {
			continue
		}
		ref := fact.ref
		addr := symbolic.RefAddress(&ir.Ref{Array: ref.Array, Index: deps.Subscripts(ref.ID())}, stridesOf(ref.Array))
		strides := make([]symbolic.Stride, len(fact.nest))
		for i, l := range fact.nest {
			strides[i] = symbolic.StrideWRT(addr, l.Var.Name, loopStep(l))
		}
		innermost := fact.nest[len(fact.nest)-1]
		inner := strides[len(strides)-1]

		if d, ok := invariantLoad(w, model, deps, fact, innermost, inner, fileOf); ok {
			out = append(out, d)
		}
		if d, ok := redundantRegion(w, model, deps, fact, strides, fileOf); ok {
			out = append(out, d)
		}
		if d, ok := layoutMismatch(model, deps, fact, strides, inner, fileOf); ok {
			out = append(out, d)
		}
	}
	return out
}

func loopStep(l *ir.Loop) int64 { return int64(l.Step.(ir.Const)) }

// invariantLoad flags reads whose address does not vary with the
// innermost loop: the value can be hoisted into a scalar before the
// loop, eliminating every repeated touch the loop carries.
func invariantLoad(w *walker, model missModel, deps *depend.Analysis, fact *refFact,
	innermost *ir.Loop, inner symbolic.Stride, fileOf func(*ir.Routine) string) (Diagnostic, bool) {

	if fact.ref.Write || inner.Class != symbolic.StrideZero {
		return Diagnostic{}, false
	}
	if !w.loops[innermost].trips2 {
		return Diagnostic{}, false // a one-trip loop gains nothing
	}
	legality, note := hoistVerdict(deps, fact.ref, innermost)
	return Diagnostic{
		File:     fileOf(fact.routine),
		Line:     fact.ref.Line,
		Code:     "invariant-load",
		Severity: SevOpportunity,
		Msg: fmt.Sprintf("%s is invariant in innermost loop %s (line %d)",
			fact.ref.Name(), innermost.Var.Name, innermost.Line),
		Hint:         fmt.Sprintf("hoist the load into a scalar before the %s loop", innermost.Var.Name),
		MissDelta:    model.patterns[patternKey{ref: fact.ref.ID(), carry: innermost.Scope()}],
		Level:        model.level,
		Transform:    "hoist",
		Legality:     legality.String(),
		LegalityNote: note,
	}, true
}

// hoistVerdict decides whether hoisting a load out of a loop preserves
// the values read: legal unless some write to the same array may touch
// the loaded region during the loop's execution — i.e. the dependence
// analyzer reports a non-input dependence with the loop among its
// common nest.
func hoistVerdict(deps *depend.Analysis, ref *ir.Ref, loop *ir.Loop) (depend.Legality, string) {
	verdict := depend.Legal
	note := "no write aliases the loaded region inside the loop"
	for _, d := range deps.Deps {
		if d.Src != ref && d.Dst != ref {
			continue
		}
		if d.Kind == depend.Input {
			continue
		}
		if !loopIn(d.Loops, loop) {
			continue
		}
		if d.Unknown {
			if verdict == depend.Legal {
				verdict = depend.LegalityUnknown
				note = fmt.Sprintf("undecided dependence: %s", d)
			}
			continue
		}
		return depend.Illegal, fmt.Sprintf("blocked by %s", d)
	}
	return verdict, note
}

func loopIn(loops []*ir.Loop, l *ir.Loop) bool {
	for _, x := range loops {
		if x == l {
			return true
		}
	}
	return false
}

// redundantRegion flags reads that re-sweep an identical array region
// on every iteration of an outer loop (the address is independent of
// that loop while inner loops still move it): the paper's Table I
// temporal-reuse targets. Only the outermost such loop is reported.
func redundantRegion(w *walker, model missModel, deps *depend.Analysis, fact *refFact,
	strides []symbolic.Stride, fileOf func(*ir.Routine) string) (Diagnostic, bool) {

	if fact.ref.Write {
		return Diagnostic{}, false
	}
	for i := 0; i < len(fact.nest)-1; i++ {
		if strides[i].Class != symbolic.StrideZero {
			continue
		}
		carrier := fact.nest[i]
		if !w.loops[carrier].trips2 {
			continue
		}
		moving := false
		for j := i + 1; j < len(fact.nest); j++ {
			if !(strides[j].Class == symbolic.StrideZero ||
				(strides[j].Class == symbolic.StrideConst && strides[j].Bytes == 0)) {
				moving = true
				break
			}
		}
		if !moving {
			continue // fully invariant below this loop: invariant-load's case
		}
		var verdict depend.Verdict
		transform := "interchange"
		hint := fmt.Sprintf("interchange or block so the region is reused while cache-resident instead of once per %s iteration", carrier.Var.Name)
		if carrier.TimeStep {
			transform = "time-skew"
			hint = "time-skew (block across time steps) to shorten the reuse distance"
			verdict = deps.TimeSkew(carrier)
		} else {
			verdict = deps.Interchange(carrier)
		}
		return Diagnostic{
			File:     fileOf(fact.routine),
			Line:     fact.ref.Line,
			Code:     "redundant-region",
			Severity: SevOpportunity,
			Msg: fmt.Sprintf("%s re-reads the same region on every iteration of loop %s (line %d)",
				fact.ref.Name(), carrier.Var.Name, carrier.Line),
			Hint:         hint,
			MissDelta:    model.patterns[patternKey{ref: fact.ref.ID(), carry: carrier.Scope()}],
			Level:        model.level,
			Transform:    transform,
			Legality:     verdict.Legality.String(),
			LegalityNote: verdict.Note,
		}, true
	}
	return Diagnostic{}, false
}

// layoutMismatch flags references whose innermost loop walks a stride
// of at least a cache block while another loop of the nest walks a
// smaller constant stride: the access order fights the memory layout,
// and interchanging the small-stride loop inward (or transposing the
// array) turns one miss per access into one miss per block.
func layoutMismatch(model missModel, deps *depend.Analysis, fact *refFact,
	strides []symbolic.Stride, inner symbolic.Stride, fileOf func(*ir.Routine) string) (Diagnostic, bool) {

	if inner.Class != symbolic.StrideConst || model.blockBytes == 0 || abs64(inner.Bytes) < model.blockBytes {
		return Diagnostic{}, false
	}
	best := -1
	for i := 0; i < len(fact.nest)-1; i++ {
		s := strides[i]
		if s.Class != symbolic.StrideConst || s.Bytes == 0 {
			continue
		}
		if abs64(s.Bytes) >= model.blockBytes || abs64(s.Bytes) >= abs64(inner.Bytes) {
			continue
		}
		if best < 0 || abs64(s.Bytes) < abs64(strides[best].Bytes) {
			best = i
		}
	}
	if best < 0 {
		return Diagnostic{}, false
	}
	target := fact.nest[best]
	innermost := fact.nest[len(fact.nest)-1]
	verdict := deps.Interchange(target)

	var delta float64
	if model.ok {
		ideal := model.refTotal(fact.ref.ID()) * float64(abs64(strides[best].Bytes)) / float64(model.blockBytes)
		if d := model.byRef[fact.ref.ID()] - ideal; d > 0 {
			delta = d
		}
	}
	return Diagnostic{
		File:     fileOf(fact.routine),
		Line:     fact.ref.Line,
		Code:     "layout-mismatch",
		Severity: SevOpportunity,
		Msg: fmt.Sprintf("%s walks a %d-byte stride in innermost loop %s while loop %s strides %d bytes",
			fact.ref.Name(), inner.Bytes, innermost.Var.Name, target.Var.Name, strides[best].Bytes),
		Hint: fmt.Sprintf("interchange the %s loop innermost (or transpose %s's dimensions)",
			target.Var.Name, fact.ref.Array.Name),
		MissDelta:    delta,
		Level:        model.level,
		Transform:    "interchange",
		Legality:     verdict.Legality.String(),
		LegalityNote: verdict.Note,
	}, true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
