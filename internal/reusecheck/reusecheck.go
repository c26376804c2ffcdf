// Package reusecheck statically pinpoints reuse defects and
// missed-reuse opportunities in finalized IR programs.
//
// It layers a small dataflow/abstract-interpretation framework over the
// structured IR — interval analysis on loop bounds and affine
// subscripts (interval.go, over internal/symbolic's interval domain),
// plus a one-pass reaching-store and available-region walk per loop
// nest (walk.go) — on top of the facts of one internal/depend analysis
// (substituted subscripts, empty loops, exact subscript spans), and
// uses them to power a diagnostic suite:
//
//	oob              a subscript provably leaves its extent (defect)
//	uninit-data      a data array is read but never written or
//	                 initialized (defect)
//	unused-param     a declared parameter is never used (defect)
//	empty-loop       a loop provably never executes (defect)
//	dead-store       a stored value is overwritten before any read (defect)
//	dead-guard       an If condition is provably constant (defect)
//	invariant-load   a load does not vary with its innermost loop:
//	                 hoistable into a scalar (opportunity)
//	redundant-region a read re-sweeps an identical array region on every
//	                 iteration of an outer loop (opportunity)
//	layout-mismatch  the innermost loop walks a large stride while another
//	                 nest loop walks a small one (opportunity)
//	bounds-proved    every subscript is provably within the array extent
//	                 (note)
//
// Every opportunity is ranked by the predicted miss reduction obtained
// from internal/staticreuse + internal/metrics at one cache level, and
// cross-checked against internal/depend for the legality of the fixing
// transformation, so output reads "saves ~N L2 misses, interchange
// legal".
package reusecheck

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"reusetool/internal/cache"
	"reusetool/internal/depend"
	"reusetool/internal/ir"
)

// Severity classifies a diagnostic.
type Severity uint8

// Severities. Defects and opportunities count as findings (nonzero
// checker exit); notes are informational.
const (
	SevDefect Severity = iota
	SevOpportunity
	SevNote
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevDefect:
		return "defect"
	case SevOpportunity:
		return "opportunity"
	case SevNote:
		return "note"
	}
	return "?"
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "defect":
		*s = SevDefect
	case "opportunity":
		*s = SevOpportunity
	case "note":
		*s = SevNote
	default:
		return fmt.Errorf("reusecheck: unknown severity %q", name)
	}
	return nil
}

// Diagnostic is one finding, anchored to a source position. Opportunity
// diagnostics additionally carry the predicted miss reduction at one
// cache level, the transformation that realizes it, and the dependence
// analyzer's legality verdict for that transformation.
type Diagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Msg      string   `json:"msg"`
	// Hint is a fix-it suggestion.
	Hint string `json:"hint,omitempty"`
	// MissDelta is the predicted miss reduction at Level (opportunities).
	MissDelta float64 `json:"miss_delta,omitempty"`
	Level     string  `json:"level,omitempty"`
	// Transform names the transformation the hint proposes ("hoist",
	// "interchange", "time-skew").
	Transform string `json:"transform,omitempty"`
	// Legality is the depend verdict on Transform: "legal", "illegal" or
	// "unknown".
	Legality     string `json:"legality,omitempty"`
	LegalityNote string `json:"legality_note,omitempty"`
}

// String renders the diagnostic in file:line: style, with the ranked
// opportunity suffix the paper's workflow reads: "saves ~N L2 misses,
// interchange legal".
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.Code, d.Msg)
	if d.Severity == SevOpportunity {
		s += fmt.Sprintf(" [saves ~%.0f %s misses, %s %s]", d.MissDelta, d.Level, d.Transform, d.Legality)
	}
	if d.Hint != "" {
		s += " (fix: " + d.Hint + ")"
	}
	return s
}

// Options configures a check run.
type Options struct {
	// Params overrides default parameter values.
	Params map[string]int64
	// Initialized marks data arrays with an explicit init declaration
	// (lang.FileMeta.Inited).
	Initialized map[*ir.Array]bool
	// AssumeInitialized suppresses the uninitialized-data check for
	// workloads whose init runs as opaque Go code.
	AssumeInitialized bool
	// ParamLines gives declaration lines for parameters.
	ParamLines map[string]int
	// File is the fallback file name for findings without a position.
	File string
	// Hier is the cache hierarchy miss deltas are predicted on
	// (default cache.ScaledItanium2).
	Hier *cache.Hierarchy
	// Level is the hierarchy level miss deltas are reported at
	// (default "L2").
	Level string
}

// prepare fills the option defaults and returns the file-name resolver
// for findings.
func prepare(info *ir.Info, opts Options) (Options, func(*ir.Routine) string) {
	if opts.Hier == nil {
		opts.Hier = cache.ScaledItanium2()
	}
	if opts.Level == "" {
		opts.Level = "L2"
	}
	fallback := opts.File
	if fallback == "" && info.Prog.Main != nil {
		fallback = info.Prog.Main.File
	}
	fileOf := func(rt *ir.Routine) string {
		if rt != nil && rt.File != "" {
			return rt.File
		}
		return fallback
	}
	return opts, fileOf
}

// Check runs every static check on a finalized program: the
// program-level defect suite, the abstract-interpretation defect suite
// (dead stores, dead guards), the ranked opportunity suite, and the
// provable-bounds notes, all over one dependence analysis. The result is
// deduplicated and sorted by file:line:code:msg, so repeated runs are
// byte-reproducible.
func Check(info *ir.Info, opts Options) []Diagnostic {
	opts, fileOf := prepare(info, opts)
	deps := depend.Analyze(info, opts.Params)
	w := walk(info, deps, fileOf)

	out := defects(w, opts)
	out = append(out, w.diags...)

	// Provable-bounds notes.
	for _, fact := range w.facts {
		if fact == nil || fact.dead || !fact.inBounds {
			continue
		}
		out = append(out, Diagnostic{
			File:     fileOf(fact.routine),
			Line:     fact.ref.Line,
			Code:     "bounds-proved",
			Severity: SevNote,
			Msg:      fmt.Sprintf("every subscript of %s is provably in bounds", fact.ref.Name()),
		})
	}

	out = append(out, opportunities(w, nil, nil, opts)...)

	return Sort(out)
}

// Opportunities is the checker's report path: it runs only the walker
// and the three opportunity detectors, and returns the opportunity
// diagnostics Check returns for the same program and options, in the
// same order. No defect or note shares a code with an opportunity, so
// Sort places them identically in both.
func Opportunities(info *ir.Info, given Analyses, opts Options) []Diagnostic {
	opts, fileOf := prepare(info, opts)
	deps := given.Deps
	if deps == nil {
		deps = depend.Analyze(info, opts.Params)
	}
	return Sort(opportunities(walk(info, deps, fileOf), given.Estimate, given.Report, opts))
}

// Sort deduplicates diagnostics and orders them by file, line, code and
// message — the canonical byte-reproducible order the CLI prints and
// the golden tests pin. It is exported so callers merging diagnostics
// from several targets can re-establish the invariant. The sort is
// stable, so of several diagnostics with one key the first survives,
// whatever other diagnostics the slice holds.
func Sort(diags []Diagnostic) []Diagnostic {
	slices.SortStableFunc(diags, func(a, b Diagnostic) int {
		if c := cmp.Compare(a.File, b.File); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Line, b.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Code, b.Code); c != 0 {
			return c
		}
		return cmp.Compare(a.Msg, b.Msg)
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			p := out[len(out)-1]
			if p.File == d.File && p.Line == d.Line && p.Code == d.Code && p.Msg == d.Msg {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// Findings counts the diagnostics that affect the checker's exit code:
// defects and opportunities, not notes.
func Findings(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Severity != SevNote {
			n++
		}
	}
	return n
}
