package depend

import (
	"fmt"

	"reusetool/internal/ir"
	"reusetool/internal/symbolic"
)

// Legality is the verdict on a proposed transformation.
type Legality uint8

// Verdicts. LegalityUnknown means some dependence the transformation
// could violate was itself Unknown: the tool cannot promise either
// way, matching the paper's stance that a recommendation is a hint.
const (
	LegalityUnknown Legality = iota
	Legal
	Illegal
)

// String implements fmt.Stringer.
func (l Legality) String() string {
	switch l {
	case Legal:
		return "legal"
	case Illegal:
		return "illegal"
	}
	return "unknown"
}

// Verdict is a legality answer with its rationale: for Illegal, the
// blocking dependence and the direction vector that breaks; for
// Unknown, the dependence the analyzer could not resolve.
type Verdict struct {
	Legality Legality
	Blocking *Dep
	Vector   *Vector
	Note     string
}

// Interchange decides whether loop c can be moved to the innermost
// position of its nest. A dependence blocks iff it has a feasible
// oriented vector led by c whose inner suffix starts with the opposite
// direction — the classical (<,>) rule, generalized to DirAny
// positions.
func (a *Analysis) Interchange(c *ir.Loop) Verdict {
	var unknown *Dep
	for _, dep := range a.Deps {
		if dep.Kind == Input {
			continue
		}
		pos := loopIndex(dep.Loops, c)
		if pos < 0 {
			continue
		}
		if dep.Unknown {
			if unknown == nil {
				unknown = dep
			}
			continue
		}
		for i := range dep.Vectors {
			v := &dep.Vectors[i]
			if blk, ok := blocksInterchange(v, pos); ok {
				return Verdict{
					Legality: Illegal,
					Blocking: dep,
					Vector:   v,
					Note: fmt.Sprintf("%s dependence %s -> %s %s would be reversed: moving %s inward puts its carried direction after loop %s",
						dep.Kind, dep.Src.Name(), dep.Dst.Name(), v, c.Var.Name, dep.Loops[blk].Var.Name),
				}
			}
		}
	}
	if unknown != nil {
		return Verdict{
			Legality: LegalityUnknown,
			Blocking: unknown,
			Note:     fmt.Sprintf("cannot prove safety: %s", unknown.Reason),
		}
	}
	return Verdict{Legality: Legal, Note: "no dependence is carried against the interchange"}
}

// blocksInterchange reports whether moving position i innermost can
// reverse the (possibly DirAny-expanded) vector, and names the inner
// loop position that breaks. The vector blocks iff some expansion is
// led by a concrete direction at i and the first concrete inner
// direction after it (choosing '=' for free positions) is opposite.
func blocksInterchange(v *Vector, i int) (int, bool) {
	// The vector can only lead at i if nothing before it is forced
	// off '=' (DirAny positions may choose '=').
	for j := 0; j < i; j++ {
		if v.Dirs[j] == DirLT || v.Dirs[j] == DirGT {
			return 0, false
		}
	}
	di := v.Dirs[i]
	// Oriented '<' at i (for a raw '>' the mirrored dependence leads
	// '<' with every later direction flipped). Scan inward: the first
	// position that can be the new leader after the move decides. A
	// hard same-sign direction shields; an opposite or free position
	// reached first reverses the dependence.
	if di == DirLT || di == DirAny {
		for k := i + 1; k < len(v.Dirs); k++ {
			switch v.Dirs[k] {
			case DirGT, DirAny:
				return k, true
			case DirLT:
				k = len(v.Dirs) // shielded
			}
		}
	}
	if di == DirGT || di == DirAny {
		for k := i + 1; k < len(v.Dirs); k++ {
			switch v.Dirs[k] {
			case DirLT, DirAny:
				return k, true
			case DirGT:
				k = len(v.Dirs) // shielded
			}
		}
	}
	return 0, false
}

// Fuse decides whether two adjacent loops can be fused. A dependence
// between a reference under l1 and one under l2 prevents fusion iff it
// can hold within one iteration of the shared outer loops with the
// destination at an earlier fused iteration (direction '>' at the
// aligned position): fusing would run the destination first.
func (a *Analysis) Fuse(l1, l2 *ir.Loop) Verdict {
	i1, ok1 := a.loops[l1]
	i2, ok2 := a.loops[l2]
	if !ok1 || !ok2 {
		return Verdict{Legality: LegalityUnknown, Note: "loop not analyzed"}
	}
	if l1 == l2 {
		return Verdict{Legality: LegalityUnknown, Note: "fusing a loop with itself"}
	}
	if nested(a, l1, l2) || nested(a, l2, l1) {
		return Verdict{Legality: LegalityUnknown, Note: "loops are nested, not adjacent"}
	}
	if i1.step != i2.step {
		return Verdict{Legality: LegalityUnknown, Note: "loop steps differ"}
	}
	lo1, ok1 := symbolic.EvalInterval(i1.lo, a.Param).Const()
	lo2, ok2 := symbolic.EvalInterval(i2.lo, a.Param).Const()
	if !ok1 || !ok2 || lo1 != lo2 {
		return Verdict{Legality: LegalityUnknown, Note: "loop lower bounds are not provably aligned"}
	}

	var xs, ys []*refInfo
	n := len(a.Info.Refs)
	for i := 0; i < n; i++ {
		r := a.refs[a.Info.Refs[i].ID()]
		if r == nil {
			continue
		}
		if loopIndex(r.loops, l1) >= 0 {
			xs = append(xs, r)
		}
		if loopIndex(r.loops, l2) >= 0 {
			ys = append(ys, r)
		}
	}
	var unknown *Dep
	align := &fusePair{la: l1, lb: l2}
	for _, x := range xs {
		for _, y := range ys {
			if x.ref.Array != y.ref.Array || (!x.ref.Write && !y.ref.Write) {
				continue
			}
			d := a.pairDeps(x, y, align)
			if d == nil {
				continue
			}
			if d.Unknown {
				if unknown == nil {
					unknown = d
				}
				continue
			}
			vpos := len(d.Loops) // the virtual aligned position
			for i := range d.Vectors {
				v := &d.Vectors[i]
				sameOuter := true
				for j := 0; j < vpos; j++ {
					if v.Dirs[j] == DirLT || v.Dirs[j] == DirGT {
						sameOuter = false
						break
					}
				}
				if sameOuter && (v.Dirs[vpos] == DirGT || v.Dirs[vpos] == DirAny) {
					return Verdict{
						Legality: Illegal,
						Blocking: d,
						Vector:   v,
						Note: fmt.Sprintf("fusing would reverse the %s dependence %s -> %s (fused direction '>')",
							d.Kind, d.Src.Name(), d.Dst.Name()),
					}
				}
			}
		}
	}
	if unknown != nil {
		return Verdict{
			Legality: LegalityUnknown,
			Blocking: unknown,
			Note:     fmt.Sprintf("cannot prove safety: %s", unknown.Reason),
		}
	}
	return Verdict{Legality: Legal, Note: "no fusion-preventing dependence"}
}

// TimeSkew decides whether iterations of the time loop c can be
// skewed against its inner loops (the paper's time-skewing for
// stencil-like reuse). It is possible exactly when every dependence
// carried by c has a known constant distance on each inner loop; the
// note then reports the skew the distances require.
func (a *Analysis) TimeSkew(c *ir.Loop) Verdict {
	var unknown *Dep
	var sibling *Dep
	var skew int64
	carried := false
	for _, dep := range a.Deps {
		if dep.Kind == Input {
			continue
		}
		pos := loopIndex(dep.Loops, c)
		if pos < 0 {
			continue
		}
		if dep.Unknown {
			if unknown == nil {
				unknown = dep
			}
			continue
		}
		depCarried := false
		for i := range dep.Vectors {
			v := &dep.Vectors[i]
			lead := true
			for j := 0; j < pos; j++ {
				if v.Dirs[j] == DirLT || v.Dirs[j] == DirGT {
					lead = false
					break
				}
			}
			if !lead || v.Dirs[pos] == DirEQ {
				continue
			}
			carried = true
			depCarried = true
			for k := pos + 1; k < len(v.Dirs); k++ {
				if !v.Known[k] {
					return Verdict{
						Legality: Illegal,
						Blocking: dep,
						Vector:   v,
						Note: fmt.Sprintf("%s dependence %s -> %s %s carried by %s has no constant distance on inner loop %s: no skew aligns it",
							dep.Kind, dep.Src.Name(), dep.Dst.Name(), v, c.Var.Name, dep.Loops[k].Var.Name),
					}
				}
				if d := abs64(v.Dist[k]); d > skew {
					skew = d
				}
			}
		}
		if depCarried {
			// A dependence between sibling loops inside the time loop
			// (two separate sweeps) is aligned by the skew only when
			// its forced iteration offset is a known constant.
			if !dep.SiblingOK {
				if sibling == nil {
					sibling = dep
				}
				continue
			}
			if d := abs64(dep.SiblingDist); d > skew {
				skew = d
			}
		}
	}
	if sibling != nil {
		return Verdict{
			Legality: LegalityUnknown,
			Blocking: sibling,
			Note: fmt.Sprintf("dependence %s -> %s between sibling loops has no provably constant iteration offset",
				sibling.Src.Name(), sibling.Dst.Name()),
		}
	}
	if unknown != nil {
		return Verdict{
			Legality: LegalityUnknown,
			Blocking: unknown,
			Note:     fmt.Sprintf("cannot prove safety: %s", unknown.Reason),
		}
	}
	if !carried {
		return Verdict{Legality: Legal, Note: "no dependence is carried by the time loop"}
	}
	return Verdict{Legality: Legal, Note: fmt.Sprintf("legal with a skew of at least %d iterations per time step", skew)}
}

// StripMine is always legal: it only re-tiles the iteration space
// without reordering any pair of iterations across the strip boundary
// in a way that reverses a dependence (strip-mining alone preserves
// order; the follow-up fusion is checked separately by Fuse).
func (a *Analysis) StripMine(c *ir.Loop) Verdict {
	_ = c
	return Verdict{Legality: Legal, Note: "strip-mining preserves iteration order"}
}

// nested reports whether inner is strictly inside outer.
func nested(a *Analysis, outer, inner *ir.Loop) bool {
	for _, ri := range a.refs {
		li := loopIndex(ri.loops, inner)
		lo := loopIndex(ri.loops, outer)
		if li >= 0 && lo >= 0 && lo < li {
			return true
		}
	}
	return false
}
