// Package xmlout serializes analysis reports to XML, standing in for the
// paper's export to the hpcviewer database format (Section IV). The schema
// is a compact, self-describing cousin of the HPCToolkit experiment format:
// a scope tree with per-scope metric values, plus the flat reuse-pattern
// database per cache level.
package xmlout

import (
	"encoding/xml"
	"fmt"

	"reusetool/internal/advise"
	"reusetool/internal/depend"
	"reusetool/internal/metrics"
	"reusetool/internal/trace"
)

// Experiment is the XML document root.
type Experiment struct {
	XMLName xml.Name       `xml:"ReuseToolExperiment"`
	Tool    string         `xml:"tool,attr"`
	Program string         `xml:"program,attr"`
	Machine string         `xml:"machine,attr"`
	Metrics []Metric       `xml:"Metrics>Metric"`
	Root    *XScope        `xml:"ScopeTree>Scope"`
	Levels  []XLevel       `xml:"PatternDatabase>Level"`
	Arrays  []XArrays      `xml:"FragmentationByArray>Level"`
	Advice  []XAdviceLevel `xml:"Advice>Level,omitempty"`
}

// Metric declares one metric column.
type Metric struct {
	Name string `xml:"name,attr"`
	Kind string `xml:"kind,attr"` // exclusive | inclusive | carried
}

// XScope is one scope-tree node with metric values.
type XScope struct {
	ID       int32     `xml:"id,attr"`
	Kind     string    `xml:"kind,attr"`
	Name     string    `xml:"name,attr"`
	Line     int       `xml:"line,attr,omitempty"`
	TimeStep bool      `xml:"timestep,attr,omitempty"`
	Values   []MValue  `xml:"M"`
	Children []*XScope `xml:"Scope"`
}

// MValue is one metric value on a scope.
type MValue struct {
	XMLName xml.Name `xml:"M"`
	Name    string   `xml:"n,attr"`
	Value   float64  `xml:"v,attr"`
}

// XLevel is the flat pattern database for one cache level.
type XLevel struct {
	Name     string     `xml:"name,attr"`
	Total    float64    `xml:"totalMisses,attr"`
	Cold     float64    `xml:"coldMisses,attr"`
	Patterns []XPattern `xml:"Pattern"`
}

// XPattern is one reuse pattern row.
type XPattern struct {
	Ref       string  `xml:"ref,attr"`
	Array     string  `xml:"array,attr"`
	Dest      int32   `xml:"dest,attr"`
	Source    int32   `xml:"source,attr"`
	Carrying  int32   `xml:"carrying,attr"`
	Count     uint64  `xml:"count,attr"`
	Misses    float64 `xml:"misses,attr"`
	Irregular bool    `xml:"irregular,attr,omitempty"`
	Frag      float64 `xml:"fragFactor,attr,omitempty"`
}

// XArrays lists per-array fragmentation misses for one level.
type XArrays struct {
	Name   string   `xml:"name,attr"`
	Arrays []XArray `xml:"Array"`
}

// XAdviceLevel holds the ranked recommendations for one cache level.
type XAdviceLevel struct {
	Name    string    `xml:"name,attr"`
	Entries []XAdvice `xml:"Recommendation"`
}

// XAdvice is one Table I recommendation with its legality verdict.
type XAdvice struct {
	Kind         string  `xml:"kind,attr"`
	Array        string  `xml:"array,attr,omitempty"`
	Source       int32   `xml:"source,attr"`
	Dest         int32   `xml:"dest,attr"`
	Carrying     int32   `xml:"carrying,attr"`
	Misses       float64 `xml:"misses,attr"`
	Share        float64 `xml:"share,attr"`
	Legality     string  `xml:"legality,attr"`
	Rationale    string  `xml:"Rationale"`
	LegalityNote string  `xml:"LegalityNote,omitempty"`
}

// XArray is one array's fragmentation miss count.
type XArray struct {
	Name       string  `xml:"name,attr"`
	FragMisses float64 `xml:"fragMisses,attr"`
	Misses     float64 `xml:"misses,attr"`
}

// BuildWith converts a report into the XML document model. With a
// dependence analysis it adds an Advice section: per level, the ranked
// recommendations above minShare with their legality verdicts.
func BuildWith(rep *metrics.Report, deps *depend.Analysis, minShare float64) *Experiment {
	exp := build(rep)
	if deps == nil {
		return exp
	}
	for _, lr := range rep.Levels {
		xl := XAdviceLevel{Name: lr.Level.Name}
		for _, r := range advise.AdviseWith(rep, deps, lr.Level.Name, minShare) {
			xl.Entries = append(xl.Entries, XAdvice{
				Kind:         r.Kind.String(),
				Array:        r.Array,
				Source:       int32(r.Source),
				Dest:         int32(r.Dest),
				Carrying:     int32(r.Carrying),
				Misses:       r.Misses,
				Share:        r.Share,
				Legality:     r.Legality.String(),
				Rationale:    r.Rationale,
				LegalityNote: r.LegalityNote,
			})
		}
		exp.Advice = append(exp.Advice, xl)
	}
	return exp
}

func build(rep *metrics.Report) *Experiment {
	exp := &Experiment{
		Tool:    "reusetool",
		Program: rep.Source.Name(),
		Machine: rep.Hier.Name,
	}
	for _, lr := range rep.Levels {
		exp.Metrics = append(exp.Metrics,
			Metric{Name: lr.Level.Name + ".misses", Kind: "exclusive"},
			Metric{Name: lr.Level.Name + ".misses.incl", Kind: "inclusive"},
			Metric{Name: lr.Level.Name + ".carried", Kind: "carried"},
			Metric{Name: lr.Level.Name + ".frag", Kind: "exclusive"},
		)
	}

	tree := rep.Tree()
	// Precompute inclusive values per level.
	incl := make([][]float64, len(rep.Levels))
	for i, lr := range rep.Levels {
		incl[i] = tree.Inclusive(lr.MissesByScope)
	}

	var build func(id trace.ScopeID) *XScope
	build = func(id trace.ScopeID) *XScope {
		n := tree.Node(id)
		xs := &XScope{
			ID:       int32(id),
			Kind:     n.Kind.String(),
			Name:     n.Name,
			Line:     n.Line,
			TimeStep: n.TimeStep,
		}
		for i, lr := range rep.Levels {
			name := lr.Level.Name
			xs.Values = append(xs.Values,
				MValue{Name: name + ".misses", Value: lr.MissesByScope[id]},
				MValue{Name: name + ".misses.incl", Value: incl[i][id]},
				MValue{Name: name + ".carried", Value: lr.CarriedByScope[id]},
				MValue{Name: name + ".frag", Value: lr.FragMissesByScope[id]},
			)
		}
		for _, c := range n.Children {
			xs.Children = append(xs.Children, build(c))
		}
		return xs
	}
	exp.Root = build(tree.Root())

	for _, lr := range rep.Levels {
		xl := XLevel{Name: lr.Level.Name, Total: lr.TotalMisses, Cold: lr.ColdMisses}
		for _, p := range lr.Patterns {
			frag := p.FragFactor
			if frag < 0 {
				frag = 0
			}
			xl.Patterns = append(xl.Patterns, XPattern{
				Ref:       p.RefName,
				Array:     p.Array,
				Dest:      int32(p.Dest),
				Source:    int32(p.Source),
				Carrying:  int32(p.Carrying),
				Count:     p.Count,
				Misses:    p.Misses,
				Irregular: p.Irregular,
				Frag:      frag,
			})
		}
		exp.Levels = append(exp.Levels, xl)

		xa := XArrays{Name: lr.Level.Name}
		for _, arr := range lr.TopFragArrays(0) {
			xa.Arrays = append(xa.Arrays, XArray{
				Name:       arr,
				FragMisses: lr.FragMissesByArray[arr],
				Misses:     lr.MissesByArray[arr],
			})
		}
		exp.Arrays = append(exp.Arrays, xa)
	}
	return exp
}

// MarshalWith renders a report as indented XML, including the Advice
// section when deps is non-nil (see BuildWith).
func MarshalWith(rep *metrics.Report, deps *depend.Analysis, minShare float64) ([]byte, error) {
	exp := BuildWith(rep, deps, minShare)
	out, err := xml.MarshalIndent(exp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xmlout: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

// Unmarshal parses a document produced by MarshalWith (round-trip support for
// downstream tools and tests).
func Unmarshal(data []byte) (*Experiment, error) {
	var exp Experiment
	if err := xml.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("xmlout: %w", err)
	}
	return &exp, nil
}
