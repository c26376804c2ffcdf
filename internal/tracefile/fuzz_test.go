package tracefile

import (
	"strings"
	"testing"

	"reusetool/internal/trace"
)

// FuzzRead asserts the trace parser never panics and never hands invalid
// scope or reference IDs, or an access that wraps past 2^64-1, to the
// handler, whatever the input.
func FuzzRead(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("")
	f.Add("trace v1\nscope 0 -1 program 0 x\nE 0\nX 0\n")
	f.Add("trace v1\nscope 0 -1 program 0 x\nref 0 A A\nE 0\nA 0 ff 8 w\nX 0\n")
	f.Add("trace v1\nscope 0 -1 program 0 x\nscope 1 0 loop 5 i\n# c\n\nE 0\nE 1\nX 1\nX 0\n")
	f.Add("scope -5 0 loop x\nA 0\nE\n")
	f.Add("trace v1\nscope 0 -1 program 0 x\nref 0 A A\nE 0\nA 0 fffffffffffffff0 32 r\nA 0 10 8 r\nX 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		var v validatingHandler
		meta, err := Read(strings.NewReader(input), &v)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// On success, every delivered event must have been declared.
		if meta.Scopes == nil {
			t.Fatal("accepted trace without scopes")
		}
		for _, s := range v.scopes {
			if !meta.Scopes.Valid(s) {
				t.Fatalf("handler saw undeclared scope %d", s)
			}
		}
		for _, r := range v.refs {
			if int(r) >= len(meta.RefNames) || r < 0 {
				t.Fatalf("handler saw undeclared ref %d", r)
			}
		}
		if v.wrapped {
			t.Fatal("handler saw an access that wraps past 2^64-1")
		}
		if v.depth != 0 {
			t.Fatalf("accepted trace with unbalanced scopes (depth %d)", v.depth)
		}
	})
}

type validatingHandler struct {
	scopes  []trace.ScopeID
	refs    []trace.RefID
	depth   int
	wrapped bool
}

func (v *validatingHandler) EnterScope(s trace.ScopeID) {
	v.scopes = append(v.scopes, s)
	v.depth++
}
func (v *validatingHandler) ExitScope(s trace.ScopeID) { v.depth-- }
func (v *validatingHandler) Access(r trace.RefID, addr uint64, size uint32, _ bool) {
	v.refs = append(v.refs, r)
	if size > 0 && addr+uint64(size-1) < addr {
		v.wrapped = true
	}
}
