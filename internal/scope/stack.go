package scope

import "reusetool/internal/trace"

// StackEntry is one dynamic scope activation: the scope and the value of
// the logical access clock when it was entered.
type StackEntry struct {
	Scope trace.ScopeID
	Clock uint64
}

// Stack is the dynamic stack of scopes from Section II. Enter/Exit mirror
// the instrumentation's scope events; Carrying answers "which active scope
// was entered most recently before logical time t" — the carrying scope of
// a reuse whose previous access happened at time t.
//
// Entry clocks are non-decreasing from the bottom of the stack to the top,
// so the carrying-scope query is a predecessor search; Carrying checks the
// innermost scope and then uses binary search (O(log depth)),
// CarryingLinear is the paper's top-down scan kept for differential
// testing and the ablation benchmark.
type Stack struct {
	entries []StackEntry
}

// Enter pushes scope s entered at clock value clock.
func (st *Stack) Enter(s trace.ScopeID, clock uint64) {
	st.entries = append(st.entries, StackEntry{Scope: s, Clock: clock})
}

// Exit pops the innermost scope. Popping an empty stack panics: the event
// stream is malformed.
func (st *Stack) Exit() trace.ScopeID {
	n := len(st.entries)
	s := st.entries[n-1].Scope
	st.entries = st.entries[:n-1]
	return s
}

// Depth reports the number of active scopes.
func (st *Stack) Depth() int { return len(st.entries) }

// Top returns the innermost active scope, or trace.NoScope if empty.
func (st *Stack) Top() trace.ScopeID {
	if len(st.entries) == 0 {
		return trace.NoScope
	}
	return st.entries[len(st.entries)-1].Scope
}

// Carrying returns the innermost active scope entered strictly before
// logical time prevTime. Returns trace.NoScope if no active scope
// qualifies (possible only when prevTime precedes the entry of the
// outermost active scope).
//
// Most reuses are carried by the innermost scope (91–98% of block
// accesses in the exact sweep3d and gtc runs), so it is checked first;
// otherwise a binary search over the outer entries' clocks finds the
// answer.
func (st *Stack) Carrying(prevTime uint64) trace.ScopeID {
	n := len(st.entries)
	if n > 0 && st.entries[n-1].Clock < prevTime {
		return st.entries[n-1].Scope
	}
	// Find the last index i < n-1 with entries[i].Clock < prevTime.
	lo, hi := 0, max(n-1, 0)
	for lo < hi {
		mid := (lo + hi) / 2
		if st.entries[mid].Clock < prevTime {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return trace.NoScope
	}
	return st.entries[lo-1].Scope
}

// CarryingLinear is the paper's formulation: traverse the dynamic stack
// from the top looking for the shallowest entry whose clock is less than
// prevTime. Semantically identical to Carrying.
func (st *Stack) CarryingLinear(prevTime uint64) trace.ScopeID {
	for i := len(st.entries) - 1; i >= 0; i-- {
		if st.entries[i].Clock < prevTime {
			return st.entries[i].Scope
		}
	}
	return trace.NoScope
}
