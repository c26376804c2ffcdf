// Package cct builds a calling-context tree from the instrumentation
// event stream and attributes accesses and cache misses to its nodes.
//
// Section IV of the paper notes that carried-miss information "could be
// presented hierarchically along the edges of a calling context tree that
// includes also loop scopes"; this package implements that presentation.
// Each CCT node is one static scope reached through one dynamic chain of
// enclosing scopes, so a routine called from two sites gets two nodes
// with independent counts.
package cct

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"reusetool/internal/cache"
	"reusetool/internal/cachesim"
	"reusetool/internal/scope"
	"reusetool/internal/trace"
)

// NodeID indexes nodes within a Tree.
type NodeID int32

// rootID is the synthetic root above all top-level scopes.
const rootID NodeID = 0

// Node is one calling-context-tree node.
type Node struct {
	ID     NodeID
	Parent NodeID
	// Scope is the static scope this node instantiates (trace.NoScope for
	// the synthetic root).
	Scope trace.ScopeID
	// Accesses and Misses are exclusive counts at this node.
	Accesses uint64
	Misses   uint64

	children map[trace.ScopeID]NodeID
}

// Profiler builds the CCT while measuring misses against one cache level.
// It implements trace.Handler.
type Profiler struct {
	nodes []Node
	cur   NodeID
	probe *cachesim.Probe
}

// NewProfiler creates a CCT profiler measuring misses at the given level.
func NewProfiler(level cache.Level) *Profiler {
	p := &Profiler{probe: cachesim.NewProbe(level)}
	p.nodes = append(p.nodes, Node{ID: rootID, Parent: -1, Scope: trace.NoScope,
		children: map[trace.ScopeID]NodeID{}})
	return p
}

// EnterScope implements trace.Handler.
func (p *Profiler) EnterScope(s trace.ScopeID) {
	cur := &p.nodes[p.cur]
	child, ok := cur.children[s]
	if !ok {
		child = NodeID(len(p.nodes))
		p.nodes = append(p.nodes, Node{ID: child, Parent: p.cur, Scope: s,
			children: map[trace.ScopeID]NodeID{}})
		p.nodes[p.cur].children[s] = child
	}
	p.cur = child
}

// ExitScope implements trace.Handler.
func (p *Profiler) ExitScope(trace.ScopeID) {
	if p.cur == rootID {
		panic("cct: scope exit with empty context")
	}
	p.cur = p.nodes[p.cur].Parent
}

// Access implements trace.Handler.
func (p *Profiler) Access(_ trace.RefID, addr uint64, size uint32, _ bool) {
	n := &p.nodes[p.cur]
	n.Accesses++
	n.Misses += uint64(p.probe.Access(addr, size))
}

// Len reports the number of nodes including the synthetic root.
func (p *Profiler) Len() int { return len(p.nodes) }

// Node returns a node by ID.
func (p *Profiler) Node(id NodeID) *Node { return &p.nodes[id] }

// Root returns the synthetic root ID.
func (p *Profiler) Root() NodeID { return rootID }

// children returns a node's children sorted by descending inclusive
// misses, given every node's inclusive misses.
func (p *Profiler) children(id NodeID, incl []uint64) []NodeID {
	n := &p.nodes[id]
	out := make([]NodeID, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if incl[out[i]] != incl[out[j]] {
			return incl[out[i]] > incl[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// InclusiveMisses computes per-node inclusive miss counts.
func (p *Profiler) InclusiveMisses() []uint64 {
	incl := make([]uint64, len(p.nodes))
	for i := range p.nodes {
		incl[i] = p.nodes[i].Misses
	}
	// Children always have larger IDs than parents (created on first
	// entry), so a reverse sweep accumulates bottom-up.
	for i := len(p.nodes) - 1; i > 0; i-- {
		incl[p.nodes[i].Parent] += incl[i]
	}
	return incl
}

// TotalMisses reports all misses recorded by the profiler.
func (p *Profiler) TotalMisses() uint64 { return p.probe.Misses() }

// NodesForScope returns every CCT node instantiating the given static
// scope — more than one when the scope is reached through different call
// paths.
func (p *Profiler) NodesForScope(s trace.ScopeID) []NodeID {
	var out []NodeID
	for i := range p.nodes {
		if p.nodes[i].Scope == s {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Print renders the CCT with per-node inclusive/exclusive misses, pruning
// nodes below minShare of total misses. tree supplies scope labels.
func (p *Profiler) Print(w io.Writer, tree *scope.Tree, minShare float64) {
	incl := p.InclusiveMisses()
	total := float64(incl[rootID])
	fmt.Fprintf(w, "calling-context tree: %d nodes, %d misses\n", len(p.nodes)-1, incl[rootID])
	var walk func(id NodeID, depth int)
	walk = func(id NodeID, depth int) {
		n := &p.nodes[id]
		if id != rootID {
			if total > 0 && float64(incl[id])/total < minShare {
				return
			}
			label := "<root>"
			if tree != nil && tree.Valid(n.Scope) {
				label = tree.Label(n.Scope)
			}
			fmt.Fprintf(w, "%s%s  incl=%d excl=%d\n",
				strings.Repeat("  ", depth), label, incl[id], n.Misses)
		}
		for _, c := range p.children(id, incl) {
			walk(c, depth+1)
		}
	}
	walk(rootID, -1)
}
