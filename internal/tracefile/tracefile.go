// Package tracefile reads and writes instrumentation traces as a simple
// line-oriented text format, decoupling trace production from analysis.
//
// The paper's tool is language independent because it instruments
// binaries; this package provides the equivalent seam for this library: any
// producer — another simulator, a Pin/DynamoRIO-style tool, a runtime —
// can emit this format and have its traces analyzed by the reuse-distance
// engine without going through the IR.
//
// Format (one record per line; '#' starts a comment):
//
//	trace v1
//	prog <name>
//	scope <id> <parent|-1> <program|file|routine|loop> <line> <name...>
//	ref <id> <array> <name...>
//	E <scopeID>
//	X <scopeID>
//	A <refID> <addr-hex> <size> <r|w>
//
// Scopes must be declared parent-before-child with dense IDs starting at
// 0 (the program root). References must be declared before use. An access
// must end at or below address 2^64-1: its last byte, addr+size-1, may
// not wrap.
package tracefile

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"reusetool/internal/ir"
	"reusetool/internal/scope"
	"reusetool/internal/trace"
)

// Meta is the static program structure recovered from a trace header. It
// implements metrics.Source.
type Meta struct {
	Program string
	Scopes  *scope.Tree
	// RefNames and RefArrays are indexed by RefID.
	RefNames  []string
	RefArrays []string
}

// Name implements metrics.Source.
func (m *Meta) Name() string { return m.Program }

// Tree implements metrics.Source.
func (m *Meta) Tree() *scope.Tree { return m.Scopes }

// RefLabel implements metrics.Source.
func (m *Meta) RefLabel(id trace.RefID) (string, string, bool) {
	if id < 0 || int(id) >= len(m.RefNames) {
		return "", "", false
	}
	return m.RefNames[id], m.RefArrays[id], true
}

// Read parses a trace, streaming its events into h, and returns the
// recovered program structure. Reading stops at EOF or the first
// malformed line.
func Read(r io.Reader, h trace.Handler) (*Meta, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)

	meta := &Meta{Program: "trace"}
	lineNo := 0
	sawHeader := false
	depth := 0

	fail := func(format string, args ...any) error {
		return fmt.Errorf("tracefile: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "trace":
			if len(fields) != 2 || fields[1] != "v1" {
				return nil, fail("unsupported trace version %q", line)
			}
			sawHeader = true

		case "prog":
			if len(fields) < 2 {
				return nil, fail("prog needs a name")
			}
			meta.Program = strings.Join(fields[1:], " ")

		case "scope":
			if !sawHeader {
				return nil, fail("scope before trace header")
			}
			if len(fields) < 5 {
				return nil, fail("scope needs id, parent, kind, line, name")
			}
			id, err1 := strconv.Atoi(fields[1])
			parent, err2 := strconv.Atoi(fields[2])
			line64, err3 := strconv.Atoi(fields[4])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fail("bad scope numbers in %q", line)
			}
			kind, ok := parseKind(fields[3])
			if !ok {
				return nil, fail("unknown scope kind %q", fields[3])
			}
			name := strings.Join(fields[5:], " ")
			if id == 0 {
				if parent != -1 || kind != scope.KindProgram {
					return nil, fail("scope 0 must be the program root")
				}
				meta.Scopes = scope.NewTree(name)
				continue
			}
			if meta.Scopes == nil {
				return nil, fail("scope %d declared before the program root", id)
			}
			if id != meta.Scopes.Len() {
				return nil, fail("scope ids must be dense: got %d, want %d", id, meta.Scopes.Len())
			}
			if !meta.Scopes.Valid(trace.ScopeID(parent)) {
				return nil, fail("scope %d has undeclared parent %d", id, parent)
			}
			meta.Scopes.Add(trace.ScopeID(parent), kind, name, line64)

		case "ref":
			if len(fields) < 3 {
				return nil, fail("ref needs id and array")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id != len(meta.RefNames) {
				return nil, fail("ref ids must be dense: %q", line)
			}
			meta.RefArrays = append(meta.RefArrays, fields[2])
			name := fields[2]
			if len(fields) > 3 {
				name = strings.Join(fields[3:], " ")
			}
			meta.RefNames = append(meta.RefNames, name)

		case "E":
			s, err := eventScope(meta, fields)
			if err != nil {
				return nil, fail("%v", err)
			}
			h.EnterScope(s)
			depth++

		case "X":
			s, err := eventScope(meta, fields)
			if err != nil {
				return nil, fail("%v", err)
			}
			if depth == 0 {
				return nil, fail("scope exit with empty stack")
			}
			h.ExitScope(s)
			depth--

		case "A":
			if len(fields) != 5 {
				return nil, fail("A needs ref, addr, size, r|w")
			}
			refID, err := strconv.Atoi(fields[1])
			if err != nil || refID < 0 || refID >= len(meta.RefNames) {
				return nil, fail("undeclared ref %q", fields[1])
			}
			addr, err := strconv.ParseUint(strings.TrimPrefix(fields[2], "0x"), 16, 64)
			if err != nil {
				return nil, fail("bad address %q", fields[2])
			}
			size, err := strconv.ParseUint(fields[3], 10, 32)
			if err != nil {
				return nil, fail("bad size %q", fields[3])
			}
			if size > 0 && addr > math.MaxUint64-(size-1) {
				return nil, fail("access of %d bytes at %#x wraps past the end of the address space", size, addr)
			}
			var write bool
			switch fields[4] {
			case "r":
			case "w":
				write = true
			default:
				return nil, fail("access mode must be r or w, got %q", fields[4])
			}
			if depth == 0 {
				return nil, fail("access outside any scope")
			}
			h.Access(trace.RefID(refID), addr, uint32(size), write)

		default:
			return nil, fail("unknown record %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	if meta.Scopes == nil {
		return nil, fmt.Errorf("tracefile: no program root scope declared")
	}
	if depth != 0 {
		return nil, fmt.Errorf("tracefile: %d unclosed scopes at EOF", depth)
	}
	return meta, nil
}

func parseKind(s string) (scope.Kind, bool) {
	switch s {
	case "program":
		return scope.KindProgram, true
	case "file":
		return scope.KindFile, true
	case "routine":
		return scope.KindRoutine, true
	case "loop":
		return scope.KindLoop, true
	}
	return 0, false
}

func eventScope(meta *Meta, fields []string) (trace.ScopeID, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("scope event needs one id")
	}
	id, err := strconv.Atoi(fields[1])
	if err != nil || meta.Scopes == nil || !meta.Scopes.Valid(trace.ScopeID(id)) {
		return 0, fmt.Errorf("undeclared scope %q", fields[1])
	}
	return trace.ScopeID(id), nil
}

// Writer records an event stream to the text format. It implements
// trace.Handler; create with NewWriter, and call Flush when done.
type Writer struct {
	bw  *bufio.Writer
	err error
}

// NewWriter writes the header for the given program structure and returns
// a handler that appends its events.
func NewWriter(w io.Writer, src interface {
	Name() string
	Tree() *scope.Tree
	RefLabel(trace.RefID) (string, string, bool)
}, numRefs int) (*Writer, error) {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "trace v1")
	fmt.Fprintf(bw, "prog %s\n", src.Name())
	tree := src.Tree()
	for id := trace.ScopeID(0); int(id) < tree.Len(); id++ {
		n := tree.Node(id)
		fmt.Fprintf(bw, "scope %d %d %s %d %s\n", id, n.Parent, n.Kind, n.Line, n.Name)
	}
	for id := 0; id < numRefs; id++ {
		name, array, ok := src.RefLabel(trace.RefID(id))
		if !ok {
			return nil, fmt.Errorf("tracefile: reference %d has no label", id)
		}
		fmt.Fprintf(bw, "ref %d %s %s\n", id, array, name)
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &Writer{bw: bw}, nil
}

// EnterScope implements trace.Handler.
func (w *Writer) EnterScope(s trace.ScopeID) {
	if w.err == nil {
		_, w.err = fmt.Fprintf(w.bw, "E %d\n", s)
	}
}

// ExitScope implements trace.Handler.
func (w *Writer) ExitScope(s trace.ScopeID) {
	if w.err == nil {
		_, w.err = fmt.Fprintf(w.bw, "X %d\n", s)
	}
}

// Access implements trace.Handler.
func (w *Writer) Access(ref trace.RefID, addr uint64, size uint32, write bool) {
	if w.err != nil {
		return
	}
	mode := "r"
	if write {
		mode = "w"
	}
	_, w.err = fmt.Fprintf(w.bw, "A %d %x %d %s\n", ref, addr, size, mode)
}

// Flush drains buffered output and reports any deferred write error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return fmt.Errorf("tracefile: write: %w", w.err)
	}
	return w.bw.Flush()
}

// ir.Info satisfies the writer's source constraint.
var _ interface {
	Name() string
	Tree() *scope.Tree
	RefLabel(trace.RefID) (string, string, bool)
} = (*ir.Info)(nil)
