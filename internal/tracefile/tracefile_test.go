package tracefile

import (
	"bytes"
	"strings"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/metrics"
	"reusetool/internal/reusedist"
	"reusetool/internal/scope"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

const sampleTrace = `trace v1
prog demo
scope 0 -1 program 0 demo
scope 1 0 file 0 main.f
scope 2 1 routine 10 main
scope 3 2 loop 12 i
ref 0 A A[i]
ref 1 B B[i]=
E 2
E 3
A 0 1000 8 r
A 1 2000 8 w
A 0 1008 8 r
X 3
X 2
`

func TestReadSample(t *testing.T) {
	var rec trace.Recorder
	meta, err := Read(strings.NewReader(sampleTrace), &rec)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Program != "demo" {
		t.Errorf("program = %q", meta.Program)
	}
	if meta.Scopes.Len() != 4 {
		t.Errorf("scopes = %d, want 4", meta.Scopes.Len())
	}
	if name, arr, ok := meta.RefLabel(1); !ok || name != "B[i]=" || arr != "B" {
		t.Errorf("RefLabel(1) = %q %q %v", name, arr, ok)
	}
	if _, _, ok := meta.RefLabel(9); ok {
		t.Error("unknown ref should not resolve")
	}
	var accesses, enters int
	events := rec.Expanded()
	for _, e := range events {
		switch e.Kind {
		case trace.EvAccess:
			accesses++
		case trace.EvEnter:
			enters++
		}
	}
	if accesses != 3 || enters != 2 {
		t.Errorf("accesses=%d enters=%d", accesses, enters)
	}
	if events[2].Addr != 0x1000 {
		t.Errorf("addr = %#x, want 0x1000", events[2].Addr)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	bad := []struct {
		name, src string
	}{
		{"no header", "scope 0 -1 program 0 x\n"},
		{"bad version", "trace v9\n"},
		{"sparse scope ids", "trace v1\nscope 0 -1 program 0 x\nscope 5 0 loop 0 i\n"},
		{"bad root", "trace v1\nscope 0 3 program 0 x\n"},
		{"undeclared parent", "trace v1\nscope 0 -1 program 0 x\nscope 1 7 loop 0 i\n"},
		{"bad kind", "trace v1\nscope 0 -1 widget 0 x\n"},
		{"undeclared ref", "trace v1\nscope 0 -1 program 0 x\nE 0\nA 3 10 8 r\nX 0\n"},
		{"bad mode", "trace v1\nscope 0 -1 program 0 x\nref 0 A A\nE 0\nA 0 10 8 q\nX 0\n"},
		{"access outside scope", "trace v1\nscope 0 -1 program 0 x\nref 0 A A\nA 0 10 8 r\n"},
		{"exit empty stack", "trace v1\nscope 0 -1 program 0 x\nX 0\n"},
		{"unclosed scopes", "trace v1\nscope 0 -1 program 0 x\nE 0\n"},
		{"unknown record", "trace v1\nscope 0 -1 program 0 x\nZ 1 2 3\n"},
		{"bad address", "trace v1\nscope 0 -1 program 0 x\nref 0 A A\nE 0\nA 0 zz 8 r\nX 0\n"},
		{"no scopes at all", "trace v1\nprog x\n"},
	}
	for _, c := range bad {
		if _, err := Read(strings.NewReader(c.src), trace.Discard{}); err == nil {
			t.Errorf("%s: accepted malformed trace", c.name)
		}
	}
}

// TestReadRejectsWrappingAccess: an access whose last byte lies past
// 2^64-1 is refused with its line number. Such an access used to reach
// the engines, which dropped it: this trace was reported as one access.
func TestReadRejectsWrappingAccess(t *testing.T) {
	const head = "trace v1\nscope 0 -1 program 0 x\nref 0 A A\nE 0\n"
	src := head + "A 0 fffffffffffffff0 32 r\nA 0 fffffffffffffff0 32 r\nA 0 10 8 r\nX 0\n"
	var rec trace.Recorder
	_, err := Read(strings.NewReader(src), &rec)
	if err == nil || !strings.Contains(err.Error(), "line 5:") || !strings.Contains(err.Error(), "wraps") {
		t.Errorf("err = %v, want line 5 refused as wrapping", err)
	}
	if n := len(rec.Expanded()); n != 1 {
		t.Errorf("handler saw %d events before the refusal, want 1 (the scope entry)", n)
	}
	// The last byte may be 2^64-1 itself.
	ok := head + "A 0 fffffffffffffff0 16 r\nA 0 ffffffffffffffff 1 w\nA 0 ffffffffffffffff 0 r\nX 0\n"
	if _, err := Read(strings.NewReader(ok), trace.Discard{}); err != nil {
		t.Errorf("accesses ending at 2^64-1 refused: %v", err)
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	src := "# a comment\n\ntrace v1\n  # indented comment\nscope 0 -1 program 0 x\nE 0\nX 0\n"
	if _, err := Read(strings.NewReader(src), trace.Discard{}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripThroughIRWorkload is the integration path: record an IR
// workload's trace to the text format, read it back, analyze it, and
// compare miss counts against analyzing the live run.
func TestRoundTripThroughIRWorkload(t *testing.T) {
	prog := workloads.Stencil(48, 2)
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	hier := cache.ScaledItanium2()

	// Live analysis.
	liveCol := reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{})
	if _, err := interp.Run(info, nil, liveCol); err != nil {
		t.Fatal(err)
	}
	liveRep, err := metrics.Build(info, liveCol, nil, hier, metrics.SetAssoc)
	if err != nil {
		t.Fatal(err)
	}

	// Record to the text format.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, info, len(info.Refs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(info, nil, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Read back into a fresh collector.
	col := reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{})
	meta, err := Read(&buf, col)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Program != info.Name() {
		t.Errorf("program = %q, want %q", meta.Program, info.Name())
	}
	if meta.Scopes.Len() != info.Scopes.Len() {
		t.Errorf("scopes = %d, want %d", meta.Scopes.Len(), info.Scopes.Len())
	}
	rep, err := metrics.Build(meta, col, nil, hier, metrics.SetAssoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"L2", "L3", "TLB"} {
		live := liveRep.Level(level).TotalMisses
		replayed := rep.Level(level).TotalMisses
		if live != replayed {
			t.Errorf("%s: live %v vs replayed %v", level, live, replayed)
		}
	}
	// Scope labels survive.
	loopID := workloads.FindScope(info, scope.KindLoop, "i")
	if meta.Scopes.Label(loopID) != info.Scopes.Label(loopID) {
		t.Errorf("labels differ: %q vs %q", meta.Scopes.Label(loopID), info.Scopes.Label(loopID))
	}
}

func TestWriterErrorPropagation(t *testing.T) {
	w, err := NewWriter(failingWriter{}, metaFixture(), 0)
	if err == nil {
		// Header flush must already fail.
		w.EnterScope(0)
		if w.Flush() == nil {
			t.Error("expected write error")
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, bytes.ErrTooLarge }

func metaFixture() *Meta {
	m := &Meta{Program: "x"}
	// A minimal tree.
	var rec trace.Recorder
	_ = rec
	meta, err := Read(strings.NewReader("trace v1\nscope 0 -1 program 0 x\n"), trace.Discard{})
	if err != nil {
		panic(err)
	}
	m.Scopes = meta.Scopes
	return m
}
