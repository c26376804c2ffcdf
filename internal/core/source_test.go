package core

import (
	"bytes"
	"testing"

	"reusetool/internal/tracefile"
	"reusetool/internal/workloads"
)

// TestSourcesByValueAndPointer runs every source on fig2 both as a value
// and as a pointer: each pair must encode to identical JSON.
func TestSourcesByValueAndPointer(t *testing.T) {
	var rec bytes.Buffer
	info, err := workloads.Fig2().Finalize()
	if err != nil {
		t.Fatal(err)
	}
	w, err := tracefile.NewWriter(&rec, info, len(info.Refs))
	if err != nil {
		t.Fatal(err)
	}
	live, err := Pipeline{Source: DynamicSource{Info: info}, Options: Options{Tee: w}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	dynamic := DynamicSource{Prog: workloads.Fig2()}
	static := StaticSource{Prog: workloads.Fig2()}
	saved := SavedSource{Prog: workloads.Fig2(), Collector: live.Collector}
	cases := []struct {
		name         string
		byValue, ptr func() Source
	}{
		{"dynamic", func() Source { return dynamic }, func() Source { return &dynamic }},
		{"static", func() Source { return static }, func() Source { return &static }},
		{"saved", func() Source { return saved }, func() Source { return &saved }},
		{"trace",
			func() Source { return TraceSource{R: bytes.NewReader(rec.Bytes())} },
			func() Source { return &TraceSource{R: bytes.NewReader(rec.Bytes())} }},
	}
	encode := func(t *testing.T, src Source) []byte {
		t.Helper()
		res, err := Pipeline{Source: src}.Run()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := res.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if v, p := encode(t, c.byValue()), encode(t, c.ptr()); !bytes.Equal(v, p) {
				t.Errorf("pointer source encodes differently from the value source:\n%s\nvs\n%s", p, v)
			}
		})
	}

	if _, err := (Pipeline{}).Run(); err == nil {
		t.Error("a pipeline with no source should fail")
	}
}
