package reusedist

import (
	"reflect"
	"unsafe"
)

// Span is a half-open range [Lo, Hi) of byte addresses.
type Span struct{ Lo, Hi uintptr }

// StateSpans reports where e's per-access state lives: the Engine fields
// between its leading and trailing blank padding fields (the whole
// struct when it has none), and the per-scope counters in use.
func StateSpans(e *Engine) []Span {
	t := reflect.TypeOf(e).Elem()
	lo, hi := uintptr(0), t.Size()
	if f := t.Field(0); f.Name == "_" {
		lo = f.Offset + f.Type.Size()
	}
	if f := t.Field(t.NumField() - 1); f.Name == "_" {
		hi = f.Offset
	}
	base := uintptr(unsafe.Pointer(e))
	spans := []Span{{base + lo, base + hi}}
	if c := e.scopeAccesses; len(c) > 0 {
		p := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
		spans = append(spans, Span{p, p + uintptr(len(c))*8})
	}
	return spans
}

// MemorySpans reports every byte of e: the whole Engine struct and the
// per-scope counters' backing array up to its capacity.
func MemorySpans(e *Engine) []Span {
	base := uintptr(unsafe.Pointer(e))
	spans := []Span{{base, base + unsafe.Sizeof(*e)}}
	if c := e.scopeAccesses; cap(c) > 0 {
		p := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
		spans = append(spans, Span{p, p + uintptr(cap(c))*8})
	}
	return spans
}
