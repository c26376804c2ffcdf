package reusedist

import (
	"reflect"
	"unsafe"
)

// Span is a half-open range [Lo, Hi) of byte addresses.
type Span struct{ Lo, Hi uintptr }

// StateSpans reports where e's per-access state lives: the Engine fields
// between its leading and trailing blank padding fields (the whole
// struct when it has none), the per-scope counters and admission memo
// entries in use, and the steady record up to its capacity.
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
	for _, c := range [][]uint64{e.scopeAccesses, e.rejected} {
		if len(c) > 0 {
			p := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
			spans = append(spans, Span{p, p + uintptr(len(c))*8})
		}
	}
	return append(spans, steadySpan(e)...)
}

// steadySpan reports the backing array of e's steady record up to its
// capacity, if it has one.
func steadySpan(e *Engine) []Span {
	if cap(e.steady) == 0 {
		return nil
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(e.steady)))
	return []Span{{p, p + uintptr(cap(e.steady))*unsafe.Sizeof(steadyAccess{})}}
}

// MemorySpans reports every byte of e: the whole Engine struct, and the
// backing arrays of the per-scope counters, the admission memo and the
// steady record up to their capacity.
func MemorySpans(e *Engine) []Span {
	base := uintptr(unsafe.Pointer(e))
	spans := []Span{{base, base + unsafe.Sizeof(*e)}}
	for _, c := range [][]uint64{e.scopeAccesses, e.rejected} {
		if cap(c) > 0 {
			p := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
			spans = append(spans, Span{p, p + uintptr(cap(c))*8})
		}
	}
	return append(spans, steadySpan(e)...)
}
