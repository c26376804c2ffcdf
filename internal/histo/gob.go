package histo

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// histogramWire is the serialized form of a Histogram: occupied bins as
// parallel (index, count) slices in increasing bin order. Slices encode
// deterministically, so identical histograms produce identical bytes —
// the map encoding this replaces made every .gob file differ run to run.
//
// Counts carries the legacy map field so datasets written before the flat
// store still decode; it is nil (and therefore omitted by gob) on encode.
type histogramWire struct {
	Sub    uint64
	BinIdx []uint32
	BinCnt []uint64
	Counts map[uint32]uint64
	Cold   uint64
	Total  uint64
	MaxD   uint64
}

// GobEncode implements gob.GobEncoder, allowing collected reuse-distance
// data to be persisted and re-analyzed offline (the paper's workflow:
// collect once, predict for many architectures). The encoding is
// byte-deterministic: occupied bins are emitted in increasing index order.
func (h *Histogram) GobEncode() ([]byte, error) {
	w := histogramWire{
		Sub:   h.sub,
		Cold:  h.cold,
		Total: h.total,
		MaxD:  h.maxD,
	}
	if h.occ > 0 {
		w.BinIdx = make([]uint32, 0, h.occ)
		w.BinCnt = make([]uint64, 0, h.occ)
		for idx, c := range h.counts {
			if c == 0 {
				continue
			}
			w.BinIdx = append(w.BinIdx, uint32(idx))
			w.BinCnt = append(w.BinCnt, c)
		}
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. It accepts both the sorted-pair
// wire format and the legacy map format, and refuses a resolution NewRes
// would refuse or a bin no finite distance maps to, so a crafted stream
// cannot make the flat bin store allocate past the largest real bin.
func (h *Histogram) GobDecode(data []byte) error {
	var w histogramWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if !ValidRes(w.Sub) {
		return fmt.Errorf("histo: corrupt wire data: resolution %d", w.Sub)
	}
	h.sub = w.Sub
	h.counts = nil
	h.occ = 0
	h.cold = w.Cold
	h.total = w.Total
	h.maxD = w.MaxD
	if len(w.BinIdx) != len(w.BinCnt) {
		return fmt.Errorf("histo: corrupt wire data: %d bin indices, %d counts", len(w.BinIdx), len(w.BinCnt))
	}
	for i, idx := range w.BinIdx {
		if err := h.setBin(idx, w.BinCnt[i]); err != nil {
			return err
		}
	}
	for idx, c := range w.Counts { // legacy map format
		if err := h.setBin(idx, c); err != nil {
			return err
		}
	}
	return nil
}

// setBin installs a decoded (bin, count) pair into the flat store,
// refusing a bin past the one the largest finite distance maps to.
func (h *Histogram) setBin(idx uint32, c uint64) error {
	if last := h.binIndex(Cold - 1); idx > last {
		return fmt.Errorf("histo: corrupt wire data: bin %d past the last bin %d", idx, last)
	}
	if c == 0 {
		return nil
	}
	if int(idx) >= len(h.counts) {
		h.grow(int(idx))
	}
	if h.counts[idx] == 0 {
		h.occ++
	}
	h.counts[idx] += c
	return nil
}
