package predict

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"

	"reusetool/internal/histo"
)

// Encode serializes a model with the versioned gob format. The version
// travels inside the payload (Model.FormatVersion), so Decode can
// reject models written by an incompatible build before interpreting
// anything else.
func Encode(m *Model) ([]byte, error) {
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("predict: cannot encode model format v%d (this build writes v%d)",
			m.FormatVersion, FormatVersion)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("predict: encode model: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes a model and rejects unknown format versions and
// any shape Predict cannot serve (see check).
func Decode(data []byte) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, fmt.Errorf("predict: decode model: %w", err)
	}
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("predict: model format v%d unsupported (this build reads v%d)",
			m.FormatVersion, FormatVersion)
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	return &m, nil
}

// check refuses the decoded shapes Predict would panic on or size an
// allocation by: a distance-bin count outside [1, maxDistBins], a
// pattern whose distance fits disagree with it, and a granularity
// resolution histo.NewRes refuses.
func (m *Model) check() error {
	if m.DistBins < 1 || m.DistBins > maxDistBins {
		return fmt.Errorf("predict: corrupt model: %d distance bins", m.DistBins)
	}
	for _, g := range m.Grans {
		if !histo.ValidRes(uint64(g.Res)) {
			return fmt.Errorf("predict: corrupt model: granularity %s has resolution %d", g.Name, g.Res)
		}
		for _, p := range g.Patterns {
			if len(p.Dists) != m.DistBins {
				return fmt.Errorf("predict: corrupt model: granularity %s has a pattern with %d distance fits, want %d",
					g.Name, len(p.Dists), m.DistBins)
			}
		}
	}
	return nil
}

// Checksum fingerprints an encoded model (FNV-1a). Cache entries store
// it in the Fingerprint slot so cache verification can detect
// truncated or corrupted model payloads without decoding them.
func Checksum(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// Verify checks an encoded model against its stored checksum and
// confirms it decodes under this build's format version.
func Verify(data []byte, sum uint64) error {
	if got := Checksum(data); got != sum {
		return fmt.Errorf("predict: model checksum mismatch: got %016x want %016x", got, sum)
	}
	_, err := Decode(data)
	return err
}
