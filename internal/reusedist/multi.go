package reusedist

import "reusetool/internal/trace"

// Granularity names one block size the collector measures distances at,
// with the capacity thresholds (in blocks) of the cache levels that share
// that block size. In the paper's Itanium2 setup, L2 and L3 share 128-byte
// lines while the TLB operates on 16KB pages, so a typical collector has
// two granularities.
type Granularity struct {
	Name       string
	BlockBits  uint
	Thresholds []uint64
	LevelNames []string // one per threshold, e.g. ["L2", "L3"]
}

// Collector runs one Engine per granularity over a single event stream.
// It implements trace.Handler.
type Collector struct {
	Grans   []Granularity
	Engines []*Engine
}

// NewCollectorWith builds a Collector with one engine per granularity.
// The engines share base's histogram resolution, sampling, capacity
// hints and context filter; block sizes and thresholds come from the
// granularities.
func NewCollectorWith(grans []Granularity, base Config) *Collector {
	c := &Collector{Grans: grans}
	for _, g := range grans {
		cfg := base
		cfg.BlockBits = g.BlockBits
		cfg.Thresholds = g.Thresholds
		c.Engines = append(c.Engines, New(cfg))
	}
	return c
}

// EnterScope implements trace.Handler.
func (c *Collector) EnterScope(s trace.ScopeID) {
	for _, e := range c.Engines {
		e.EnterScope(s)
	}
}

// ExitScope implements trace.Handler.
func (c *Collector) ExitScope(s trace.ScopeID) {
	for _, e := range c.Engines {
		e.ExitScope(s)
	}
}

// Access implements trace.Handler.
func (c *Collector) Access(ref trace.RefID, addr uint64, size uint32, write bool) {
	for _, e := range c.Engines {
		e.Access(ref, addr, size, write)
	}
}

// Engine returns the engine for the named granularity, or nil.
func (c *Collector) Engine(name string) *Engine {
	for i, g := range c.Grans {
		if g.Name == name {
			return c.Engines[i]
		}
	}
	return nil
}

// Level locates a cache level by name, returning its engine and threshold
// index, or (nil, -1) if not found.
func (c *Collector) Level(name string) (*Engine, int) {
	for i, g := range c.Grans {
		for j, ln := range g.LevelNames {
			if ln == name {
				return c.Engines[i], j
			}
		}
	}
	return nil, -1
}

// LevelAt locates a cache level by name and block size. Levels of
// different machines may share a name (every machine has an "L2"); the
// block size disambiguates when collecting for several hierarchies at
// once (cache.UnionGranularities).
func (c *Collector) LevelAt(name string, blockBits uint) (*Engine, int) {
	for i, g := range c.Grans {
		if g.BlockBits != blockBits {
			continue
		}
		for j, ln := range g.LevelNames {
			if ln == name {
				return c.Engines[i], j
			}
		}
	}
	return nil, -1
}
