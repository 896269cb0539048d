// Package memctl models the path between a program's explicit memory
// accesses and the DRAM array: a set-associative write-back CPU cache and a
// per-bank row buffer. This is the layer that makes the paper's access-virus
// results what they are — explicit loads are "partially handled by caches",
// so a virus only disturbs DRAM rows at the rate its misses re-activate
// them, far below clflush-style rowhammer intensity.
package memctl

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes the modelled last-level cache.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size
	Ways      int // associativity
}

// DefaultCacheConfig matches a modest server LLC slice: 256 KiB, 8-way,
// 64-byte lines.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8}
}

// Validate reports whether the configuration is usable.
func (c CacheConfig) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("memctl: LineBytes = %d (must be a power of two)",
			c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("memctl: Ways = %d", c.Ways)
	case c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("memctl: SizeBytes = %d not divisible into %d-way sets of %d-byte lines",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	return nil
}

type cacheLine struct {
	tag   int64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative, write-allocate, write-back cache with LRU
// replacement. Its lines sit in one flat slice, set s at
// lines[s*Ways:(s+1)*Ways].
type Cache struct {
	cfg       CacheConfig
	lines     []cacheLine
	lineShift uint   // log2(LineBytes)
	numSets   uint64 // set count
	setMask   uint64 // numSets-1 when numSets is a power of two
	pow2Sets  bool
	tick      uint64

	hits, misses, writebacks uint64
}

// NewCache builds a cache from the configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := uint64(cfg.SizeBytes / (cfg.LineBytes * cfg.Ways))
	return &Cache{
		cfg:       cfg,
		lines:     make([]cacheLine, cfg.SizeBytes/cfg.LineBytes),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		numSets:   numSets,
		setMask:   numSets - 1,
		pow2Sets:  numSets&(numSets-1) == 0,
	}, nil
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr int64) int64 {
	return addr &^ int64(c.cfg.LineBytes-1)
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit bool
	// WritebackAddr is the line address of a dirty line evicted by this
	// access; -1 when no write-back occurred.
	WritebackAddr int64
}

// Access looks up (and on miss, fills) the line containing addr. Writes
// allocate and mark the line dirty.
func (c *Cache) Access(addr int64, write bool) AccessResult {
	c.tick++
	line := c.LineAddr(addr)
	// line is aligned, so the shift is exactly the division by LineBytes.
	lineNo := uint64(line >> c.lineShift)
	var set uint64
	if c.pow2Sets {
		set = lineNo & c.setMask
	} else {
		set = lineNo % c.numSets
	}
	n := c.cfg.Ways
	base := int(set) * n
	ways := c.lines[base : base+n : base+n]

	for i := range ways {
		if ways[i].valid && ways[i].tag == line {
			ways[i].used = c.tick
			if write {
				ways[i].dirty = true
			}
			c.hits++
			return AccessResult{Hit: true, WritebackAddr: -1}
		}
	}

	c.misses++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	res := AccessResult{Hit: false, WritebackAddr: -1}
	if ways[victim].valid && ways[victim].dirty {
		res.WritebackAddr = ways[victim].tag
		c.writebacks++
	}
	ways[victim] = cacheLine{tag: line, valid: true, dirty: write, used: c.tick}
	return res
}

// Flush invalidates the whole cache, returning the addresses of dirty lines
// (in no particular order) so the controller can write them back.
func (c *Cache) Flush() []int64 {
	var dirty []int64
	for _, l := range c.lines {
		if l.valid && l.dirty {
			dirty = append(dirty, l.tag)
		}
	}
	c.invalidate()
	return dirty
}

// invalidate drops every line, dirty or not, without writing any back.
func (c *Cache) invalidate() { clear(c.lines) }

// Stats returns hit, miss and write-back counts since construction.
func (c *Cache) Stats() (hits, misses, writebacks uint64) {
	return c.hits, c.misses, c.writebacks
}
