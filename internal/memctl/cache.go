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

// Cache is a set-associative, write-allocate, write-back cache with LRU
// replacement. It keeps tags only: set s is the Ways words
// tags[s*Ways:(s+1)*Ways], most recently used first, each encoding one
// line as lineNo<<2 | valid<<1 | dirty, where 0 is an invalid way. A hit
// moves its word to the front; a miss drops the tail word (the LRU line,
// or an invalid way while the set is not yet full), shifts the rest down
// and inserts the new line at the front. Invalid ways therefore only ever
// sit at a set's tail, and which way holds a line is never observable.
// The first access allocates the tags: until then every way is invalid,
// so a cache nothing loads through (a data virus's) never holds them.
type Cache struct {
	cfg       CacheConfig
	tags      []uint64
	lineShift uint   // log2(LineBytes)
	numSets   uint64 // set count
	setMask   uint64 // numSets-1 when numSets is a power of two
	pow2Sets  bool
	// mirrorSrc is mirror's copy of the tags, allocated by its first call.
	mirrorSrc []uint64
	// mirrored is the tag rebuild Controller.MirrorRank0 still owes and
	// spread the tag words the controller's sweep shortcut still owes;
	// settle writes both. written is set by any write since the last
	// invalidate.
	mirrored mirrorDebt
	spread   sweepSpread
	written  bool

	hits, misses, writebacks uint64
}

// sweepSpread describes the sets Controller.LoadSweeps leaves to be
// written: for x in [1, sweeps), set s + x·lines (mod the set count)
// holds set s's lines shifted by x·lines, for every set s whose index is
// in [lo, lo+lines) mod class. A zero sweeps owes nothing.
type sweepSpread struct {
	sweeps           int
	lines, lo, class uint64
}

// mirrorDebt describes the rebuild Cache.mirror leaves to be written: the
// tags as a replay of rank 0's lines on ranks ranks-1 down to 1 would
// leave them, each rank stride lines on from the one before. A zero
// ranks owes nothing.
type mirrorDebt struct {
	ranks  int
	stride uint64
}

// Tag word bits below the line number.
const (
	tagDirty = 1 << iota
	tagValid
)

// maxCacheAddr bounds the addresses Access takes: their line numbers must
// leave the tag word's two flag bits free.
const maxCacheAddr = 1 << 61

// NewCache builds a cache from the configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := uint64(cfg.SizeBytes / (cfg.LineBytes * cfg.Ways))
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		numSets:   numSets,
		setMask:   numSets - 1,
		pow2Sets:  numSets&(numSets-1) == 0,
	}, nil
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit bool
	// WritebackAddr is the line address of a dirty line evicted by this
	// access; -1 when no write-back occurred.
	WritebackAddr int64
}

// Access looks up (and on miss, fills) the line containing addr, which
// must lie in [0, 2^61). Writes allocate and mark the line dirty. It does
// not write the tags a mirror or a sweep owes (settle): the controller
// writes them before any access but its sweeps' own, which never reach
// them and never follow a mirror.
func (c *Cache) Access(addr int64, write bool) AccessResult {
	if uint64(addr) >= maxCacheAddr {
		panic(fmt.Sprintf("memctl: cache address %#x out of range", addr))
	}
	if c.tags == nil {
		c.tags = make([]uint64, c.cfg.SizeBytes/c.cfg.LineBytes)
	}
	lineNo := uint64(addr) >> c.lineShift
	var set uint64
	if c.pow2Sets {
		set = lineNo & c.setMask
	} else {
		set = lineNo % c.numSets
	}
	n := c.cfg.Ways
	base := int(set) * n
	ways := c.tags[base : base+n : base+n]
	tag := lineNo<<2 | tagValid
	var dirty uint64
	if write {
		dirty = tagDirty
		c.written = true
	}

	// One pass both looks the line up and shifts the ways it passes down
	// by one, with the accessed line already at the front: a hit stops the
	// shift at the hit's way, and a miss shifts the whole set and leaves
	// the old tail in victim.
	victim := tag | dirty
	for i, w := range ways {
		ways[i] = victim
		if w&^tagDirty == tag {
			ways[0] |= w & tagDirty // a hit keeps the line's dirty bit
			c.hits++
			return AccessResult{Hit: true, WritebackAddr: -1}
		}
		victim = w
	}

	c.misses++
	res := AccessResult{Hit: false, WritebackAddr: -1}
	if victim&(tagValid|tagDirty) == tagValid|tagDirty {
		res.WritebackAddr = int64(victim>>2) << c.lineShift
		c.writebacks++
	}
	return res
}

// Flush invalidates the whole cache, returning the addresses of dirty lines
// (in no particular order) so the controller can write them back. It
// writes none of the tags owed: they are all clean, and invalidate drops
// them.
func (c *Cache) Flush() []int64 {
	var dirty []int64
	for _, w := range c.tags {
		if w&(tagValid|tagDirty) == tagValid|tagDirty {
			dirty = append(dirty, int64(w>>2)<<c.lineShift)
		}
	}
	c.invalidate()
	return dirty
}

// mirror owes the tag rebuild Controller.MirrorRank0 describes, which
// settle writes before anything next reads the tags; invalidate drops it
// unwritten. An access-virus deploy ends with the mirror and the next one
// starts with ResetStats, so no deploy writes it. Tags no access has
// allocated are all invalid, and mirror to themselves.
func (c *Cache) mirror(ranks int, stride uint64) {
	if c.tags != nil {
		c.mirrored = mirrorDebt{ranks: ranks, stride: stride}
	}
}

// writeMirror writes the rebuild c.mirrored owes: set s holds, for r from
// ranks-1 down to 0, the lines of set s - r·stride (mod the set count)
// shifted by r·stride, each set's in recency order, cut to Ways. It
// panics on a dirty word or a line at or above stride, which
// MirrorRank0's checks rule out. It runs before the sets a sweep owes are
// written: a rank is a whole number of rows, so moving a line by ranks
// keeps it in its sweep's set class, and writing the owed sets after the
// mirror leaves what writing them before it would.
func (c *Cache) writeMirror() {
	ranks, stride := c.mirrored.ranks, c.mirrored.stride
	c.mirrored = mirrorDebt{}
	if c.mirrorSrc == nil {
		c.mirrorSrc = make([]uint64, len(c.tags))
	}
	src := c.mirrorSrc
	copy(src, c.tags)
	for _, w := range src {
		if w&tagDirty != 0 || w>>2 >= stride {
			panic(fmt.Sprintf("memctl: cannot mirror tag word %#x of a %d-line rank", w, stride))
		}
	}
	n := uint64(c.cfg.Ways)
	shift := stride % c.numSets // the set shift of one rank
	for s := uint64(0); s < c.numSets; s++ {
		dst := c.tags[s*n : (s+1)*n]
		k := 0
		for r := ranks - 1; r >= 0 && k < len(dst); r-- {
			from := (s + c.numSets - uint64(r)*shift%c.numSets) % c.numSets
			for _, w := range src[from*n : (from+1)*n] {
				if w == 0 || k == len(dst) {
					break
				}
				dst[k] = w + (uint64(r)*stride)<<2
				k++
			}
		}
		clear(dst[k:])
	}
}

// settle writes the tags c owes, if any: the mirror's rebuild, then the
// sets c.spread owes.
func (c *Cache) settle() {
	if c.mirrored.ranks != 0 {
		c.writeMirror()
	}
	if c.spread.sweeps != 0 {
		c.writeSpread()
	}
}

// writeSpread writes the sets c.spread owes: each set of the first
// sweep's class, shifted by x·lines, for every later sweep x.
func (c *Cache) writeSpread() {
	sp := c.spread
	n := uint64(c.cfg.Ways)
	for s := uint64(0); s < c.numSets; s++ {
		if (s%sp.class+sp.class-sp.lo)%sp.class >= sp.lines {
			continue
		}
		src := c.tags[s*n : (s+1)*n]
		for x := uint64(1); x < uint64(sp.sweeps); x++ {
			t := (s + x*sp.lines) % c.numSets
			dst := c.tags[t*n : (t+1)*n]
			for i, w := range src {
				if w != 0 {
					w += (x * sp.lines) << 2
				}
				dst[i] = w
			}
		}
	}
	c.spread = sweepSpread{}
}

// invalidate drops every line, dirty or not, without writing any back.
func (c *Cache) invalidate() {
	clear(c.tags)
	c.mirrored = mirrorDebt{}
	c.spread = sweepSpread{}
	c.written = false
}

// Stats returns hit, miss and write-back counts since construction.
func (c *Cache) Stats() (hits, misses, writebacks uint64) {
	return c.hits, c.misses, c.writebacks
}
