package memctl

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"dstress/internal/addrmap"
	"dstress/internal/dram"
	"dstress/internal/xrand"
)

// rank0Loads draws n seeded loads into rank 0 of cfg's geometry: cached
// loads by address and by decoded row, and one in eight uncached. Half the
// addresses come from a hot set of at most half the cache's lines, so the
// stream mixes cache hits, row-buffer hits and evictions.
func rank0Loads(rng *xrand.Rand, cfg diffConfig, n int) []diffOp {
	words := uint64(cfg.geom.RankBytes() / 8)
	hot := make([]int64, max(1, min(24, cfg.cache.SizeBytes/cfg.cache.LineBytes/2)))
	for i := range hot {
		hot[i] = int64(rng.Uint64()%words) * 8
	}
	ops := make([]diffOp, n)
	for i := range ops {
		op := diffOp{kind: opLoad, addr: int64(rng.Uint64()%words) * 8}
		if rng.Uint64()%2 == 0 {
			op.addr = hot[rng.Uint64()%uint64(len(hot))]
		}
		switch rng.Uint64() % 8 {
		case 0:
			op.kind = opReadWordUncached
		case 1, 2, 3:
			op.kind = opLoadCol
		}
		ops[i] = op
	}
	return ops
}

// mirrorState is everything a mirror must leave as a full replay would:
// the tag words in set and recency order (with the sets LoadSweeps owes
// written), the open rows, the per-row rates and the seven counters.
type mirrorState struct {
	tags     []uint64
	openRow  []int32
	acts     map[dram.RowKey]float64
	counters [7]uint64
}

func snapshotMirror(c *Controller) mirrorState {
	reads, writes := c.DRAMTraffic()
	hits, misses, wbs := c.CacheStats()
	return mirrorState{
		tags:    settledTags(c.cache),
		openRow: slices.Clone(c.openRow),
		acts:    maps.Clone(c.ActsPerWindow()), // the controller refills its map
		counters: [7]uint64{c.Activations(), c.ElapsedNs(), reads, writes,
			hits, misses, wbs},
	}
}

// settledTags is c's tag words with the sets LoadSweeps owes written,
// leaving c's own as they are.
func settledTags(c *Cache) []uint64 {
	cp := *c
	cp.tags = slices.Clone(c.tags)
	cp.settle()
	return cp.tags
}

// mirrorConfigs are the differential configs plus set counts that do not
// divide a rank's line count, so that each rank shifts the set index by a
// different amount.
var mirrorConfigs = append(slices.Clone(diffConfigs),
	diffConfig{"sets5-direct", addrmap.Geometry{Ranks: 2, Banks: 8, Rows: 4, RowBytes: 512},
		CacheConfig{SizeBytes: 5 * 64, LineBytes: 64, Ways: 1}},
	diffConfig{"sets7-ways4", addrmap.Geometry{Ranks: 2, Banks: 4, Rows: 4, RowBytes: 512},
		CacheConfig{SizeBytes: 7 * 4 * 64, LineBytes: 64, Ways: 4}},
)

// TestMirrorMatchesFullReplay issues seeded rank-0 load streams on one
// controller and mirrors them, issues the same streams on every rank in
// turn on a twin, and requires the two to agree on the tag words, open
// rows, activation rates and counters — across every differential cache
// shape, 1 to 4 ranks and 4 to 64 rows. Streams of half and of three
// times the cache's line count leave sets partly and wholly filled, so
// both the older ranks' surviving lines and their eviction are covered.
func TestMirrorMatchesFullReplay(t *testing.T) {
	for _, cfg := range mirrorConfigs {
		for ranks := 1; ranks <= 4; ranks++ {
			for _, rows := range []int{4, 16, 64} {
				geom := cfg.geom
				geom.Ranks, geom.Rows = ranks, rows
				c := diffConfig{fmt.Sprintf("%s/ranks%d/rows%d", cfg.name, ranks, rows),
					geom, cfg.cache}
				lines := cfg.cache.SizeBytes / cfg.cache.LineBytes
				var hits uint64
				for seed, n := range []int{lines / 2, 3 * lines} {
					loads := rank0Loads(xrand.New(uint64(seed+1)), c, max(n, 64))
					mirror := newDiffController(t, geom, cfg.cache)
					full := newDiffController(t, geom, cfg.cache)
					// A dirty cache before ResetStats must not leak into either.
					mirror.WriteWord(0, 1)
					full.WriteWord(0, 1)
					mirror.ResetStats()
					full.ResetStats()
					for _, l := range loads {
						issueLoad(mirror, l, 0)
					}
					mirror.MirrorRank0()
					for rank := 0; rank < ranks; rank++ {
						for _, l := range loads {
							issueLoad(full, l, int64(rank)*geom.RankBytes())
						}
					}
					got, want := snapshotMirror(mirror), snapshotMirror(full)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %d loads: mirror left\n%+v\nfull replay left\n%+v",
							c.name, len(loads), got, want)
					}
					hits += got.counters[4]
				}
				if hits == 0 {
					t.Fatalf("%s: the load streams never hit the cache", c.name)
				}
			}
		}
	}
}

// TestMirrorRejectsBadState checks that MirrorRank0 panics, leaving every
// counter, tag and open row as it was, when anything but rank-0 loads
// happened since ResetStats, or when a cache line would straddle ranks.
func TestMirrorRejectsBadState(t *testing.T) {
	cfg := diffConfigs[1]
	geom := cfg.geom
	bad := map[string]func(c *Controller){
		"write":       func(c *Controller) { c.WriteWord(64, 1) },
		"rank-1 load": func(c *Controller) { c.Load(geom.RankBytes()) },
		"rank-1 uncached": func(c *Controller) {
			c.LoadUncached(c.RowAt(1, 3))
		},
		"bare ResetCounters": func(c *Controller) { c.ResetCounters() },
		"idle time":          func(c *Controller) { c.AdvanceNs(100) },
		"second mirror":      func(c *Controller) { c.MirrorRank0() },
	}
	for name, f := range bad {
		c := newDiffController(t, geom, cfg.cache)
		c.ResetStats()
		for _, l := range rank0Loads(xrand.New(1), cfg, 64) {
			issueLoad(c, l, 0)
		}
		f(c)
		before := snapshotMirror(c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MirrorRank0 did not panic", name)
				}
			}()
			c.MirrorRank0()
		}()
		if after := snapshotMirror(c); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a rejected MirrorRank0 moved the state\nbefore %+v\nafter  %+v",
				name, before, after)
		}
	}

	// 24-byte ranks cannot be whole 64-byte lines.
	c := newDiffController(t, addrmap.Geometry{Ranks: 2, Banks: 1, Rows: 3, RowBytes: 8},
		CacheConfig{SizeBytes: 256, LineBytes: 64, Ways: 2})
	c.Load(0)
	before := snapshotMirror(c)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("straddling lines: MirrorRank0 did not panic")
			}
		}()
		c.MirrorRank0()
	}()
	if after := snapshotMirror(c); !reflect.DeepEqual(after, before) {
		t.Errorf("straddling lines: a rejected MirrorRank0 moved the state")
	}
}
