package memctl

import (
	"fmt"
	"maps"
	"math"
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

// settledTags is c's tag words with everything owed written (the mirror's
// rebuild and the sets LoadSweeps owes), leaving c's own as they are. Tags
// no access has allocated read as all invalid words.
func settledTags(c *Cache) []uint64 {
	cp := *c
	cp.tags = slices.Clone(c.tags)
	cp.mirrorSrc = nil
	if cp.tags == nil {
		cp.tags = make([]uint64, c.cfg.SizeBytes/c.cfg.LineBytes)
	}
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

// anyRankOps draws n seeded loads and writes over every rank of geom:
// loads by address and by decoded row, reads and writes, half of them
// into a hot set, so they hit lines a mirror left on every rank.
func anyRankOps(rng *xrand.Rand, geom addrmap.Geometry, n int) []diffOp {
	words := uint64(geom.TotalBytes() / 8)
	hot := make([]int64, 16)
	for i := range hot {
		hot[i] = int64(rng.Uint64()%words) * 8
	}
	ops := make([]diffOp, n)
	for i := range ops {
		op := diffOp{addr: int64(rng.Uint64()%words) * 8, val: rng.Uint64()}
		if rng.Uint64()%2 == 0 {
			op.addr = hot[rng.Uint64()%uint64(len(hot))]
		}
		op.kind = []int{opLoad, opLoadCol, opReadWord, opWriteWord}[rng.Uint64()%4]
		ops[i] = op
	}
	return ops
}

// issueAny issues a load or write of anyRankOps on c.
func issueAny(c *Controller, op diffOp) {
	switch op.kind {
	case opReadWord:
		c.ReadWord(op.addr)
	case opWriteWord:
		c.WriteWord(op.addr, op.val)
	default:
		issueLoad(c, op, 0)
	}
}

// owedStates builds, on controllers of cfg's cache over geom, the two
// states a mirror can leave owed: rank-0 loads one by one (the mirror
// owed alone) and, when the shortcut fits cfg, LoadSweeps calls (the
// mirror and the sweeps' sets owed). Each state is a function that runs
// it on a controller after ResetStats, up to and including MirrorRank0;
// with settleFirst it writes the sweeps' sets just before the mirror.
func owedStates(cfg diffConfig, geom addrmap.Geometry) map[string]func(c *Controller, settleFirst bool) {
	c := diffConfig{cfg.name, geom, cfg.cache}
	loads := rank0Loads(xrand.New(3), c, 3*cfg.cache.SizeBytes/cfg.cache.LineBytes)
	states := map[string]func(c *Controller, settleFirst bool){
		"loads": func(c *Controller, _ bool) {
			for _, l := range loads {
				issueLoad(c, l, 0)
			}
			c.MirrorRank0()
		},
	}
	for _, s := range sweepShapes(cfg) {
		if s.took && !s.fell {
			calls := sweepCalls(xrand.New(5), geom, s, 24)
			states["sweeps/"+s.name] = func(c *Controller, settleFirst bool) {
				issueSweeps(c, calls, s.sweeps, s.stride)
				if settleFirst {
					c.cache.settle()
				}
				c.MirrorRank0()
			}
			break
		}
	}
	return states
}

// TestMirrorOwedLoads leaves a mirror owed, alone and after LoadSweeps
// calls whose sets are owed too, and then issues loads and writes on
// every rank. Three twins wrote the tags eagerly: one the mirror's
// rebuild alone after MirrorRank0, leaving the sweeps' sets owed (what
// MirrorRank0 did when it rebuilt the tags itself), one everything after
// it, mirror first, and one the sweeps' sets before MirrorRank0 and the
// mirror after it. The loads must see the eagerly written tags: the four
// controllers agree on every tag word, open row, rate and counter after
// the first load and after the last, on every sweep config at 2 to 4
// ranks.
func TestMirrorOwedLoads(t *testing.T) {
	sweptStates := 0
	for _, cfg := range sweepConfigs {
		for ranks := 2; ranks <= 4; ranks++ {
			geom := cfg.geom
			geom.Ranks, geom.Rows = ranks, 16
			for name, state := range owedStates(cfg, geom) {
				name := fmt.Sprintf("%s/ranks%d/%s", cfg.name, ranks, name)
				// owed, mirror written, all written, sweeps then mirror written
				ctls := make([]*Controller, 4)
				for i := range ctls {
					ctls[i] = newDiffController(t, geom, cfg.cache)
					ctls[i].ResetStats()
					state(ctls[i], i == 3)
				}
				owed := ctls[0]
				if owed.cache.mirrored.ranks == 0 {
					t.Fatalf("%s: MirrorRank0 wrote the tags", name)
				}
				if owed.cache.spread.sweeps != 0 {
					sweptStates++
				}
				ctls[1].cache.writeMirror()
				ctls[2].cache.settle()
				ctls[3].cache.settle()
				for i, op := range anyRankOps(xrand.New(uint64(ranks)), geom, 400) {
					for _, c := range ctls {
						issueAny(c, op)
					}
					if i != 0 && i != 399 {
						continue
					}
					want := snapshotMirror(ctls[2])
					for j, c := range ctls {
						if j == 2 {
							continue
						}
						if !slices.Equal(c.cache.tags, ctls[2].cache.tags) {
							t.Fatalf("%s op %d: controller %d's tags differ", name, i, j)
						}
						if got := snapshotMirror(c); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s op %d: controller %d left\n%+v\nthe eager one\n%+v",
								name, i, j, got, want)
						}
					}
				}
			}
		}
	}
	if sweptStates == 0 {
		t.Fatal("no state owed a mirror and a sweep at once")
	}
}

// TestMirrorOwedFlush flushes caches whose mirror is owed. A flush right
// after MirrorRank0 returns no line, as on a full replay, and leaves the
// cache empty: the loads after it all miss. A write into every line the
// mirror placed, on every rank, hits it and dirties it, so the flush
// after those writes returns exactly the mirrored lines, as the full
// replay's does.
func TestMirrorOwedFlush(t *testing.T) {
	for _, cfg := range mirrorConfigs {
		geom := cfg.geom
		geom.Ranks, geom.Rows = 3, 16
		loads := rank0Loads(xrand.New(7), diffConfig{cfg.name, geom, cfg.cache},
			2*cfg.cache.SizeBytes/cfg.cache.LineBytes)
		owed := func() *Controller {
			c := newDiffController(t, geom, cfg.cache)
			c.ResetStats()
			for _, l := range loads {
				issueLoad(c, l, 0)
			}
			c.MirrorRank0()
			return c
		}
		full := newDiffController(t, geom, cfg.cache)
		for rank := 0; rank < geom.Ranks; rank++ {
			for _, l := range loads {
				issueLoad(full, l, int64(rank)*geom.RankBytes())
			}
		}

		c := owed()
		if dirty := c.cache.Flush(); len(dirty) != 0 {
			t.Fatalf("%s: flushing an owed mirror returned %#x", cfg.name, dirty)
		}
		_, misses0, _ := c.CacheStats()
		for _, l := range loads {
			issueLoad(c, l, int64(geom.Ranks-1)*geom.RankBytes())
		}
		if _, misses, _ := c.CacheStats(); misses-misses0 == 0 {
			t.Fatalf("%s: no load missed after the flush", cfg.name)
		}

		c = owed()
		var lines []int64
		for _, w := range settledTags(c.cache) {
			if w != 0 {
				lines = append(lines, int64(w>>2)<<c.cache.lineShift)
			}
		}
		hits0, _, _ := c.CacheStats()
		for _, ctl := range []*Controller{c, full} {
			for _, a := range lines {
				ctl.WriteWord(a, 1)
			}
		}
		if hits, _, _ := c.CacheStats(); hits-hits0 != uint64(len(lines)) {
			t.Fatalf("%s: %d of %d writes into mirrored lines hit",
				cfg.name, hits-hits0, len(lines))
		}
		got, want := c.cache.Flush(), full.cache.Flush()
		slices.Sort(got)
		slices.Sort(want)
		slices.Sort(lines)
		if !slices.Equal(got, lines) || !slices.Equal(want, lines) {
			t.Fatalf("%s: flush after writing the mirrored lines returned\n%#x\nthe full replay's\n%#x\nthe lines\n%#x",
				cfg.name, got, want, lines)
		}
	}
}

// TestMirrorOwedReset checks that ResetStats drops an owed mirror, and the
// sweeps' sets owed with it, without writing either: the controller
// never builds the mirror's scratch copy, and what follows runs as on a
// controller that never mirrored.
func TestMirrorOwedReset(t *testing.T) {
	for _, cfg := range sweepConfigs {
		geom := cfg.geom
		geom.Ranks, geom.Rows = 2, 16
		for name, state := range owedStates(cfg, geom) {
			name := cfg.name + "/" + name
			c := newDiffController(t, geom, cfg.cache)
			twin := newDiffController(t, geom, cfg.cache)
			for i := 0; i < 3; i++ {
				c.ResetStats()
				state(c, false)
			}
			c.ResetStats()
			twin.ResetStats()
			if c.cache.mirrored != (mirrorDebt{}) || c.cache.spread != (sweepSpread{}) {
				t.Fatalf("%s: ResetStats kept a debt: mirror %+v, sweeps %+v",
					name, c.cache.mirrored, c.cache.spread)
			}
			if c.cache.mirrorSrc != nil {
				t.Fatalf("%s: a mirror was written", name)
			}
			for _, op := range anyRankOps(xrand.New(9), geom, 200) {
				issueAny(c, op)
				issueAny(twin, op)
			}
			// The twin's counters never saw the three deploys.
			c.hits0, c.misses0 = twin.hits0, twin.misses0
			c.cache.hits, c.cache.misses = twin.cache.hits, twin.cache.misses
			if got, want := snapshotMirror(c), snapshotMirror(twin); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: after a dropped mirror\n%+v\nwant\n%+v", name, got, want)
			}
		}
	}
}

// TestDenseActsMatchMap runs a sequence of deploys on every mirror config
// at 1 to 4 ranks — mirrored rank-0 loads, then loads and writes on every
// rank, whose drained write-backs activate rows too — and after each
// requires DenseActsPerWindow to hold, for every row, the bits of
// ActsPerWindow's value, and 0 for every row the map lacks, among them
// rows the previous deploy touched.
func TestDenseActsMatchMap(t *testing.T) {
	stale := 0
	for _, cfg := range mirrorConfigs {
		for ranks := 1; ranks <= 4; ranks++ {
			geom := cfg.geom
			geom.Ranks, geom.Rows = ranks, 16
			c := newDiffController(t, geom, cfg.cache)
			c.ResetStats()
			if c.DenseActsPerWindow() != nil || c.ActsPerWindow() != nil {
				t.Fatalf("%s/ranks%d: rates before any load", cfg.name, ranks)
			}
			prev := map[dram.RowKey]float64{}
			for d := 0; d < 6; d++ {
				rng := xrand.New(uint64(ranks*10 + d))
				c.ResetStats()
				if d%2 == 0 {
					for _, l := range rank0Loads(rng, diffConfig{cfg.name, geom, cfg.cache}, 96) {
						issueLoad(c, l, 0)
					}
					c.MirrorRank0()
				} else {
					for _, op := range anyRankOps(rng, geom, 96) {
						issueAny(c, op)
					}
				}
				dense := c.DenseActsPerWindow()
				m := maps.Clone(c.ActsPerWindow())
				if len(dense) != geom.Ranks*geom.Banks*geom.Rows || len(m) == 0 {
					t.Fatalf("%s/ranks%d deploy %d: %d dense rates, %d mapped",
						cfg.name, ranks, d, len(dense), len(m))
				}
				for i, v := range dense {
					bank := i / geom.Rows
					k := dram.RowKey{Rank: int32(bank / geom.Banks),
						Bank: int32(bank % geom.Banks), Row: int32(i % geom.Rows)}
					want, ok := m[k]
					if math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%s/ranks%d deploy %d: row %+v rate %v, map %v (present %v)",
							cfg.name, ranks, d, k, v, want, ok)
					}
					if _, was := prev[k]; was && !ok {
						stale++
					}
				}
				prev = m
			}
		}
	}
	if stale == 0 {
		t.Fatal("no deploy left a row of the previous one untouched")
	}
}
