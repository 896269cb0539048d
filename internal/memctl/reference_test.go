package memctl

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dstress/internal/addrmap"
	"dstress/internal/dram"
	"dstress/internal/xrand"
)

// refLine is one way of refController's cache.
type refLine struct {
	tag          int64
	valid, dirty bool
	used         uint64
}

// refController is the controller model written the plain way: a slice
// per cache set scanned for its LRU way, and the row buffer and activation
// counts in maps keyed by bank and row. The differential tests hold the
// Controller's dense counters and recency-ordered tag cache to it, op for
// op.
type refController struct {
	geom                     addrmap.Geometry
	lineBytes                int64
	sets                     [][]refLine
	tick                     uint64
	openRow                  map[[2]int]int
	acts                     map[dram.RowKey]uint64
	mem                      map[int64]uint64
	wbQueue                  []int64
	trefp                    float64
	clockNs, activations     uint64
	reads, writes            uint64
	hits, misses, writebacks uint64
	bursts                   int // full write-back queues drained
	flushedDirty             int // dirty lines flush returned
}

func newRefController(geom addrmap.Geometry, cfg CacheConfig, trefp float64) *refController {
	r := &refController{geom: geom, lineBytes: int64(cfg.LineBytes),
		mem: map[int64]uint64{}, trefp: trefp}
	r.sets = make([][]refLine, cfg.SizeBytes/(cfg.LineBytes*cfg.Ways))
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	r.resetStats()
	return r
}

func (r *refController) dram(addr int64, write bool) {
	l := r.geom.Map(addr)
	if open, ok := r.openRow[[2]int{l.Rank, l.Bank}]; !ok || open != l.Row {
		r.openRow[[2]int{l.Rank, l.Bank}] = l.Row
		r.acts[dram.Key(l)]++
		r.activations++
	}
	if write {
		r.writes++
	} else {
		r.reads++
	}
}

func (r *refController) drain() {
	for _, a := range r.wbQueue {
		r.dram(a, true)
	}
	r.wbQueue = r.wbQueue[:0]
}

// cached is one access through the cache: hit, or miss with LRU victim,
// queued write-back of a dirty victim and a line fill.
func (r *refController) cached(addr int64, write bool) {
	r.geom.Map(addr) // the controller rejects a bad address first
	r.tick++
	line := addr / r.lineBytes * r.lineBytes
	ways := r.sets[line/r.lineBytes%int64(len(r.sets))]
	for i := range ways {
		if ways[i].valid && ways[i].tag == line {
			ways[i].used = r.tick
			ways[i].dirty = ways[i].dirty || write
			r.hits++
			r.clockNs += HitLatencyNs
			return
		}
	}
	r.misses++
	r.clockNs += MissLatencyNs
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
	if ways[victim].valid && ways[victim].dirty {
		r.writebacks++
		if r.wbQueue = append(r.wbQueue, ways[victim].tag); len(r.wbQueue) >= wbQueueDepth {
			r.drain()
			r.bursts++
		}
	}
	ways[victim] = refLine{tag: line, valid: true, dirty: write, used: r.tick}
	r.dram(addr, false)
}

// flush invalidates the cache and returns its dirty lines' addresses.
func (r *refController) flush() []int64 {
	var dirty []int64
	for _, ways := range r.sets {
		for _, l := range ways {
			if l.valid && l.dirty {
				dirty = append(dirty, l.tag)
			}
		}
		clear(ways)
	}
	r.flushedDirty += len(dirty)
	return dirty
}

func (r *refController) uncached(addr int64) {
	r.clockNs += MissLatencyNs
	r.dram(addr, false)
}

func (r *refController) actsPerWindow() map[dram.RowKey]float64 {
	r.drain()
	if r.clockNs == 0 || len(r.acts) == 0 {
		return nil
	}
	out := map[dram.RowKey]float64{}
	for k, n := range r.acts {
		out[k] = float64(n) / (float64(r.clockNs) * 1e-9) * r.trefp
	}
	return out
}

// tagWords is the reference cache in the Cache's tag layout: each set's
// valid lines, most recently used first, as lineNo<<2 | valid<<1 | dirty,
// then zero words for its invalid ways.
func (r *refController) tagWords() []uint64 {
	var out []uint64
	for _, ways := range r.sets {
		lines := slices.Clone(ways)
		slices.SortFunc(lines, func(a, b refLine) int {
			switch {
			case a.valid != b.valid:
				if a.valid {
					return -1
				}
				return 1
			case a.used > b.used:
				return -1
			case a.used < b.used:
				return 1
			}
			return 0
		})
		for _, l := range lines {
			var w uint64
			if l.valid {
				w = uint64(l.tag/r.lineBytes)<<2 | tagValid
				if l.dirty {
					w |= tagDirty
				}
			}
			out = append(out, w)
		}
	}
	return out
}

func (r *refController) resetStats() {
	for _, ways := range r.sets {
		clear(ways)
	}
	r.openRow = map[[2]int]int{}
	r.resetCounters()
}

func (r *refController) resetCounters() {
	r.wbQueue = r.wbQueue[:0]
	r.acts = map[dram.RowKey]uint64{}
	r.clockNs, r.activations, r.reads, r.writes = 0, 0, 0, 0
}

// diffConfig is one geometry and cache shape of the differential suite.
type diffConfig struct {
	name  string
	geom  addrmap.Geometry
	cache CacheConfig
}

var diffConfigs = []diffConfig{
	{"default", addrmap.Default(64), DefaultCacheConfig()}, // 512 sets
	{"rows5-sets3", addrmap.Geometry{Ranks: 2, Banks: 8, Rows: 5, RowBytes: 1024},
		CacheConfig{SizeBytes: 384, LineBytes: 64, Ways: 2}},
	{"banks3-rows7-sets6", addrmap.Geometry{Ranks: 1, Banks: 3, Rows: 7, RowBytes: 512},
		CacheConfig{SizeBytes: 1536, LineBytes: 128, Ways: 2}},
	{"one-set", addrmap.Geometry{Ranks: 2, Banks: 8, Rows: 4, RowBytes: 256},
		CacheConfig{SizeBytes: 512, LineBytes: 64, Ways: 8}},
	// The edges of a set's recency list: one way has nothing to shift,
	// sixteen ways shift far.
	{"direct-mapped", addrmap.Geometry{Ranks: 2, Banks: 4, Rows: 8, RowBytes: 512},
		CacheConfig{SizeBytes: 2048, LineBytes: 64, Ways: 1}},
	{"ways16-sets3", addrmap.Geometry{Ranks: 2, Banks: 8, Rows: 6, RowBytes: 1024},
		CacheConfig{SizeBytes: 3072, LineBytes: 64, Ways: 16}},
}

// Controller operations of the differential op stream.
const (
	opReadWord = iota
	opLoad
	opReadWordUncached
	opWriteWord
	opResetStats
	opResetCounters
	opActsPerWindow
	opLoadCol // Load through RowAt and LoadCol
	opFlush   // Cache.Flush, compared as a set of dirty line addresses
	// opMirror is a mirrored segment: ResetStats, then seg's rank-0 loads,
	// then MirrorRank0 on the Controller, while the reference issues seg
	// on every rank in turn. The whole cache is compared after it.
	opMirror
	// opSweeps is a swept segment: ResetStats, then seg's rank-0 loads as
	// LoadSweeps calls of the shape val encodes (sweepsShape), then
	// MirrorRank0 if the shape says so, while the reference issues every
	// sweep's loads one by one, on every rank in turn if mirrored. The
	// whole cache is compared after it.
	opSweeps
	numOps
)

type diffOp struct {
	kind int
	addr int64
	val  uint64
	// seg is opMirror's loads (opLoad, opLoadCol or opReadWordUncached),
	// or opSweeps's pass-0 loads (opLoadCol), each with val 1 if it
	// starts a LoadSweeps call.
	seg []diffOp
}

// diffPair is a Controller and the reference, driven in lockstep.
type diffPair struct {
	t   testing.TB
	cfg diffConfig
	ctl *Controller
	ref *refController
}

const diffTREFP = 1.0

// newDiffController builds a Controller over a fresh device of the given
// geometry, refreshing every diffTREFP seconds.
func newDiffController(t testing.TB, geom addrmap.Geometry, cache CacheConfig) *Controller {
	t.Helper()
	dcfg := dram.DefaultConfig(geom.Rows, 1)
	dcfg.Geometry = geom
	dev, err := dram.NewDevice(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(Config{Cache: cache}, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetTREFP(diffTREFP); err != nil {
		t.Fatal(err)
	}
	return ctl
}

func newDiffPair(t testing.TB, cfg diffConfig) *diffPair {
	t.Helper()
	return &diffPair{t: t, cfg: cfg, ctl: newDiffController(t, cfg.geom, cfg.cache),
		ref: newRefController(cfg.geom, cfg.cache, diffTREFP)}
}

// issueLoad issues load op, shifted by shift bytes, on a Controller:
// opLoad through Load, opLoadCol through RowAt and LoadCol, and
// opReadWordUncached through LoadUncached.
func issueLoad(c *Controller, op diffOp, shift int64) {
	addr := op.addr + shift
	l := c.geom.Map(addr)
	switch op.kind {
	case opLoad:
		c.Load(addr)
	case opLoadCol:
		c.LoadCol(c.RowAt(l.Rank, c.geom.ChunkIndex(l)), l.Col)
	case opReadWordUncached:
		c.LoadUncached(c.RowAt(l.Rank, c.geom.ChunkIndex(l)))
	default:
		panic(fmt.Sprintf("op %d is not a load", op.kind))
	}
}

// apply runs op on both models and compares everything observable:
// after every op the clock, activation, traffic and cache counters and the
// activation count of the op's own row, and on each ActsPerWindow op the
// whole per-row rate map. ActsPerWindow is not called after every op
// because it drains the write-back queue, which would then never fill.
func (p *diffPair) apply(i int, op diffOp) {
	p.t.Helper()
	c, r := p.ctl, p.ref
	switch op.kind {
	case opReadWord:
		r.cached(op.addr, false)
		if got, want := c.ReadWord(op.addr), r.mem[op.addr]; got != want {
			p.t.Fatalf("%s op %d: ReadWord(%#x) = %#x, want %#x",
				p.cfg.name, i, op.addr, got, want)
		}
	case opLoad:
		r.cached(op.addr, false)
		c.Load(op.addr)
	case opReadWordUncached:
		r.uncached(op.addr)
		if got, want := c.ReadWordUncached(op.addr), r.mem[op.addr]; got != want {
			p.t.Fatalf("%s op %d: ReadWordUncached(%#x) = %#x, want %#x",
				p.cfg.name, i, op.addr, got, want)
		}
	case opWriteWord:
		r.cached(op.addr, true)
		r.mem[op.addr] = op.val
		c.WriteWord(op.addr, op.val)
	case opResetStats:
		r.resetStats()
		c.ResetStats()
	case opResetCounters:
		r.resetCounters()
		c.ResetCounters()
	case opActsPerWindow:
		if got, want := c.ActsPerWindow(), r.actsPerWindow(); !reflect.DeepEqual(got, want) {
			p.t.Fatalf("%s op %d: ActsPerWindow\n got %v\nwant %v",
				p.cfg.name, i, got, want)
		}
	case opLoadCol:
		r.cached(op.addr, false)
		l := p.cfg.geom.Map(op.addr)
		c.LoadCol(c.RowAt(l.Rank, p.cfg.geom.ChunkIndex(l)), l.Col)
	case opFlush:
		got, want := c.cache.Flush(), r.flush()
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			p.t.Fatalf("%s op %d: Flush dirty lines\n got %#x\nwant %#x",
				p.cfg.name, i, got, want)
		}
	case opMirror:
		r.resetStats()
		for rank := 0; rank < p.cfg.geom.Ranks; rank++ {
			shift := int64(rank) * p.cfg.geom.RankBytes()
			for _, l := range op.seg {
				if l.kind == opReadWordUncached {
					r.uncached(l.addr + shift)
				} else {
					r.cached(l.addr+shift, false)
				}
			}
		}
		c.ResetStats()
		for _, l := range op.seg {
			issueLoad(c, l, 0)
		}
		c.MirrorRank0()
		if got, want := settledTags(c.cache), r.tagWords(); !slices.Equal(got, want) {
			p.t.Fatalf("%s op %d: mirrored tags\n got %#x\nwant %#x",
				p.cfg.name, i, got, want)
		}
	case opSweeps:
		geom := p.cfg.geom
		sweeps, stride, mirror := sweepsShape(op.val, p.cfg)
		calls := sweepSegCalls(op.seg)
		ranks := 1
		if mirror {
			ranks = geom.Ranks
		}
		r.resetStats()
		for rank := 0; rank < ranks; rank++ {
			shift := int64(rank) * geom.RankBytes()
			for _, call := range calls {
				for x := range sweeps {
					for _, l := range call {
						col := geom.Map(l.addr).Col
						next := (col + x*stride) % geom.WordsPerRow()
						r.cached(l.addr+shift+int64(next-col)*8, false)
					}
				}
			}
		}
		c.ResetStats()
		for _, call := range calls {
			rows := make([]RowRef, len(call))
			cols := make([]int32, len(call))
			for j, l := range call {
				loc := geom.Map(l.addr)
				rows[j], cols[j] = c.RowAt(0, geom.ChunkIndex(loc)), int32(loc.Col)
			}
			c.LoadSweeps(rows, inOrder(len(rows)), cols, sweeps, stride)
		}
		if mirror {
			c.MirrorRank0()
		}
		if got, want := settledTags(c.cache), r.tagWords(); !slices.Equal(got, want) {
			p.t.Fatalf("%s op %d: swept tags\n got %#x\nwant %#x",
				p.cfg.name, i, got, want)
		}
	}
	l := p.cfg.geom.Map(op.addr)
	var rowActs uint64
	if c.acts != nil {
		rowActs = c.acts[(l.Rank*p.cfg.geom.Banks+l.Bank)*p.cfg.geom.Rows+l.Row]
	}
	reads, writes := c.DRAMTraffic()
	hits, misses, wbs := c.CacheStats()
	got := []uint64{rowActs, c.Activations(), c.ElapsedNs(), reads, writes, hits, misses, wbs}
	want := []uint64{r.acts[dram.Key(l)], r.activations, r.clockNs, r.reads, r.writes,
		r.hits, r.misses, r.writebacks}
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("%s op %d (%+v): [row-acts acts clock reads writes hits misses wbs]\n got %v\nwant %v",
			p.cfg.name, i, op, got, want)
	}
}

// randomOps draws a seeded op stream for cfg. Half the addresses come from
// a small hot set, so the stream mixes cache hits, row-buffer hits, dirty
// evictions and full write-back bursts with cold misses. Draining and
// resetting ops are rare next to the cache size, so the cache cycles
// between two resets and the write-back queue fills between two drains.
func randomOps(rng *xrand.Rand, cfg diffConfig, n int) []diffOp {
	words := uint64(cfg.geom.TotalBytes() / 8)
	span := max(256, 4*uint64(cfg.cache.SizeBytes/cfg.cache.LineBytes))
	hot := make([]int64, 24)
	for i := range hot {
		hot[i] = int64(rng.Uint64()%words) * 8
	}
	ops := make([]diffOp, n)
	for i := range ops {
		op := diffOp{addr: int64(rng.Uint64()%words) * 8, val: rng.Uint64()}
		if rng.Uint64()%2 == 0 {
			op.addr = hot[rng.Uint64()%uint64(len(hot))]
		}
		switch k := rng.Uint64() % span; {
		case k == 0:
			op.kind = opResetStats
		case k == 1:
			op.kind = opResetCounters
		case k == 2:
			op.kind = opFlush
		case k < 5:
			op.kind = opActsPerWindow
		case k < span/16:
			op.kind = opReadWordUncached
		default:
			op.kind = []int{opReadWord, opLoad, opWriteWord, opLoadCol}[k%4]
		}
		ops[i] = op
	}
	return ops
}

// TestControllerMatchesReference drives the Controller and the reference
// with seeded random op streams on every differential config, among them
// non-power-of-two set and row counts, and requires them to agree after
// every op. Each config must exercise hits, dirty write-backs, full
// write-back bursts, flushes of dirty lines and activations.
func TestControllerMatchesReference(t *testing.T) {
	for _, cfg := range diffConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			// About eight resets per stream.
			n := 8 * max(256, 4*cfg.cache.SizeBytes/cfg.cache.LineBytes)
			var bursts, flushed int
			var hits, wbs, acts uint64
			for seed := uint64(1); seed <= 4; seed++ {
				p := newDiffPair(t, cfg)
				for i, op := range randomOps(xrand.New(seed), cfg, n) {
					p.apply(i, op)
				}
				p.apply(n, diffOp{kind: opActsPerWindow})
				bursts += p.ref.bursts
				flushed += p.ref.flushedDirty
				hits += p.ref.hits
				wbs += p.ref.writebacks
				acts += p.ref.activations
			}
			if bursts == 0 || flushed == 0 || hits == 0 || wbs == 0 || acts == 0 {
				t.Fatalf("op streams missed a path: %d bursts, %d flushed dirty lines, %d hits, %d write-backs, %d activations",
					bursts, flushed, hits, wbs, acts)
			}
		})
	}
}

// mirrorLoads are the load kinds of an opMirror segment.
var mirrorLoads = []int{opLoad, opLoadCol, opReadWordUncached}

// sweepsShape decodes an opSweeps val: bits 6-9 are the sweeps less one,
// bits 10-12 the stride in cache lines and bit 13 one more word, and bit 14
// asks for MirrorRank0.
func sweepsShape(val uint64, cfg diffConfig) (sweeps, stride int, mirror bool) {
	return 1 + int(val>>6%16), int(val>>10%8)*cfg.cache.LineBytes/8 + int(val>>13%2),
		val>>14%2 == 1
}

// sweepSegCalls splits an opSweeps segment into its LoadSweeps calls.
func sweepSegCalls(seg []diffOp) [][]diffOp {
	var calls [][]diffOp
	for i, l := range seg {
		if i == 0 || l.val == 1 {
			calls = append(calls, nil)
		}
		calls[len(calls)-1] = append(calls[len(calls)-1], l)
	}
	return calls
}

// sweepSegment draws an opSweeps segment of n calls into line 0 of
// rank-0 rows (sweepCalls), at most 8n loads, with val (sweeps 2, a
// one-line stride, mirrored), which the shortcut fits wherever g is at
// least 2.
func sweepSegment(rng *xrand.Rand, cfg diffConfig, n int) diffOp {
	op := diffOp{kind: opSweeps, val: 1<<6 | 1<<10 | 1<<14}
	line0 := sweepShape{window: func(int) (int, int) { return 0, cfg.cache.LineBytes / 8 }}
	for _, call := range sweepCalls(rng, cfg.geom, line0, n) {
		for j, chunk := range call.chunks {
			l := diffOp{kind: opLoadCol, addr: cfg.geom.ChunkAddr(0, chunk) + int64(call.cols[j])*8}
			if j == 0 {
				l.val = 1 // starts a call
			}
			op.seg = append(op.seg, l)
		}
	}
	return op
}

// decodeOps turns arbitrary bytes into a config choice and an op stream
// with in-range addresses: one config byte, then 9 bytes per op (kind,
// then a little-endian word index folded into the address space). An
// opMirror or opSweeps record's word, mod 64, is its segment length k,
// and the next k records are its loads, each word index folded into rank
// 0: an opMirror load's kind mod 3 picks the load, and an opSweeps
// load's kind mod 2 is 1 if it starts a call. The rest of an opSweeps
// word is its shape (sweepsShape).
func decodeOps(data []byte) (diffConfig, []diffOp) {
	if len(data) == 0 {
		return diffConfigs[0], nil
	}
	cfg := diffConfigs[int(data[0])%len(diffConfigs)]
	words := uint64(cfg.geom.TotalBytes() / 8)
	rankWords := uint64(cfg.geom.RankBytes() / 8)
	var ops []diffOp
	var seg *diffOp // the opMirror still taking loads
	for b := data[1:]; len(b) >= 9; b = b[9:] {
		w := binary.LittleEndian.Uint64(b[1:9])
		if seg != nil {
			l := diffOp{kind: mirrorLoads[int(b[0])%len(mirrorLoads)], addr: int64(w%rankWords) * 8}
			if seg.kind == opSweeps {
				l.kind, l.val = opLoadCol, uint64(b[0]%2)
			}
			seg.seg = append(seg.seg, l)
			if len(seg.seg) == cap(seg.seg) {
				seg = nil
			}
			continue
		}
		op := diffOp{kind: int(b[0]) % numOps, addr: int64(w%words) * 8, val: w}
		if op.kind == opMirror || op.kind == opSweeps {
			op.addr, op.val = 0, w&^63
			if k := int(w % 64); k > 0 {
				op.seg = make([]diffOp, 0, k)
			}
		}
		ops = append(ops, op)
		if op.seg != nil {
			seg = &ops[len(ops)-1]
		}
	}
	return cfg, ops
}

// encodeOp appends decodeOps's records for op: its kind byte and word
// index, then, for opMirror and opSweeps, one record per load of its
// segment.
func encodeOp(b []byte, op diffOp) []byte {
	w := uint64(op.addr / 8)
	if op.kind == opMirror || op.kind == opSweeps {
		w = op.val | uint64(len(op.seg))
	}
	b = appendRecord(b, byte(op.kind), w)
	for _, l := range op.seg {
		kind := byte(slices.Index(mirrorLoads, l.kind))
		if op.kind == opSweeps {
			kind = byte(l.val)
		}
		b = appendRecord(b, kind, uint64(l.addr/8))
	}
	return b
}

func appendRecord(b []byte, kind byte, w uint64) []byte {
	return binary.LittleEndian.AppendUint64(append(b, kind), w)
}

// FuzzControllerTrace runs the differential comparison on fuzzer-chosen op
// streams, mirrored and swept segments among them.
func FuzzControllerTrace(f *testing.F) {
	for i, cfg := range diffConfigs {
		seed := []byte{byte(i)}
		rng := xrand.New(uint64(i))
		for _, op := range randomOps(rng, cfg, 64) {
			seed = encodeOp(seed, op)
		}
		seed = encodeOp(seed, diffOp{kind: opMirror, seg: rank0Loads(rng, cfg, 48)})
		for _, op := range randomOps(rng, cfg, 16) {
			seed = encodeOp(seed, op)
		}
		seed = encodeOp(seed, sweepSegment(rng, cfg, 6))
		for _, op := range randomOps(rng, cfg, 16) {
			seed = encodeOp(seed, op)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ops := decodeOps(data)
		p := newDiffPair(t, cfg)
		for i, op := range ops {
			p.apply(i, op)
		}
		p.apply(len(ops), diffOp{kind: opActsPerWindow})
	})
}
