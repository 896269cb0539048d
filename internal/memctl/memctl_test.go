package memctl

import (
	"testing"
	"testing/quick"

	"dstress/internal/dram"
)

func testController(t testing.TB) *Controller {
	t.Helper()
	dev, err := dram.NewDevice(dram.DefaultConfig(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{SizeBytes: 1024, LineBytes: 48, Ways: 2},  // non-power-of-two line
		{SizeBytes: 1000, LineBytes: 64, Ways: 2},  // not divisible
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},  // no ways
		{SizeBytes: -1024, LineBytes: 64, Ways: 2}, // negative
		{SizeBytes: 1024, LineBytes: -64, Ways: 2}, // negative line
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("bad cache config %d accepted", i)
		}
	}
	if err := DefaultCacheConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c, err := NewCache(CacheConfig{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(128, false).Hit {
		t.Fatal("cold access hit")
	}
	if !c.Access(128, false).Hit {
		t.Fatal("second access missed")
	}
	if !c.Access(160, false).Hit { // same 64-byte line
		t.Fatal("same-line access missed")
	}
	hits, misses, _ := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats: %d hits %d misses", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 2-set cache: lines 0,128,256 map to set 0 (line>>6 even).
	c, err := NewCache(CacheConfig{SizeBytes: 256, LineBytes: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, false)
	c.Access(128, false)
	c.Access(0, false)   // touch 0: 128 becomes LRU
	c.Access(256, false) // evicts 128
	if !c.Access(0, false).Hit {
		t.Fatal("MRU line evicted")
	}
	if c.Access(128, false).Hit {
		t.Fatal("LRU line not evicted")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c, err := NewCache(CacheConfig{SizeBytes: 128, LineBytes: 64, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, true) // dirty line 0 in set 0
	res := c.Access(128, false)
	if res.Hit || res.WritebackAddr != 0 {
		t.Fatalf("expected write-back of line 0, got %+v", res)
	}
	res = c.Access(256, false) // evicts clean line 128
	if res.WritebackAddr != -1 {
		t.Fatal("clean eviction produced write-back")
	}
}

func TestCacheFlushReturnsDirtyLines(t *testing.T) {
	c, err := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, true)
	c.Access(64, false)
	c.Access(128, true)
	dirty := c.Flush()
	if len(dirty) != 2 {
		t.Fatalf("flush returned %d dirty lines, want 2", len(dirty))
	}
	if c.Access(0, false).Hit {
		t.Fatal("flush did not invalidate")
	}
}

func TestControllerParameterBounds(t *testing.T) {
	c := testController(t)
	if err := c.SetTREFP(3.0); err == nil {
		t.Fatal("TREFP above platform max accepted")
	}
	if err := c.SetTREFP(0.01); err == nil {
		t.Fatal("TREFP below nominal accepted")
	}
	if err := c.SetVDD(1.3); err == nil {
		t.Fatal("VDD below vendor minimum accepted")
	}
	if err := c.SetVDD(1.6); err == nil {
		t.Fatal("VDD above nominal accepted")
	}
	if err := c.SetTREFP(2.283); err != nil {
		t.Fatal(err)
	}
	if err := c.SetVDD(1.428); err != nil {
		t.Fatal(err)
	}
	if c.TREFP() != 2.283 || c.VDD() != 1.428 {
		t.Fatal("parameters not stored")
	}
}

func TestReadWriteThroughCache(t *testing.T) {
	c := testController(t)
	c.WriteWord(0x1000, 0xDEAD)
	if v := c.ReadWord(0x1000); v != 0xDEAD {
		t.Fatalf("read back %x", v)
	}
	if v := c.ReadWord(0x2000); v != 0 {
		t.Fatalf("unwritten read %x, want 0", v)
	}
}

func TestActivationCountingRowBuffer(t *testing.T) {
	c := testController(t)
	// Sequential reads within one row: one activation.
	for a := int64(0); a < 8192; a += 8 {
		c.ReadWord(a)
	}
	if c.Activations() != 1 {
		t.Fatalf("sequential row read caused %d activations, want 1", c.Activations())
	}
	// A read in another row of the same bank reopens the row.
	c.ReadWord(8 * 8192) // chunk 8 = bank 0, row 1
	if c.Activations() != 2 {
		t.Fatalf("row switch caused %d activations, want 2", c.Activations())
	}
	// Returning to row 0 activates again.
	c.ReadWord(0) // cached! should not reach DRAM
	if c.Activations() != 2 {
		t.Fatalf("cached read reached DRAM: %d activations", c.Activations())
	}
}

func TestBankInterleavedAccessesDoNotConflict(t *testing.T) {
	c := testController(t)
	// Chunks 0..7 are rows in different banks: one activation each.
	for chunk := int64(0); chunk < 8; chunk++ {
		c.ReadWord(chunk * 8192)
	}
	if c.Activations() != 8 {
		t.Fatalf("%d activations, want 8", c.Activations())
	}
	// A second pass over uncached parts of those rows adds no activations.
	for chunk := int64(0); chunk < 8; chunk++ {
		c.ReadWord(chunk*8192 + 4096)
	}
	if c.Activations() != 8 {
		t.Fatalf("open rows reactivated: %d", c.Activations())
	}
}

func TestClockAdvances(t *testing.T) {
	c := testController(t)
	c.ReadWord(0) // miss
	if c.ElapsedNs() != MissLatencyNs {
		t.Fatalf("clock %d after miss", c.ElapsedNs())
	}
	c.ReadWord(8) // hit (same line)
	if c.ElapsedNs() != MissLatencyNs+HitLatencyNs {
		t.Fatalf("clock %d after hit", c.ElapsedNs())
	}
	c.AdvanceNs(1000)
	if c.ElapsedNs() != MissLatencyNs+HitLatencyNs+1000 {
		t.Fatal("AdvanceNs not applied")
	}
}

func TestActsPerWindowExtrapolation(t *testing.T) {
	c := testController(t)
	if err := c.SetTREFP(2.0); err != nil {
		t.Fatal(err)
	}
	// Thrash two rows of the same bank: every access activates.
	rowA := int64(0)        // bank0 row0
	rowB := int64(8 * 8192) // bank0 row1
	const n = 1000
	for i := 0; i < n; i++ {
		c.ReadWord(rowA + int64(i%128)*64) // distinct lines to defeat cache
		c.ReadWord(rowB + int64(i%128)*64)
	}
	acts := c.ActsPerWindow()
	if acts == nil {
		t.Fatal("no activation rates")
	}
	keyA := dram.RowKey{Rank: 0, Bank: 0, Row: 0}
	elapsed := float64(c.ElapsedNs()) * 1e-9
	// Both rows' 128 lines fit in the cache, so each row is activated
	// exactly 128 times (cold misses, alternating banks... same bank here,
	// so each cold miss reopens the row). Rate = 128/elapsed * TREFP.
	if acts[keyA] <= 0 {
		t.Fatal("row A has no rate")
	}
	want := 128.0 / elapsed * 2.0
	if acts[keyA] < want*0.99 || acts[keyA] > want*1.01 {
		t.Fatalf("row A rate %v, want %v", acts[keyA], want)
	}
}

func TestActsPerWindowEmptyWhenIdle(t *testing.T) {
	c := testController(t)
	if c.ActsPerWindow() != nil {
		t.Fatal("idle controller reported activation rates")
	}
}

func TestResetStats(t *testing.T) {
	c := testController(t)
	if err := c.SetTREFP(2.283); err != nil {
		t.Fatal(err)
	}
	c.WriteWord(0, 1)
	c.ReadWord(8192)
	c.ResetStats()
	if c.ElapsedNs() != 0 || c.Activations() != 0 {
		t.Fatal("stats not cleared")
	}
	r, w := c.DRAMTraffic()
	if r != 0 || w != 0 {
		t.Fatal("traffic not cleared")
	}
	if c.TREFP() != 2.283 {
		t.Fatal("operating parameters lost on reset")
	}
	// Data survives reset.
	if v := c.ReadWord(0); v != 1 {
		t.Fatalf("data lost on reset: %x", v)
	}
}

func TestWriteReadPropertyRoundTrip(t *testing.T) {
	c := testController(t)
	total := c.Device().Geometry().TotalBytes()
	f := func(raw uint32, v uint64) bool {
		addr := (int64(raw) * 8) % total
		c.WriteWord(addr, v)
		return c.ReadWord(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestThrashingBeatsCachedAccessRate(t *testing.T) {
	// A working set larger than the cache must produce a far higher
	// DRAM access rate than a cache-resident one — the core of the
	// template-1 vs template-2 difference.
	big := testController(t)
	for pass := 0; pass < 4; pass++ {
		for a := int64(0); a < 512<<10; a += 64 { // 512 KiB > 256 KiB cache
			big.ReadWord(a)
		}
	}
	_, bigMisses, _ := big.CacheStats()

	small := testController(t)
	for pass := 0; pass < 64; pass++ {
		for a := int64(0); a < 64<<10; a += 64 { // 64 KiB fits
			small.ReadWord(a)
		}
	}
	_, smallMisses, _ := small.CacheStats()
	if bigMisses < smallMisses*4 {
		t.Fatalf("thrashing misses %d not ≫ cached misses %d",
			bigMisses, smallMisses)
	}
}

func BenchmarkReadWordHit(b *testing.B) {
	c := testController(b)
	c.ReadWord(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadWord(0)
	}
}

func BenchmarkReadWordThrash(b *testing.B) {
	c := testController(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadWord(int64(i%16384) * 64 * 8)
	}
}

func TestUncachedReadAlwaysReachesDRAM(t *testing.T) {
	c := testController(t)
	c.WriteWord(0, 0xBEEF)
	for i := 0; i < 10; i++ {
		if v := c.ReadWordUncached(0); v != 0xBEEF {
			t.Fatalf("uncached read %x", v)
		}
	}
	reads, _ := c.DRAMTraffic()
	if reads < 10 {
		t.Fatalf("uncached reads were cached: %d DRAM reads", reads)
	}
}

func TestUncachedReadActivatesOnConflict(t *testing.T) {
	c := testController(t)
	before := c.Activations()
	// Alternate two rows of the same bank: every uncached read activates.
	for i := 0; i < 10; i++ {
		c.ReadWordUncached(0)        // bank0 row0
		c.ReadWordUncached(8 * 8192) // bank0 row1
	}
	if got := c.Activations() - before; got != 20 {
		t.Fatalf("%d activations, want 20", got)
	}
}

// TestWritebackBufferPreservesRowLocality: two interleaved streams — a
// sequential read stream and the write-backs of a sequential dirty stream —
// must not reopen rows on every access; the write queue drains in bursts.
func TestWritebackBufferPreservesRowLocality(t *testing.T) {
	c := testController(t)
	// Dirty a large sequential range (512 KiB > cache) so subsequent
	// misses continuously evict dirty lines.
	for a := int64(0); a < 512<<10; a += 64 {
		c.WriteWord(a, 1)
	}
	actsBefore := c.Activations()
	// Sequential read sweep over a second range: each miss evicts a dirty
	// line from the first range.
	for a := int64(512 << 10); a < 1024<<10; a += 64 {
		c.ReadWord(a)
	}
	acts := c.Activations() - actsBefore
	// 512 KiB of reads = 64 chunks, plus ~64 chunks of write-backs: with
	// burst draining, activations stay near the chunk count (128) plus
	// burst-boundary conflicts — far below the 16384 accesses.
	if acts > 1000 {
		t.Fatalf("write-backs destroyed row locality: %d activations", acts)
	}
	if acts < 100 {
		t.Fatalf("suspiciously few activations: %d", acts)
	}
}

func TestActsPerWindowDrainsPendingWritebacks(t *testing.T) {
	c := testController(t)
	if err := c.SetTREFP(1.0); err != nil {
		t.Fatal(err)
	}
	// Dirty exactly one cache set's worth plus one to force one eviction,
	// leaving it queued (below the drain threshold).
	for i := int64(0); i <= 8; i++ {
		c.WriteWord(i*256<<10, 7) // same set, distinct tags
	}
	_, w := c.DRAMTraffic()
	acts := c.ActsPerWindow()
	_, w2 := c.DRAMTraffic()
	if w2 <= w {
		t.Fatal("ActsPerWindow did not drain the write-back queue")
	}
	if acts == nil {
		t.Fatal("no activation rates")
	}
}

func TestResetCountersKeepsCache(t *testing.T) {
	c := testController(t)
	c.ReadWord(0) // warm one line
	c.ResetCounters()
	if c.ElapsedNs() != 0 || c.Activations() != 0 {
		t.Fatal("counters not cleared")
	}
	c.ReadWord(8) // same line: must hit
	hits, _, _ := c.CacheStats()
	if hits == 0 {
		t.Fatal("ResetCounters flushed the cache")
	}
	if c.ElapsedNs() != HitLatencyNs {
		t.Fatalf("post-reset clock %d, want one hit", c.ElapsedNs())
	}
}

// TestDataOnlyControllerNeverAllocatesActs: a data virus's deploy fills
// memory through the device, resets the statistics and reads the
// activation rates, but never issues a load, so the dense activation
// array (8 MiB at the 65536-row cap) is never allocated. The first load
// allocates it.
func TestDataOnlyControllerNeverAllocatesActs(t *testing.T) {
	c := testController(t)
	for i := 0; i < 3; i++ {
		c.Device().FillAllUniform(0x3333333333333333)
		c.ResetStats()
		if acts := c.ActsPerWindow(); acts != nil {
			t.Fatalf("data-only deploy has activation rates %v", acts)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		c.ResetStats()
		c.ActsPerWindow()
	}); allocs != 0 {
		t.Fatalf("ResetStats+ActsPerWindow allocated %v times", allocs)
	}
	if c.acts != nil {
		t.Fatalf("activation array allocated (%d counters) without a load", len(c.acts))
	}
	c.Load(0)
	g := c.Device().Geometry()
	if want := g.Ranks * g.Banks * g.Rows; len(c.acts) != want {
		t.Fatalf("after a load: %d counters, want %d", len(c.acts), want)
	}
}

// TestDecodedLoadsRejectBadInput pins the bounds checks of the decoded
// path: RowAt panics outside the geometry, LoadCol on a column outside
// the row, and Cache.Access on an address its tag word cannot hold — each
// before any counter moves.
func TestDecodedLoadsRejectBadInput(t *testing.T) {
	c := testController(t)
	g := c.Device().Geometry()
	r := c.RowAt(1, g.Banks*g.Rows-1)
	bad := map[string]func(){
		"rank":      func() { c.RowAt(g.Ranks, 0) },
		"chunk":     func() { c.RowAt(0, g.Banks*g.Rows) },
		"col -1":    func() { c.LoadCol(r, -1) },
		"col words": func() { c.LoadCol(r, g.WordsPerRow()) },
		"cache":     func() { c.cache.Access(maxCacheAddr, false) },
		"negative":  func() { c.cache.Access(-64, false) },
	}
	for name, f := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	hits, misses, _ := c.CacheStats()
	if hits+misses != 0 || c.ElapsedNs() != 0 || c.Activations() != 0 {
		t.Fatalf("rejected loads moved counters: %d hits, %d misses, %d ns, %d activations",
			hits, misses, c.ElapsedNs(), c.Activations())
	}
	// The last chunk of rank 1 is the last row of the last bank.
	c.LoadCol(r, g.WordsPerRow()-1)
	if c.Activations() != 1 || c.acts[len(c.acts)-1] != 1 {
		t.Fatalf("a load of the last word activated %d rows, the last one %d times",
			c.Activations(), c.acts[len(c.acts)-1])
	}
}
