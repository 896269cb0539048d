package memctl

import (
	"fmt"

	"dstress/internal/addrmap"
	"dstress/internal/dram"
)

// Latencies of the modelled memory hierarchy. Only their ratio matters for
// the access-rate extrapolation, but the absolute values anchor simulated
// time so activation counts can be expressed per refresh window.
const (
	HitLatencyNs  = 10
	MissLatencyNs = 100
)

// Platform limits of the X-Gene 2 firmware interface used in the paper.
const (
	MinTREFP = 0.064 // nominal DDR3 refresh period (seconds)
	MaxTREFP = 2.283 // maximum the platform accepts (35x nominal)
	MinVDD   = 1.425 // vendor minimum; below this the server crashes
	MaxVDD   = 1.5   // nominal supply voltage
)

// Config describes one memory-controller unit (MCU).
type Config struct {
	Cache CacheConfig
}

// DefaultConfig returns the standard MCU model.
func DefaultConfig() Config { return Config{Cache: DefaultCacheConfig()} }

// Controller is one MCU: it owns a DIMM, applies the operating parameters,
// and routes program accesses through the cache and row-buffer models while
// counting row activations.
type Controller struct {
	dev   *dram.Device
	geom  addrmap.Geometry
	cache *Cache
	words int // geom.WordsPerRow()

	trefp float64
	vdd   float64

	// openRow is each bank's open row, indexed rank*Banks+bank; -1 marks a
	// closed bank.
	openRow []int32
	// acts counts activations per row, indexed (rank*Banks+bank)*Rows+row.
	// The first activation allocates it, so a controller that never issues
	// a load (a data virus's deploys) never holds it. touched lists the
	// indexes with a nonzero count, which keeps resets and ActsPerWindow
	// proportional to the rows a virus reached rather than to the device.
	acts    []uint64
	touched []int
	wbQueue []int64
	// rates is ActsPerWindow's result, cleared and refilled by each call.
	// denseRates is DenseActsPerWindow's, laid out as acts and allocated
	// by its first call; it is zero outside touched, which ResetCounters
	// keeps by zeroing the touched entries.
	rates      map[dram.RowKey]float64
	denseRates []float64

	clockNs     uint64
	activations uint64
	dramReads   uint64
	dramWrites  uint64

	// mirrorable holds while everything since the last ResetStats was
	// loads: no write, bare ResetCounters, idle time or mirror. hits0 and
	// misses0 are the cache counters ResetStats saw. MirrorRank0 reads
	// all three.
	mirrorable     bool
	hits0, misses0 uint64

	// sweep is LoadSweeps's state since the last ResetStats, and
	// missRows its scratch: the rows a first sweep missed in, in order.
	sweep    sweepState
	missRows []RowRef
}

// sweepState is what LoadSweeps needs to know of the calls since the last
// ResetStats.
type sweepState struct {
	// ok holds while nothing but LoadSweeps ran: no other load, write,
	// bare ResetCounters, idle time or mirror.
	ok bool
	// sweeps and stride are the calls' shape; 0 sweeps before the first.
	sweeps, stride int
	// spread is the set classes of the first call that took the
	// shortcut; plain is set by the first that could not, after which
	// every call loads one by one.
	spread sweepSpread
	plain  bool
}

// NewController wraps a device in an MCU at nominal operating parameters.
func NewController(cfg Config, dev *dram.Device) (*Controller, error) {
	cache, err := NewCache(cfg.Cache)
	if err != nil {
		return nil, err
	}
	geom := dev.Geometry()
	c := &Controller{
		dev:        dev,
		geom:       geom,
		cache:      cache,
		words:      geom.WordsPerRow(),
		trefp:      MinTREFP,
		vdd:        MaxVDD,
		openRow:    make([]int32, geom.Ranks*geom.Banks),
		mirrorable: true,
		sweep:      sweepState{ok: true},
	}
	c.closeRows()
	return c, nil
}

// Device returns the DIMM behind this MCU.
func (c *Controller) Device() *dram.Device { return c.dev }

// SetTREFP programs the refresh period, bounded by the platform limits.
func (c *Controller) SetTREFP(seconds float64) error {
	if seconds < MinTREFP || seconds > MaxTREFP {
		return fmt.Errorf("memctl: TREFP %v outside [%v, %v]",
			seconds, MinTREFP, MaxTREFP)
	}
	c.trefp = seconds
	return nil
}

// TREFP returns the programmed refresh period.
func (c *Controller) TREFP() float64 { return c.trefp }

// SetVDD programs the DIMM supply voltage, bounded by the platform limits.
// (On the real server an undervolt below 1.425 V crashes the machine; here
// it is simply rejected.)
func (c *Controller) SetVDD(volts float64) error {
	if volts < MinVDD || volts > MaxVDD {
		return fmt.Errorf("memctl: VDD %v outside [%v, %v]", volts, MinVDD, MaxVDD)
	}
	c.vdd = volts
	return nil
}

// VDD returns the programmed supply voltage.
func (c *Controller) VDD() float64 { return c.vdd }

// wbQueueDepth is the controller's write-back buffer depth: evicted dirty
// lines are queued and drained in bursts, preserving row locality the way
// real memory controllers' write queues do. Draining writebacks one by one
// interleaved with demand reads would re-open rows on every bank conflict.
const wbQueueDepth = 32

// queueWriteback buffers an evicted dirty line for a later burst drain.
func (c *Controller) queueWriteback(addr int64) {
	c.wbQueue = append(c.wbQueue, addr)
	if len(c.wbQueue) >= wbQueueDepth {
		c.drainWritebacks()
	}
}

// drainWritebacks issues all queued write-backs back to back.
func (c *Controller) drainWritebacks() {
	for _, addr := range c.wbQueue {
		c.open(c.rowOf(addr, c.geom.Map(addr)), 1)
		c.dramWrites++
	}
	c.wbQueue = c.wbQueue[:0]
}

// RowRef is a DRAM row decoded once: the byte address of its column 0 and
// its dense bank and row indexes. Loads through a RowRef skip the address
// decode, so a caller that replays many loads into one row resolves it
// once with RowAt and then issues LoadCol per word.
type RowRef struct {
	base int64
	bank int32 // rank*Banks + bank
	row  int32
}

// RowAt resolves chunk i of a rank (addrmap.Geometry.ChunkIndex) to its
// row. It panics on a rank or chunk outside the geometry.
func (c *Controller) RowAt(rank, chunk int) RowRef {
	l := c.geom.ChunkLoc(rank, chunk)
	return c.rowOf(c.geom.Unmap(l), l)
}

// rowOf is the RowRef of the row holding addr, which maps to l.
func (c *Controller) rowOf(addr int64, l addrmap.Loc) RowRef {
	return RowRef{
		base: addr - int64(l.Col)*8,
		bank: int32(l.Rank*c.geom.Banks + l.Bank),
		row:  int32(l.Row),
	}
}

// open opens row r for a line transfer between controller and DRAM through
// the per-bank row buffer, counting n activations of it if its bank had
// another row open.
func (c *Controller) open(r RowRef, n uint64) {
	if c.openRow[r.bank] != r.row {
		c.openRow[r.bank] = r.row
		c.activate(int(r.bank)*c.geom.Rows+int(r.row), n)
	}
}

// activate counts n activations of the row at acts index i.
func (c *Controller) activate(i int, n uint64) {
	if c.acts == nil {
		c.acts = make([]uint64, len(c.openRow)*c.geom.Rows)
	}
	if c.acts[i] == 0 {
		c.touched = append(c.touched, i)
	}
	c.acts[i] += n
	c.activations += n
}

// cached routes one access at addr (in row r) through the cache, once the
// tags a mirror or a LoadSweeps stream owes are written: a hit costs
// HitLatencyNs; a miss queues the victim's write-back and fills the line
// from DRAM.
func (c *Controller) cached(addr int64, r RowRef, write bool) {
	c.cache.settle()
	res := c.cache.Access(addr, write)
	if res.Hit {
		c.clockNs += HitLatencyNs
		return
	}
	c.clockNs += MissLatencyNs
	if res.WritebackAddr >= 0 {
		c.queueWriteback(res.WritebackAddr)
	}
	c.open(r, 1) // line fill
	c.dramReads++
}

// Load issues a cached read of the word at a byte address for its traffic
// alone: the cache, row-buffer, clock and traffic effects of ReadWord
// without fetching the value. It decodes the address and then does what
// LoadCol does.
func (c *Controller) Load(addr int64) {
	l := c.geom.Map(addr)
	c.LoadCol(c.rowOf(addr, l), l.Col)
}

// LoadCol issues a cached read of word col of row r for its traffic alone.
// Access viruses replay loads whose values nothing consumes, many per row,
// so they resolve each row once (RowAt) and load by column. It panics on a
// column outside [0, WordsPerRow).
func (c *Controller) LoadCol(r RowRef, col int) {
	if uint(col) >= uint(c.words) {
		panic(fmt.Sprintf("memctl: column %d outside a %d-word row", col, c.words))
	}
	c.sweep.ok = false
	c.cached(r.base+int64(col)*8, r, false)
}

// ReadWord loads the 64-bit word at a byte address through the cache
// hierarchy. Unwritten memory reads as zero.
func (c *Controller) ReadWord(addr int64) uint64 {
	loc := c.geom.Map(addr)
	c.sweep.ok = false
	c.cached(addr, c.rowOf(addr, loc), false)
	v, _ := c.dev.ReadWord(loc)
	return v
}

// ReadWordUncached loads a word bypassing the cache, as a load preceded by
// a cache-line flush (clflush) does. Every call reaches DRAM and can
// reopen the row — the access mode of published rowhammer attacks, with an
// order of magnitude more activations per second than cached loads.
func (c *Controller) ReadWordUncached(addr int64) uint64 {
	loc := c.geom.Map(addr)
	c.LoadUncached(c.rowOf(addr, loc))
	v, _ := c.dev.ReadWord(loc)
	return v
}

// LoadUncached issues ReadWordUncached's traffic into row r without
// fetching a value. Which word of the row it reads changes nothing: an
// uncached load touches no cache line, only the row buffer.
func (c *Controller) LoadUncached(r RowRef) {
	c.sweep.ok = false
	c.clockNs += MissLatencyNs
	c.open(r, 1)
	c.dramReads++
}

// WriteWord stores a 64-bit word. Data is propagated to the device image
// immediately (so evaluation always sees current data), while traffic and
// activations follow the write-back cache model.
func (c *Controller) WriteWord(addr int64, v uint64) {
	loc := c.geom.Map(addr)
	c.mirrorable = false
	c.sweep.ok = false
	c.cached(addr, c.rowOf(addr, loc), true)
	c.dev.WriteWord(loc, v)
}

// ElapsedNs returns the simulated time consumed by accesses so far.
func (c *Controller) ElapsedNs() uint64 { return c.clockNs }

// AdvanceNs adds idle time to the clock (e.g. compute-only phases).
func (c *Controller) AdvanceNs(ns uint64) {
	c.clockNs += ns
	c.mirrorable = false
	c.sweep.ok = false
}

// Activations returns the total row-activation count.
func (c *Controller) Activations() uint64 { return c.activations }

// CacheStats exposes the cache hit/miss/write-back counters.
func (c *Controller) CacheStats() (hits, misses, writebacks uint64) {
	return c.cache.Stats()
}

// DRAMTraffic returns line reads and writes that reached the device.
func (c *Controller) DRAMTraffic() (reads, writes uint64) {
	return c.dramReads, c.dramWrites
}

// ActsPerWindow converts the accumulated activation counts into activations
// per refresh window (the disturbance unit of the device model),
// extrapolating the observed access rate over the programmed TREFP. It
// returns nil if no time has elapsed. The map is the controller's own and
// is refilled by every call: it is valid until the controller's next
// ActsPerWindow, ResetStats or ResetCounters, and callers must not keep or
// mutate it.
func (c *Controller) ActsPerWindow() map[dram.RowKey]float64 {
	c.drainWritebacks()
	if c.clockNs == 0 || len(c.touched) == 0 {
		return nil
	}
	seconds := float64(c.clockNs) * 1e-9
	if c.rates == nil {
		c.rates = make(map[dram.RowKey]float64, len(c.touched))
	}
	out := c.rates
	clear(out)
	for _, i := range c.touched {
		bank := i / c.geom.Rows
		k := dram.RowKey{
			Rank: int32(bank / c.geom.Banks),
			Bank: int32(bank % c.geom.Banks),
			Row:  int32(i % c.geom.Rows),
		}
		out[k] = c.rate(i, seconds)
	}
	return out
}

// rate is the per-window activations of the row at acts index i over
// seconds of simulated time.
func (c *Controller) rate(i int, seconds float64) float64 {
	return float64(c.acts[i]) / seconds * c.trefp
}

// DenseActsPerWindow is ActsPerWindow laid out as the activation counters
// are: entry (rank*Banks+bank)*Rows+row is the row's rate, bit for bit
// the map's value, and 0 for every row the map lacks, rows an earlier
// deploy touched among them. It returns nil when ActsPerWindow would. The
// slice is the controller's own and refilled by every call: it is valid
// until the controller's next DenseActsPerWindow, ResetStats or
// ResetCounters, and callers must not keep or mutate it. The dram batch
// kernel reads its hammer pressure from it by index, where the map would
// hash a RowKey per lookup.
func (c *Controller) DenseActsPerWindow() []float64 {
	c.drainWritebacks()
	if c.clockNs == 0 || len(c.touched) == 0 {
		return nil
	}
	seconds := float64(c.clockNs) * 1e-9
	if c.denseRates == nil {
		c.denseRates = make([]float64, len(c.acts))
	}
	for _, i := range c.touched {
		c.denseRates[i] = c.rate(i, seconds)
	}
	return c.denseRates
}

// ResetStats clears the clock, activation counters and row-buffer state and
// invalidates the cache (dirty lines are dropped, not written back).
// Operating parameters are preserved.
func (c *Controller) ResetStats() {
	c.cache.invalidate()
	c.closeRows()
	c.ResetCounters()
	c.hits0, c.misses0, _ = c.cache.Stats()
	c.mirrorable = true
	c.sweep = sweepState{ok: true}
}

// closeRows precharges every bank.
func (c *Controller) closeRows() {
	for i := range c.openRow {
		c.openRow[i] = -1
	}
}

// ResetCounters zeroes the clock and traffic counters but keeps the cache
// and row-buffer state. Measurements that must exclude cold-start effects
// warm the hierarchy up first, reset the counters, and then run the
// measured phase — otherwise a short epoch of compulsory misses would be
// extrapolated as the steady-state access rate.
func (c *Controller) ResetCounters() {
	c.mirrorable = false
	c.sweep.ok = false
	c.wbQueue = c.wbQueue[:0]
	for _, i := range c.touched {
		c.acts[i] = 0
	}
	if c.denseRates != nil {
		for _, i := range c.touched {
			c.denseRates[i] = 0
		}
	}
	c.touched = c.touched[:0]
	c.clockNs = 0
	c.activations = 0
	c.dramReads = 0
	c.dramWrites = 0
}

// MirrorRank0 extends the loads issued since the last ResetStats, all of
// them clean loads into rank 0, to every rank: it leaves the controller
// exactly as replaying the same load stream on rank 0, then rank 1, and so
// on up to the last rank would. An access virus hammers every rank's
// neighbours of the same rank-0 rows, so it issues rank 0's loads and
// mirrors them.
//
// The other ranks' traffic is determined by rank 0's. After ResetStats the
// cache is invalid and every bank closed. Row buffers are per (rank,
// bank), so rank r activates rank 0's rows, row for row. A rank spans a
// whole number of cache lines, so shifting a line by r ranks shifts its
// set index by one constant, mapping sets one to one: lines that share a
// set on rank 0 share one on rank r. Every line of an earlier rank was
// last used before rank r's first load, so LRU evicts those lines before
// any of rank r's, exactly as it would invalid ways, and no rank-r load
// can hit them: rank r hits and misses as rank 0 did. Each set thus ends
// as the last rank's lines in recency order, then the rank before's, down
// to rank 0's, cut to Ways; and clean loads queue no write-backs.
//
// The counters and row state are updated at once. The tag words are
// owed (Cache.mirror): nothing reads them before the next deploy's
// ResetStats drops them, so a deploy never rebuilds them, and any later
// access writes them first.
//
// It panics, before changing any state, unless since the last ResetStats
// nothing but loads was issued (LoadSweeps's among them; no write, bare
// ResetCounters, AdvanceNs or earlier MirrorRank0), no write-back is
// queued and every touched row is on rank 0, or if a rank does not span a
// whole number of cache lines. Such loads leave no tag word dirty and no
// line off rank 0: a load into a row of rank r opens a bank of rank r,
// which every ResetStats closes, so it touches a row of rank r when it
// misses.
func (c *Controller) MirrorRank0() {
	g := c.geom
	rankRows := g.Banks * g.Rows
	switch {
	case !c.mirrorable:
		panic("memctl: MirrorRank0 after a write, a bare ResetCounters, idle time or a mirror")
	case len(c.wbQueue) != 0:
		panic("memctl: MirrorRank0 with queued write-backs")
	case g.RankBytes()%int64(c.cache.cfg.LineBytes) != 0:
		panic(fmt.Sprintf("memctl: MirrorRank0 on %d-byte ranks of %d-byte lines",
			g.RankBytes(), c.cache.cfg.LineBytes))
	}
	for _, i := range c.touched {
		if i >= rankRows {
			panic(fmt.Sprintf("memctl: MirrorRank0 with traffic on rank %d", i/rankRows))
		}
	}
	c.cache.mirror(g.Ranks, uint64(g.RankBytes())>>c.cache.lineShift)

	n := len(c.touched)
	for r := 1; r < g.Ranks; r++ {
		copy(c.openRow[r*g.Banks:(r+1)*g.Banks], c.openRow[:g.Banks])
		for _, i := range c.touched[:n] {
			j := i + r*rankRows
			c.acts[j] = c.acts[i]
			c.touched = append(c.touched, j)
		}
	}
	ranks := uint64(g.Ranks)
	c.clockNs *= ranks
	c.activations *= ranks
	c.dramReads *= ranks
	c.cache.hits += (ranks - 1) * (c.cache.hits - c.hits0)
	c.cache.misses += (ranks - 1) * (c.cache.misses - c.misses0)
	c.mirrorable = false
	c.sweep.ok = false
}
