package memctl

import "fmt"

// LoadSweeps issues sweeps passes of clean loads over rows picked from
// window: pass x loads word (cols[j] + x·stride) mod WordsPerRow of
// window[at[j]], for each j in order. It leaves the controller exactly as
// issuing those loads one by one through LoadCol would. An access virus
// sweeps the same rows many times, each pass a fixed number of words
// further along them, and the controller simulates one pass and repeats
// it. An access virus passes the rows it may reach around one target as
// window and the ones its genome reads as at, so a deploy builds no row
// list.
//
// Pass x is pass 0 shifted by x·stride words. When that is d whole cache
// lines the shift is exact: rows start on line boundaries, so a line's set
// index is (rowLine + lineInRow) mod the set count, and the rows' first
// lines are all multiples of rowLines, the lines per row. They therefore
// only reach multiples of g = gcd(rowLines, set count), and a set index
// mod g is the line-in-row number mod g. Three facts follow when pass 0's
// lines lie in one window of d lines (so pass x's lie in the window x·d
// further on, within the row) and sweeps·d ≤ g:
//  1. Loads of different passes never share a set: their line-in-row
//     numbers differ mod g.
//  2. Shifting by x·d lines maps sets one to one and, after ResetStats,
//     every set invalid, so each pass's sets go through what pass 0's do,
//     shifted: every pass hits and misses as pass 0 does, and its sets
//     end as pass 0's, each line x·d further on. Clean loads queue no
//     write-back.
//  3. The row buffer sees pass 0's miss rows once per pass. Pass 1 leaves
//     each bank it touches at its last row in that list, so passes 2 to
//     sweeps start alike and activate the same rows.
//
// So LoadSweeps runs pass 0 through the cache and the row buffer over its
// miss rows twice, the second time counting sweeps−1 activations each,
// multiplies the clock and DRAM reads by sweeps and adds sweeps−1 times
// pass 0's hits and misses. The other passes' tag words are owed, and
// written only when a load one by one reads the cache; MirrorRank0 leaves
// them owed (Cache.mirror), so an access-virus deploy, which ends with it,
// never writes them. Each set class is fixed by the first call, so every
// later call must keep its pass 0 in the same class; the first call that
// cannot (or whose stride is not whole lines, whose passes need more than
// g lines or wrap past the row's end) and every later call until
// ResetStats issue their loads one by one.
//
// It panics, before changing any state, unless since the last ResetStats
// nothing but LoadSweeps calls of the same sweeps and stride ran (no other
// load, write, bare ResetCounters, AdvanceNs or MirrorRank0) and no line
// was written, and on a column outside [0, WordsPerRow), a negative
// stride, fewer than one sweep, an index outside window or a column count
// other than the index count. MirrorRank0 may follow: the loads are rank
// 0's if the rows are.
func (c *Controller) LoadSweeps(window []RowRef, at []int, cols []int32, sweeps, stride int) {
	sw := &c.sweep
	switch {
	case len(cols) != len(at) || sweeps < 1 || stride < 0:
		panic(fmt.Sprintf("memctl: LoadSweeps of %d sweeps by %d words over %d rows and %d columns",
			sweeps, stride, len(at), len(cols)))
	case !sw.ok:
		panic("memctl: LoadSweeps after another load, a write, a bare ResetCounters, idle time or a mirror")
	case sw.sweeps != 0 && (sw.sweeps != sweeps || sw.stride != stride):
		panic(fmt.Sprintf("memctl: LoadSweeps of %d sweeps by %d words after %d by %d",
			sweeps, stride, sw.sweeps, sw.stride))
	case c.cache.written:
		panic("memctl: LoadSweeps over a written cache line")
	}
	for j, col := range cols {
		if uint(col) >= uint(c.words) {
			panic(fmt.Sprintf("memctl: column %d outside a %d-word row", col, c.words))
		}
		if uint(at[j]) >= uint(len(window)) {
			panic(fmt.Sprintf("memctl: row %d outside a %d-row window", at[j], len(window)))
		}
	}
	sw.sweeps, sw.stride = sweeps, stride
	if sweeps > 1 && len(at) > 0 && !sw.plain {
		if sp, ok := c.sweepClasses(cols, sweeps, stride); ok &&
			(sw.spread.sweeps == 0 || sw.spread == sp) {
			sw.spread = sp
			c.sweepOnce(window, at, cols, sweeps)
			c.cache.spread = sp
			return
		}
		sw.plain = true
	}
	words := c.words
	for x := 0; x < sweeps; x++ {
		shift := x * (stride % words)
		for j, i := range at {
			r := window[i]
			col := int(cols[j]) + shift
			if col >= words {
				col %= words
			}
			c.cached(r.base+int64(col)*8, r, false)
		}
	}
}

// sweepClasses is the set classes of LoadSweeps's shortcut for pass-0
// columns cols, and whether the shortcut applies to them.
func (c *Controller) sweepClasses(cols []int32, sweeps, stride int) (sweepSpread, bool) {
	lo, hi := int(cols[0]), int(cols[0])
	for _, col := range cols {
		lo, hi = min(lo, int(col)), max(hi, int(col))
	}
	line := c.cache.cfg.LineBytes
	if stride == 0 || stride >= c.words || stride*8%line != 0 ||
		c.geom.RowBytes%line != 0 {
		return sweepSpread{}, false
	}
	d := stride * 8 / line
	g := gcd(c.geom.RowBytes/line, int(c.cache.numSets))
	window := lo * 8 / line / d
	if sweeps > g/d || hi*8/line/d != window || hi+(sweeps-1)*stride >= c.words {
		return sweepSpread{}, false
	}
	return sweepSpread{sweeps: sweeps, lines: uint64(d),
		lo: uint64(window * d % g), class: uint64(g)}, true
}

// sweepOnce is LoadSweeps's shortcut: pass 0 through the cache, its miss
// rows through the row buffer twice, and the counters of every pass.
func (c *Controller) sweepOnce(window []RowRef, at []int, cols []int32, sweeps int) {
	misses := c.missRows[:0]
	for j, i := range at {
		if r := window[i]; !c.cache.Access(r.base+int64(cols[j])*8, false).Hit {
			misses = append(misses, r)
		}
	}
	c.missRows = misses
	n, m := uint64(sweeps), uint64(len(misses))
	h := uint64(len(at)) - m
	c.clockNs += n * (h*HitLatencyNs + m*MissLatencyNs)
	c.dramReads += n * m
	c.cache.hits += (n - 1) * h
	c.cache.misses += (n - 1) * m
	for _, r := range misses {
		c.open(r, 1)
	}
	for _, r := range misses {
		c.open(r, n-1)
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
