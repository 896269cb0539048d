package memctl

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dstress/internal/addrmap"
	"dstress/internal/xrand"
)

// sweepConfigs are the mirror configs plus one whose set count shares a
// factor with the lines per row without dividing it: 8 lines per row and
// 12 sets, so g = 4 is neither 1 nor the set count.
var sweepConfigs = append(slices.Clone(mirrorConfigs),
	diffConfig{"sets12-ways2", addrmap.Geometry{Ranks: 2, Banks: 4, Rows: 4, RowBytes: 512},
		CacheConfig{SizeBytes: 12 * 2 * 64, LineBytes: 64, Ways: 2}},
)

// sweepShape is a stream of LoadSweeps calls of one sweeps and stride.
// Call i's pass-0 columns come from window(i) = [lo, lo+span). took and
// fell are whether some call of the stream must take the shortcut and
// whether some call must fall back to loading one by one.
type sweepShape struct {
	name           string
	sweeps, stride int
	window         func(i int) (lo, span int)
	took, fell     bool
}

// sweepShapes are the streams TestSweepsMatchLoads runs on cfg: those the
// shortcut fits, and those it must not take — a stride of no whole line,
// more sweeps than g lines hold, a sweep past the row's end, a later call
// in another window of lines, a first sweep over more lines than the
// stride, one sweep or a zero stride.
func sweepShapes(cfg diffConfig) []sweepShape {
	lw := cfg.cache.LineBytes / 8 // words per line
	rowLines := cfg.geom.RowBytes / cfg.cache.LineBytes
	g := gcd(rowLines, cfg.cache.SizeBytes/(cfg.cache.LineBytes*cfg.cache.Ways))
	line := func(k int) func(int) (int, int) {
		return func(int) (int, int) { return k * lw, lw }
	}
	shapes := []sweepShape{
		{"one-sweep", 1, 0, line(0), false, false},
		{"stride-0", 3, 0, line(0), false, true},
		{"odd-stride", 2, lw + 1, line(0), false, true},
		{"past-g", g + 1, lw, line(0), false, true},
		{"wrap", 2, lw, line(rowLines - 1), false, true},
		{"two-windows", 2, lw, func(i int) (int, int) { return i % 2 * lw, lw }, g >= 2, true},
		{"straddle", 2, lw, func(int) (int, int) { return 0, 2 * lw }, false, true},
	}
	if g >= 2 {
		shapes = append(shapes,
			sweepShape{"g-lines", g, lw, line(0), true, false},
			// The passes' set classes run past g-1 and round to 0; the
			// last pass leaves the row when g is the whole row.
			sweepShape{"class-wrap", 2, lw, line(g - 1), g < rowLines, g == rowLines})
	}
	if g >= 4 {
		shapes = append(shapes,
			sweepShape{"two-line-stride", g / 2, 2 * lw,
				func(int) (int, int) { return 0, 2 * lw }, true, false},
			sweepShape{"late-window", g / 2, lw, line(rowLines - g/2), true, false})
	}
	return shapes
}

// sweepCall is one LoadSweeps call: rank-0 chunks and each one's pass-0
// column.
type sweepCall struct {
	chunks []int
	cols   []int32
}

// sweepCalls draws n seeded calls of a shape over geom. Each call's first
// two columns are its window's first and last, so it spans the window. The
// chunks come from a hot pool of at most 12, so calls revisit rows and
// lines and the stream mixes cache hits, evictions and row-buffer hits.
func sweepCalls(rng *xrand.Rand, geom addrmap.Geometry, s sweepShape, n int) []sweepCall {
	pool := make([]int, min(12, geom.Banks*geom.Rows))
	for i := range pool {
		pool[i] = int(rng.Uint64() % uint64(geom.Banks*geom.Rows))
	}
	calls := make([]sweepCall, n)
	for i := range calls {
		lo, span := s.window(i)
		m := 2 + int(rng.Uint64()%7)
		for j := range m {
			col := lo + int(rng.Uint64()%uint64(span))
			switch j {
			case 0:
				col = lo
			case 1:
				col = lo + span - 1
			}
			calls[i].chunks = append(calls[i].chunks, pool[rng.Uint64()%uint64(len(pool))])
			calls[i].cols = append(calls[i].cols, int32(col))
		}
	}
	return calls
}

// issueSweeps issues calls through LoadSweeps.
func issueSweeps(c *Controller, calls []sweepCall, sweeps, stride int) {
	for _, call := range calls {
		rows := make([]RowRef, len(call.chunks))
		for j, chunk := range call.chunks {
			rows[j] = c.RowAt(0, chunk)
		}
		c.LoadSweeps(rows, inOrder(len(rows)), call.cols, sweeps, stride)
	}
}

// inOrder is LoadSweeps's index list that loads each of n rows once, in
// order.
func inOrder(n int) []int {
	at := make([]int, n)
	for i := range at {
		at[i] = i
	}
	return at
}

// replaySweeps issues calls' loads one by one through LoadCol on the given
// rank.
func replaySweeps(c *Controller, calls []sweepCall, sweeps, stride, rank int) {
	words := c.geom.WordsPerRow()
	for _, call := range calls {
		for x := range sweeps {
			for j, chunk := range call.chunks {
				c.LoadCol(c.RowAt(rank, chunk), (int(call.cols[j])+x*stride)%words)
			}
		}
	}
}

// TestSweepsMatchLoads issues seeded streams of LoadSweeps calls on one
// controller and the same loads one by one through LoadCol on a twin, and
// requires the two to agree on the tag words, open rows, activation rates
// and counters — on every mirror config and one more (g = 4), 1 to 4
// ranks and 4 to 64 rows, for shapes the shortcut fits and shapes it must
// not take. Each stream is compared as issued, and again after
// MirrorRank0 against the twin's replay on every rank in turn; then plain
// loads follow on both and they are compared once more.
func TestSweepsMatchLoads(t *testing.T) {
	var hits, acts uint64
	for _, cfg := range sweepConfigs {
		for _, s := range sweepShapes(cfg) {
			for ranks := 1; ranks <= 4; ranks++ {
				for _, rows := range []int{4, 16, 64} {
					geom := cfg.geom
					geom.Ranks, geom.Rows = ranks, rows
					name := fmt.Sprintf("%s/%s/ranks%d/rows%d", cfg.name, s.name, ranks, rows)
					calls := sweepCalls(xrand.New(uint64(ranks*100+rows)), geom, s, 24)
					for _, mirror := range []bool{false, true} {
						sweep := newDiffController(t, geom, cfg.cache)
						plain := newDiffController(t, geom, cfg.cache)
						for _, c := range []*Controller{sweep, plain} {
							// A dirty cache before ResetStats must not leak.
							c.WriteWord(0, 1)
							c.ResetStats()
						}
						issueSweeps(sweep, calls, s.sweeps, s.stride)
						took, fell := sweep.sweep.spread.sweeps != 0, sweep.sweep.plain
						if took != s.took || fell != s.fell {
							t.Fatalf("%s: shortcut taken %v, fallen back %v; want %v, %v",
								name, took, fell, s.took, s.fell)
						}
						replaySweeps(plain, calls, s.sweeps, s.stride, 0)
						if mirror {
							sweep.MirrorRank0()
							for rank := 1; rank < ranks; rank++ {
								replaySweeps(plain, calls, s.sweeps, s.stride, rank)
							}
						}
						got, want := snapshotMirror(sweep), snapshotMirror(plain)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, mirror %v: sweeps left\n%+v\nloads left\n%+v",
								name, mirror, got, want)
						}
						if took {
							hits += got.counters[4]
							acts += got.counters[0]
						}
						// Plain loads into the later sweeps' sets read
						// what the sweeps left there.
						for _, c := range []*Controller{sweep, plain} {
							replaySweeps(c, calls[:4], s.sweeps, s.stride, 0)
						}
						got, want = snapshotMirror(sweep), snapshotMirror(plain)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, mirror %v: loads after the sweeps left\n%+v\non the twin\n%+v",
								name, mirror, got, want)
						}
					}
				}
			}
		}
	}
	if hits == 0 || acts == 0 {
		t.Fatalf("the shortcut's streams had %d hits and %d activations", hits, acts)
	}
}

// TestSweepsRejectBadState checks that LoadSweeps panics, leaving every
// counter, tag and open row as it was, when anything but LoadSweeps calls
// of one sweeps and stride ran since ResetStats, when a line was written
// behind the controller, and on bad arguments.
func TestSweepsRejectBadState(t *testing.T) {
	cfg := diffConfigs[0]
	geom := cfg.geom
	rows := []RowRef{{}, {}, {}}
	at, cols := inOrder(len(rows)), []int32{0, 3, 7}
	call := func(sweeps, stride int, cols []int32) func(c *Controller) {
		return func(c *Controller) { c.LoadSweeps(rows, at, cols, sweeps, stride) }
	}
	good, nop := call(16, 64, cols), func(*Controller) {}
	bad := map[string]struct{ before, call func(c *Controller) }{
		"write":              {func(c *Controller) { c.WriteWord(64, 1) }, good},
		"load":               {func(c *Controller) { c.Load(8192) }, good},
		"read":               {func(c *Controller) { c.ReadWord(8192) }, good},
		"column load":        {func(c *Controller) { c.LoadCol(rows[1], 5) }, good},
		"uncached load":      {func(c *Controller) { c.LoadUncached(rows[2]) }, good},
		"bare ResetCounters": {func(c *Controller) { c.ResetCounters() }, good},
		"idle time":          {func(c *Controller) { c.AdvanceNs(100) }, good},
		"mirror":             {func(c *Controller) { c.MirrorRank0() }, good},
		"dirty line":         {func(c *Controller) { c.cache.Access(64, true) }, good},
		"other sweeps":       {nop, call(8, 64, cols)},
		"other stride":       {nop, call(16, 128, cols)},
		"column past row":    {nop, call(16, 64, []int32{0, 3, int32(geom.WordsPerRow())})},
		"negative column":    {nop, call(16, 64, []int32{0, -1, 7})},
		"negative stride":    {nop, call(16, -64, cols)},
		"no sweep":           {nop, call(0, 64, cols)},
		"short columns":      {nop, call(16, 64, cols[:2])},
		"row past window": {nop, func(c *Controller) {
			c.LoadSweeps(rows, []int{0, 1, len(rows)}, cols, 16, 64)
		}},
	}
	for name, b := range bad {
		c := newDiffController(t, geom, cfg.cache)
		rows[0], rows[1], rows[2] = c.RowAt(0, 3), c.RowAt(0, 11), c.RowAt(0, 12)
		c.ResetStats()
		good(c)
		b.before(c)
		before := snapshotMirror(c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: LoadSweeps did not panic", name)
				}
			}()
			b.call(c)
		}()
		if after := snapshotMirror(c); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a rejected LoadSweeps moved the state\nbefore %+v\nafter  %+v",
				name, before, after)
		}
	}
}
