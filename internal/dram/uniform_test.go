package dram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dstress/internal/addrmap"
	"dstress/internal/xrand"
)

// resultHash folds run results and row reads into one sha256 digest.
type resultHash struct {
	h      hash.Hash
	logged int
}

func newResultHash() *resultHash { return &resultHash{h: sha256.New()} }

func (r *resultHash) put(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	r.h.Write(b[:])
}

func (r *resultHash) putBool(v bool) {
	if v {
		r.put(1)
	} else {
		r.put(0)
	}
}

func (r *resultHash) putFloat(v float64) { r.put(math.Float64bits(v)) }

func (r *resultHash) putResult(res RunResult) {
	r.logged += len(res.Errors)
	r.put(uint64(res.CE))
	r.put(uint64(res.UE))
	r.put(uint64(res.SDC))
	ranks := make([]int, 0, len(res.CEByRank))
	for rank := range res.CEByRank {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		r.put(uint64(rank))
		r.put(uint64(res.CEByRank[rank]))
	}
	r.put(uint64(len(res.Errors)))
	for _, e := range res.Errors {
		r.put(uint64(e.Key.Rank)<<40 | uint64(e.Key.Bank)<<32 | uint64(e.Key.Row))
		r.put(uint64(e.WordCol))
		r.put(uint64(e.Status))
		r.putBool(e.SDC)
		r.put(uint64(len(e.Flips)))
		for _, b := range e.Flips {
			r.put(uint64(b))
		}
	}
}

func (r *resultHash) putBatch(res BatchResult) {
	r.putFloat(res.MeanCE)
	r.putFloat(res.MeanSDC)
	r.putFloat(res.UEFrac)
	r.put(uint64(len(res.CEByRank)))
	for _, v := range res.CEByRank {
		r.putFloat(v)
	}
}

// putReads hashes every row through the three read accessors: RowWritten,
// the whole RowImage (nil and empty alike hash as length 0) and ReadWord at
// the first, a middle and the last column.
func (r *resultHash) putReads(d *Device) {
	g := d.Geometry()
	n := g.WordsPerRow()
	for rank := 0; rank < g.Ranks; rank++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				k := RowKey{int32(rank), int32(bank), int32(row)}
				r.putBool(d.RowWritten(k))
				img := d.RowImage(k)
				r.put(uint64(len(img)))
				for _, w := range img {
					r.put(w)
				}
				for _, col := range []int{0, n / 2, n - 1} {
					v, ok := d.ReadWord(addrmap.Loc{Rank: rank, Bank: bank,
						Row: row, Col: col})
					r.put(v)
					r.putBool(ok)
				}
			}
		}
	}
}

// weakCellLoc returns the location of the first weak cell in row k, or
// column 0 when the row holds only clusters.
func weakCellLoc(d *Device, k RowKey) addrmap.Loc {
	l := k.Loc()
	for _, w := range d.WeakCells() {
		if w.Key == k {
			l.Col = w.WordCol
			return l
		}
	}
	return l
}

// uniformFillSequence is the mutation sequence the golden pins: a uniform
// fill, word writes into a defect row and into its neighbour (materializing
// both from the fill), whole-row fills, a second uniform fill, a power
// cycle and a write onto the cleared device.
func uniformFillSequence(d *Device) []func(d *Device) {
	weak := d.WeakRows()
	wr := weak[len(weak)/3]
	nb := wr
	if int(nb.Row) < d.Geometry().Rows-1 {
		nb.Row++
	} else {
		nb.Row--
	}
	wl := weakCellLoc(d, wr)
	nl := nb.Loc()
	nl.Col = wl.Col
	return []func(d *Device){
		func(d *Device) { d.FillAllUniform(0x3333333333333333) },
		func(d *Device) { d.WriteWord(wl, 0xFFFF0000FFFF0000) },
		func(d *Device) { d.WriteWord(nl, 0) },
		func(d *Device) { d.FillRow(weak[len(weak)/2], 0xCCCCCCCCCCCCCCCC) },
		func(d *Device) {
			d.FillRowWords(weak[2*len(weak)/3],
				[]uint64{0, ^uint64(0), 0x5555555555555555})
		},
		func(d *Device) { d.FillAllUniform(0x9669699696696996) },
		func(d *Device) { d.Reset() },
		func(d *Device) { d.WriteWord(weakCellLoc(d, weak[0]), 0x3333333333333333) },
	}
}

// uniformFillConds are the operating conditions the uniform-fill tests
// measure under: plain relaxed settings, and per-rank temperatures with
// per-row refresh overrides and hammer pressure.
func uniformFillConds(d *Device) []RunParams {
	return []RunParams{
		{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD},
		{TREFP: relaxedTREFP, TempC: 58, VDD: relaxedVDD,
			TempByRank:    map[int]float64{0: 64, 1: 57},
			TREFPByRow:    trefpOverrides(d, nominalTREFP),
			ActsPerWindow: hammerActs(d, 20000)},
	}
}

// uniformFillGolden is the digest of TestUniformFillGolden, recorded on the
// materializing FillAllUniform (every row written through FillRow) before
// uniform fills kept one background row.
const uniformFillGolden = "6b59f9a27b4d0cd46e28a9eeb78749016987c2c1d4f69b9a148c7efd03a563a8"

// TestUniformFillGolden hashes every result and read the uniform-fill
// sequence produces: after each step, v1 Run (error logs included), the
// plan-free runReference and the three read accessors; then the whole
// sequence as the items of one v2 RunBatch and one v2 AverageRunsBatch, so
// the batch's full compiles and splices see every step.
func TestUniformFillGolden(t *testing.T) {
	r := newResultHash()
	for _, mkCfg := range []func(uint64) Config{
		func(s uint64) Config { return DefaultConfig(64, s) },
		hostileConfig,
	} {
		d := MustNewDevice(mkCfg(7))
		conds := uniformFillConds(d)
		for _, step := range uniformFillSequence(d) {
			step(d)
			for seed := uint64(0); seed < 2; seed++ {
				for _, p := range conds {
					p.RNG = xrand.New(seed)
					res, err := d.Run(p)
					if err != nil {
						t.Fatal(err)
					}
					r.putResult(res)
					p.RNG = xrand.New(seed)
					ref, err := d.runReference(p)
					if err != nil {
						t.Fatal(err)
					}
					r.putResult(ref)
				}
			}
			r.putReads(d)
		}

		for _, p := range conds {
			p.Version = DeterminismV2
			p.RNG = nil
			items := func() []BatchItem {
				steps := uniformFillSequence(d)
				items := make([]BatchItem, len(steps))
				for i, apply := range steps {
					items[i] = BatchItem{
						Apply: func(d *Device) error { apply(d); return nil },
						RNG:   xrand.New(uint64(200 + i)),
					}
				}
				return items
			}
			res, err := d.RunBatch(p, items())
			if err != nil {
				t.Fatal(err)
			}
			for _, rr := range res {
				r.putResult(rr)
			}
			avg, err := d.AverageRunsBatch(p, 10, items())
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range avg {
				r.putBatch(a)
			}
			r.putReads(d)
		}
	}
	if r.logged == 0 {
		t.Fatal("no run logged an error; the digest pins nothing")
	}
	if got := hex.EncodeToString(r.h.Sum(nil)); got != uniformFillGolden {
		t.Fatalf("uniform fill digest %s, want %s", got, uniformFillGolden)
	}
}

// requireSameReads fails unless both devices read identically through
// RowWritten, RowImage and ReadWord on every row.
func requireSameReads(t *testing.T, a, b *Device, step string) {
	t.Helper()
	g := a.Geometry()
	for rank := 0; rank < g.Ranks; rank++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				k := RowKey{int32(rank), int32(bank), int32(row)}
				if wa, wb := a.RowWritten(k), b.RowWritten(k); wa != wb {
					t.Fatalf("%s: row %v written %v vs %v", step, k, wa, wb)
				}
				if ia, ib := a.RowImage(k), b.RowImage(k); !slices.Equal(ia, ib) {
					t.Fatalf("%s: row %v images differ", step, k)
				}
				l := k.Loc()
				l.Col = int(k.Row) % g.WordsPerRow()
				va, oka := a.ReadWord(l)
				vb, okb := b.ReadWord(l)
				if va != vb || oka != okb {
					t.Fatalf("%s: ReadWord(%v) = %#x,%v vs %#x,%v",
						step, l, va, oka, vb, okb)
				}
			}
		}
	}
}

// fillOp is one mutation applied to both twins; explicit selects the
// materializing FillAll in place of FillAllUniform.
type fillOp struct {
	name  string
	apply func(d *Device, explicit bool)
}

// randomFillOp draws a uniform fill, a word write (into a defect row or a
// neighbour of one, where couplings read it), a row fill, a tiled row fill
// or a power cycle.
func randomFillOp(d *Device, rng *xrand.Rand) fillOp {
	g := d.Geometry()
	weak := d.WeakRows()
	k := weak[rng.Intn(len(weak))]
	if rng.Bool(0.5) {
		k.Row = int32(min(max(int(k.Row)+rng.Intn(3)-1, 0), g.Rows-1))
	}
	w := rng.Uint64()
	switch rng.Intn(6) {
	case 0:
		return fillOp{fmt.Sprintf("fill %#x", w), func(d *Device, explicit bool) {
			if explicit {
				d.FillAll(func(RowKey) uint64 { return w })
			} else {
				d.FillAllUniform(w)
			}
		}}
	case 1:
		return fillOp{fmt.Sprintf("FillRow %v", k), func(d *Device, _ bool) {
			d.FillRow(k, w)
		}}
	case 2:
		words := []uint64{w, ^w, w >> 7}
		return fillOp{fmt.Sprintf("FillRowWords %v", k), func(d *Device, _ bool) {
			d.FillRowWords(k, words)
		}}
	case 3:
		return fillOp{"Reset", func(d *Device, _ bool) { d.Reset() }}
	}
	l := weakCellLoc(d, k)
	if rng.Bool(0.5) {
		l.Col = rng.Intn(g.WordsPerRow())
	}
	return fillOp{fmt.Sprintf("WriteWord %v", l), func(d *Device, _ bool) {
		d.WriteWord(l, w)
	}}
}

// TestUniformFillMatchesExplicitFill: a device driven by FillAllUniform
// equals a twin driven by the materializing FillAll with a constant word on
// every read and every result — v1 Run, the plan-free reference, and v2
// RunBatch/AverageRunsBatch whose items are further random interleavings —
// after any interleaving of fills, writes and power cycles.
func TestUniformFillMatchesExplicitFill(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig(64, seed)
		if seed == 2 {
			cfg = hostileConfig(seed)
		}
		uni, exp := MustNewDevice(cfg), MustNewDevice(cfg)
		conds := uniformFillConds(uni)
		rng := xrand.New(seed)
		ops := []fillOp{{"first fill", func(d *Device, explicit bool) {
			if explicit {
				d.FillAll(func(RowKey) uint64 { return 0x3333333333333333 })
			} else {
				d.FillAllUniform(0x3333333333333333)
			}
		}}}
		for i := 0; i < 12; i++ {
			ops = append(ops, randomFillOp(uni, rng))
		}
		for i, op := range ops {
			step := fmt.Sprintf("seed %d step %d (%s)", seed, i, op.name)
			op.apply(uni, false)
			op.apply(exp, true)
			requireSameReads(t, uni, exp, step)
			p := conds[i%len(conds)]
			for _, run := range []func(*Device, RunParams) (RunResult, error){
				(*Device).Run, (*Device).runReference,
			} {
				p.RNG = xrand.New(uint64(i))
				ru, err := run(uni, p)
				if err != nil {
					t.Fatal(err)
				}
				p.RNG = xrand.New(uint64(i))
				re, err := run(exp, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ru, re) {
					t.Fatalf("%s: v1 results differ:\n%+v\n%+v", step, ru, re)
				}
			}
		}

		for ci, p := range conds {
			p.Version = DeterminismV2
			var batch []fillOp
			for i := 0; i < 10; i++ {
				batch = append(batch, randomFillOp(uni, rng))
			}
			items := func(explicit bool) []BatchItem {
				items := make([]BatchItem, len(batch))
				for i, op := range batch {
					apply := op.apply
					items[i] = BatchItem{
						Apply: func(d *Device) error { apply(d, explicit); return nil },
						RNG:   xrand.New(uint64(300 + i)),
					}
				}
				return items
			}
			ru, err := uni.RunBatch(p, items(false))
			if err != nil {
				t.Fatal(err)
			}
			re, err := exp.RunBatch(p, items(true))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ru, re) {
				t.Fatalf("seed %d conds %d: RunBatch results differ", seed, ci)
			}
			au, err := uni.AverageRunsBatch(p, 10, items(false))
			if err != nil {
				t.Fatal(err)
			}
			ae, err := exp.AverageRunsBatch(p, 10, items(true))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(au, ae) {
				t.Fatalf("seed %d conds %d: AverageRunsBatch results differ", seed, ci)
			}
			requireSameReads(t, uni, exp, fmt.Sprintf("seed %d after batch %d", seed, ci))
		}
	}
}

// TestUniformFillHoldsNoRows pins the memory property: a repeated uniform
// fill allocates nothing and materializes no row, and the first word write
// materializes exactly its own row, filled with the fill word around it.
func TestUniformFillHoldsNoRows(t *testing.T) {
	const fill = 0x3333333333333333
	d := testDevice(t, 5)
	d.FillAllUniform(fill)
	if allocs := testing.AllocsPerRun(20, func() { d.FillAllUniform(fill) }); allocs != 0 {
		t.Fatalf("repeated FillAllUniform made %v allocations, want 0", allocs)
	}
	if n := len(d.rows); n != 0 {
		t.Fatalf("uniform fill holds %d materialized rows, want 0", n)
	}

	k := d.WeakRows()[0]
	l := weakCellLoc(d, k)
	d.WriteWord(l, 0)
	if n := len(d.rows); n != 1 {
		t.Fatalf("one WriteWord materialized %d rows, want 1", n)
	}
	img, ok := d.rows[rowID(k)]
	if !ok {
		t.Fatalf("WriteWord did not materialize row %v", k)
	}
	for col, w := range img {
		want := uint64(fill)
		if col == l.Col {
			want = 0
		}
		if w != want {
			t.Fatalf("materialized row col %d = %#x, want %#x", col, w, want)
		}
	}
}
