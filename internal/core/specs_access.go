package core

import (
	"fmt"

	"dstress/internal/ga"
	"dstress/internal/memctl"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

// accessSpecBase holds what both memory-access experiments share: the
// memory is filled once with a fixed data pattern (the worst-case 64-bit
// word discovered earlier — the paper avoids searching data and access
// patterns simultaneously), the error-prone chunks are located, and each
// candidate chromosome is turned into an access trace replayed through the
// controller's cache hierarchy to produce row-activation rates.
type accessSpecBase struct {
	// FillWord is the fixed data pattern (paper: the worst-case 64-bit
	// pattern).
	FillWord uint64
	// SweepLen is the number of x iterations replayed per target per
	// deployment; the controller extrapolates the observed rates over the
	// refresh period.
	SweepLen int

	targets []int // rank-0 error-prone chunk indexes
	// window[t*windowLen+targetWindow+off] is the row of chunk
	// targets[t]+off, for off in [-targetWindow, targetWindow] with the
	// chunk inside rank 0.
	window []memctl.RowRef
}

// targetWindow bounds the chunk offsets a virus reads around a target:
// access-rows reaches 32 chunks each way, access-coeffs 8. prepare
// resolves every target's window once, so a deploy decodes no address.
const (
	targetWindow = 32
	windowLen    = 2*targetWindow + 1
)

func (b *accessSpecBase) prepare(f *Framework) error {
	ctl := f.Srv.MCU(f.MCU)
	dev := ctl.Device()
	geom := dev.Geometry()
	dev.Reset()
	dev.FillAllUniform(b.FillWord)
	b.targets = b.targets[:0]
	for _, k := range dev.WeakRows() {
		if k.Rank != 0 {
			continue // target rank-0 rows; replay mirrors them onto the other ranks
		}
		b.targets = append(b.targets, geom.ChunkIndex(k.Loc()))
	}
	if len(b.targets) == 0 {
		return fmt.Errorf("core: no error-prone rows to target")
	}
	nchunks := geom.Banks * geom.Rows
	b.window = make([]memctl.RowRef, len(b.targets)*windowLen)
	for t, target := range b.targets {
		for off := -targetWindow; off <= targetWindow; off++ {
			if c := target + off; c >= 0 && c < nchunks {
				b.window[t*windowLen+targetWindow+off] = ctl.RowAt(0, c)
			}
		}
	}
	if b.SweepLen <= 0 {
		b.SweepLen = 16
	}
	return nil
}

// replay issues the virus's reads for every target chunk on every rank, in
// (rank, target, pass, offset) order. words holds whole passes of n =
// len(offsets) word indexes, words[p*n+i] the word read in chunk
// target+offsets[i] on pass p; each pass is one LoadSweeps call per
// target of sweeps sweeps, each stride words further on than the last.
// Only the reads' traffic matters, so they are loads into the rows
// prepare resolved: each call hands the controller the target's window
// and the window slots of the offsets inside rank 0. Every rank reads the
// same chunks, so replay loads rank 0's and the controller mirrors them
// onto the others (memctl.Controller.MirrorRank0).
func (b *accessSpecBase) replay(f *Framework, offsets []int, words []int32,
	sweeps, stride int) error {
	ctl := f.Srv.MCU(f.MCU)
	geom := ctl.Device().Geometry()
	nchunks := geom.Banks * geom.Rows
	wordsPerRow := geom.WordsPerRow()
	n := len(offsets)
	// The buffers hold all 64 access-rows offsets on the stack, so a deploy
	// allocates nothing for its slots.
	var slotsBuf, inBuf, idxBuf [64]int
	var colsBuf [64]int32
	slots := slotsBuf[:0] // slots[i] is offsets[i]'s index in a target's window
	lo, hi := 0, 0
	for _, off := range offsets {
		if off < -targetWindow || off > targetWindow {
			return fmt.Errorf("core: access pattern reads chunk offset %d, outside ±%d",
				off, targetWindow)
		}
		lo, hi = min(lo, off), max(hi, off)
		slots = append(slots, targetWindow+off)
	}
	for _, w := range words {
		if w < 0 || int(w) >= wordsPerRow {
			return fmt.Errorf("core: access pattern reads word %d of a %d-word row",
				w, wordsPerRow)
		}
	}
	ctl.ResetStats()
	for t, target := range b.targets {
		window := b.window[t*windowLen : (t+1)*windowLen]
		in, idx := slots, idxBuf[:0]
		edge := target+lo < 0 || target+hi >= nchunks
		if edge { // some offsets fall outside the rank: idx lists the others
			in = inBuf[:0]
			for i, off := range offsets {
				if c := target + off; c >= 0 && c < nchunks {
					in, idx = append(in, slots[i]), append(idx, i)
				}
			}
		}
		for p := 0; p < len(words); p += n {
			cols := words[p : p+n]
			if edge {
				cols = colsBuf[:0]
				for _, i := range idx {
					cols = append(cols, words[p+i])
				}
			}
			ctl.LoadSweeps(window, in, cols, sweeps, stride)
		}
	}
	ctl.MirrorRank0()
	return nil
}

// AccessRowsSpec is the paper's first memory-access template (Fig 11): a
// 64-bit chromosome selects which of the 32 predecessor and 32 successor
// chunks of every error-prone row are hammered with full-row sweeps.
type AccessRowsSpec struct {
	accessSpecBase
}

// NewAccessRowsSpec builds the experiment around the given fixed data fill.
func NewAccessRowsSpec(fillWord uint64) *AccessRowsSpec {
	return &AccessRowsSpec{accessSpecBase{FillWord: fillWord}}
}

// Name implements Spec.
func (*AccessRowsSpec) Name() string { return "access-rows" }

// Prepare implements Spec.
func (s *AccessRowsSpec) Prepare(f *Framework) error { return s.prepare(f) }

// NewPopulation implements Spec.
func (*AccessRowsSpec) NewPopulation(_ *Framework, size int,
	rng *xrand.Rand) []ga.Genome {
	return ga.RandomBitPopulation(size, 64, rng)
}

// rowOffsets decodes the chromosome into chunk offsets: bit i < 32 enables
// offset i-32, bit i >= 32 enables offset i-31.
func rowOffsets(g *ga.BitGenome) []int {
	var offs []int
	for i := 0; i < 64; i++ {
		if !g.Bits.Get(i) {
			continue
		}
		if i < 32 {
			offs = append(offs, i-32)
		} else {
			offs = append(offs, i-31)
		}
	}
	return offs
}

// Deploy implements Spec. It is a full-row sweep: offset i is read at word
// x·64 + i on pass x, so each pass visits different columns, and with many
// rows in flight every same-bank revisit reopens the row. The pass-0 words
// and a 64-word stride describe all SweepLen passes.
func (s *AccessRowsSpec) Deploy(f *Framework, g ga.Genome) error {
	bg, ok := g.(*ga.BitGenome)
	if !ok || bg.Bits.Len() != 64 {
		return fmt.Errorf("core: access-rows needs a 64-bit genome")
	}
	wordsPerRow := f.Srv.MCU(f.MCU).Device().Geometry().WordsPerRow()
	offsets := rowOffsets(bg)
	var wordsBuf [64]int32
	words := wordsBuf[:len(offsets)]
	for i := range words {
		words[i] = int32(i % wordsPerRow)
	}
	return s.replay(f, offsets, words, s.SweepLen, 64%wordsPerRow)
}

// Encode implements Spec.
func (*AccessRowsSpec) Encode(g ga.Genome, rec *virusdb.Record) {
	rec.Vec = g.(*ga.BitGenome).Bits
}

// Decode implements Spec.
func (*AccessRowsSpec) Decode(rec virusdb.Record) (ga.Genome, error) {
	return decodeBits(rec, 64)
}

// AccessCoeffsSpec is the paper's second memory-access template (Fig 12):
// the chromosome holds 16 a-coefficients and 16 b-coefficients in [0,20];
// neighbouring chunk i of each error-prone row is read at word index
// aᵢ·x+bᵢ as x sweeps. Constant (aᵢ = 0) streams stay cache-resident, which
// is why this virus disturbs DRAM less than the row-sweep template.
type AccessCoeffsSpec struct {
	accessSpecBase
}

// NewAccessCoeffsSpec builds the experiment around the given fixed fill.
func NewAccessCoeffsSpec(fillWord uint64) *AccessCoeffsSpec {
	return &AccessCoeffsSpec{accessSpecBase{FillWord: fillWord}}
}

// CoeffBound is the paper's coefficient limit (a_i, b_i ∈ [0, 20]).
const CoeffBound = 20

// Name implements Spec.
func (*AccessCoeffsSpec) Name() string { return "access-coeffs" }

// Prepare implements Spec.
func (s *AccessCoeffsSpec) Prepare(f *Framework) error { return s.prepare(f) }

// NewPopulation implements Spec.
func (*AccessCoeffsSpec) NewPopulation(_ *Framework, size int,
	rng *xrand.Rand) []ga.Genome {
	return ga.RandomIntPopulation(size, 32, 0, CoeffBound, rng)
}

// coeffOffsets are the 16 neighbouring chunks: -8..-1 and +1..+8.
var coeffOffsets = func() []int {
	var offs []int
	for d := -8; d <= 8; d++ {
		if d != 0 {
			offs = append(offs, d)
		}
	}
	return offs
}()

// Deploy implements Spec. Offset i is read at word aᵢ·x + bᵢ on pass x, so
// the passes are no shift of one another and each is its own sweep.
func (s *AccessCoeffsSpec) Deploy(f *Framework, g ga.Genome) error {
	ig, ok := g.(*ga.IntGenome)
	if !ok || len(ig.Vals) != 32 {
		return fmt.Errorf("core: access-coeffs needs a 32-int genome")
	}
	wordsPerRow := f.Srv.MCU(f.MCU).Device().Geometry().WordsPerRow()
	n := len(coeffOffsets)
	var wordsBuf [16 * 16]int32
	words := wordsBuf[:0] // words[x*n+i] is offset i's word on pass x
	for x := 0; x < s.SweepLen; x++ {
		for i := 0; i < n; i++ {
			words = append(words, int32((ig.Vals[i]*x+ig.Vals[i+n])%wordsPerRow))
		}
	}
	return s.replay(f, coeffOffsets, words, 1, 0)
}

// Encode implements Spec.
func (*AccessCoeffsSpec) Encode(g ga.Genome, rec *virusdb.Record) {
	rec.Ints = append([]int(nil), g.(*ga.IntGenome).Vals...)
}

// Decode implements Spec.
func (*AccessCoeffsSpec) Decode(rec virusdb.Record) (ga.Genome, error) {
	return ga.NewIntGenome(append([]int(nil), rec.Ints...), 0, CoeffBound)
}

// HammerlessBaseline deploys the fixed fill with no access activity — the
// data-pattern-only baseline the access experiments are compared against.
func (b *accessSpecBase) HammerlessBaseline(f *Framework) (Measurement, error) {
	f.Srv.MCU(f.MCU).ResetStats()
	return f.Measure()
}
