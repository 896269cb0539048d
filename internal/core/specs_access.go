package core

import (
	"fmt"

	"dstress/internal/dram"
	"dstress/internal/ga"
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

	targets []int // error-prone chunk indexes, per rank
	ranks   int
}

func (b *accessSpecBase) prepare(f *Framework) error {
	ctl := f.Srv.MCU(f.MCU)
	dev := ctl.Device()
	geom := dev.Geometry()
	dev.Reset()
	dev.FillAllUniform(b.FillWord)
	b.ranks = geom.Ranks
	b.targets = b.targets[:0]
	for _, k := range dev.WeakRows() {
		if k.Rank != 0 {
			continue // target rank-0 rows; rank 1 chunks mirror them
		}
		b.targets = append(b.targets, geom.ChunkIndex(k.Loc()))
	}
	if len(b.targets) == 0 {
		return fmt.Errorf("core: no error-prone rows to target")
	}
	if b.SweepLen <= 0 {
		b.SweepLen = 16
	}
	return nil
}

// replay issues the virus's reads for every target chunk on both ranks.
// access receives (rank, chunk, x) and returns the word index to read
// within the chunk, or -1 to skip.
func (b *accessSpecBase) replay(f *Framework,
	offsets []int, wordIdx func(i, x int) int) {
	ctl := f.Srv.MCU(f.MCU)
	geom := ctl.Device().Geometry()
	nchunks := geom.Banks * geom.Rows
	ctl.ResetStats()
	for rank := 0; rank < b.ranks; rank++ {
		for _, target := range b.targets {
			for x := 0; x < b.SweepLen; x++ {
				for i, off := range offsets {
					c := target + off
					if c < 0 || c >= nchunks {
						continue
					}
					w := wordIdx(i, x)
					if w < 0 {
						continue
					}
					addr := geom.ChunkAddr(rank, c) + int64(w)*8
					ctl.ReadWord(addr)
				}
			}
		}
	}
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

// Deploy implements Spec.
func (s *AccessRowsSpec) Deploy(f *Framework, g ga.Genome) error {
	bg, ok := g.(*ga.BitGenome)
	if !ok || bg.Bits.Len() != 64 {
		return fmt.Errorf("core: access-rows needs a 64-bit genome")
	}
	wordsPerRow := f.Srv.MCU(f.MCU).Device().Geometry().WordsPerRow()
	// Full-row sweep: each x visits a different column; with many rows in
	// flight, every same-bank revisit reopens the row.
	s.replay(f, rowOffsets(bg), func(i, x int) int {
		return (x*64 + i) % wordsPerRow
	})
	return nil
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

// Deploy implements Spec.
func (s *AccessCoeffsSpec) Deploy(f *Framework, g ga.Genome) error {
	ig, ok := g.(*ga.IntGenome)
	if !ok || len(ig.Vals) != 32 {
		return fmt.Errorf("core: access-coeffs needs a 32-int genome")
	}
	wordsPerRow := f.Srv.MCU(f.MCU).Device().Geometry().WordsPerRow()
	s.replay(f, coeffOffsets, func(i, x int) int {
		return (ig.Vals[i]*x + ig.Vals[i+16]) % wordsPerRow
	})
	return nil
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

// TargetRows exposes the targeted chunks (rank-0 indexes) for analysis.
func (b *accessSpecBase) TargetRows() []int {
	return append([]int(nil), b.targets...)
}

// VictimKeys returns the row keys of the targeted error-prone rows.
func (b *accessSpecBase) VictimKeys(f *Framework) []dram.RowKey {
	geom := f.Srv.MCU(f.MCU).Device().Geometry()
	keys := make([]dram.RowKey, 0, len(b.targets))
	for _, c := range b.targets {
		keys = append(keys, dram.Key(geom.ChunkLoc(0, c)))
	}
	return keys
}
