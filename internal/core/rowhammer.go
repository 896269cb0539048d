package core

import (
	"fmt"

	"dstress/internal/addrmap"
	"dstress/internal/dram"
	"dstress/internal/ga"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

// RowhammerSpec explores "rowhammer"-style attack scenarios, the use case
// the paper proposes in Section VI (Security): unlike the cached access
// templates of the evaluation, the aggressor rows are hammered with
// cache-flushing (clflush-style) loads, giving the activation intensity of
// published attacks. The chromosome selects, per error-prone row, which of
// the surrounding same-bank rows to hammer: bits 0..NeighbourSpan-1 enable
// predecessors -NeighbourSpan..-1, the rest enable successors
// +1..+NeighbourSpan. The classic double-sided attack corresponds to
// enabling exactly the ±1 rows.
type RowhammerSpec struct {
	// FillWord is the victim data pattern (worst-case word by default).
	FillWord uint64
	// NeighbourSpan is how many same-bank rows on each side are candidates.
	NeighbourSpan int
	// HammersPerTarget is the number of uncached load pairs replayed per
	// target row per deployment.
	HammersPerTarget int

	targets []dram.RowKey
}

// NewRowhammerSpec builds the experiment with the classic ±2-row window.
func NewRowhammerSpec(fillWord uint64) *RowhammerSpec {
	return &RowhammerSpec{
		FillWord:         fillWord,
		NeighbourSpan:    2,
		HammersPerTarget: 64,
	}
}

// Name implements Spec.
func (*RowhammerSpec) Name() string { return "rowhammer" }

// genomeBits is the chromosome length: one selector per candidate row.
func (s *RowhammerSpec) genomeBits() int { return 2 * s.NeighbourSpan }

// Prepare implements Spec.
func (s *RowhammerSpec) Prepare(f *Framework) error {
	if s.NeighbourSpan <= 0 || s.HammersPerTarget <= 0 {
		return fmt.Errorf("core: rowhammer spec misconfigured: %+v", s)
	}
	dev := f.Srv.MCU(f.MCU).Device()
	dev.Reset()
	dev.FillAllUniform(s.FillWord)
	s.targets = dev.WeakRows()
	if len(s.targets) == 0 {
		return fmt.Errorf("core: no victim rows to hammer")
	}
	return nil
}

// NewPopulation implements Spec.
func (s *RowhammerSpec) NewPopulation(_ *Framework, size int,
	rng *xrand.Rand) []ga.Genome {
	return ga.RandomBitPopulation(size, s.genomeBits(), rng)
}

// Deploy implements Spec: the selected aggressor rows around every victim
// are hammered with uncached loads (clflush-style), then the activation
// rates drive the disturbance model.
func (s *RowhammerSpec) Deploy(f *Framework, g ga.Genome) error {
	bg, ok := g.(*ga.BitGenome)
	if !ok || bg.Bits.Len() != s.genomeBits() {
		return fmt.Errorf("core: rowhammer needs a %d-bit genome", s.genomeBits())
	}
	ctl := f.Srv.MCU(f.MCU)
	geom := ctl.Device().Geometry()
	ctl.ResetStats()
	var offsets []int
	for i := 0; i < s.genomeBits(); i++ {
		if !bg.Bits.Get(i) {
			continue
		}
		if i < s.NeighbourSpan {
			offsets = append(offsets, i-s.NeighbourSpan)
		} else {
			offsets = append(offsets, i-s.NeighbourSpan+1)
		}
	}
	for _, victim := range s.targets {
		for h := 0; h < s.HammersPerTarget; h++ {
			for _, off := range offsets {
				row := int(victim.Row) + off
				if row < 0 || row >= geom.Rows {
					continue
				}
				addr := geom.Unmap(addrmap.Loc{
					Rank: int(victim.Rank),
					Bank: int(victim.Bank),
					Row:  row,
				})
				// Uncached load: the attack's clflush+load pair.
				ctl.ReadWordUncached(addr + int64(h%geom.WordsPerRow())*8)
			}
		}
	}
	return nil
}

// Encode implements Spec.
func (s *RowhammerSpec) Encode(g ga.Genome, rec *virusdb.Record) {
	rec.Vec = g.(*ga.BitGenome).Bits
}

// Decode implements Spec.
func (s *RowhammerSpec) Decode(rec virusdb.Record) (ga.Genome, error) {
	return decodeBits(rec, s.genomeBits())
}

// DoubleSidedGenome returns the classic double-sided attack chromosome:
// only the two immediately adjacent rows enabled.
func (s *RowhammerSpec) DoubleSidedGenome() ga.Genome {
	g := ga.RandomBitPopulation(1, s.genomeBits(), xrand.New(0))[0].(*ga.BitGenome)
	for i := 0; i < s.genomeBits(); i++ {
		g.Bits.Set(i, false)
	}
	g.Bits.Set(s.NeighbourSpan-1, true) // offset -1
	g.Bits.Set(s.NeighbourSpan, true)   // offset +1
	return g
}
