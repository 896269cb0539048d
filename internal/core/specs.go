package core

import (
	"fmt"

	"dstress/internal/addrmap"
	"dstress/internal/bitvec"
	"dstress/internal/dram"
	"dstress/internal/ga"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

// bitsToWord packs the first 64 bits of a chromosome into a data word.
func bitsToWord(v *bitvec.Vec) uint64 { return v.Uint64() }

// decodeBits rebuilds a bit genome from a database record.
func decodeBits(rec virusdb.Record, wantLen int) (ga.Genome, error) {
	v, err := rec.BitVec()
	if err != nil {
		return nil, err
	}
	if v.Len() != wantLen {
		return nil, fmt.Errorf("core: stored chromosome has %d bits, want %d",
			v.Len(), wantLen)
	}
	return ga.NewBitGenome(v), nil
}

// Data64Spec is the paper's first experiment (Fig 8): the chromosome is a
// single 64-bit word tiled over the whole DIMM, searching for the data
// pattern that maximizes (or minimizes) CEs.
type Data64Spec struct{}

// Name implements Spec.
func (Data64Spec) Name() string { return "data64" }

// Prepare implements Spec.
func (Data64Spec) Prepare(f *Framework) error {
	f.Srv.MCU(f.MCU).ResetStats() // pure data virus: no access activity
	return nil
}

// NewPopulation implements Spec.
func (Data64Spec) NewPopulation(_ *Framework, size int, rng *xrand.Rand) []ga.Genome {
	return ga.RandomBitPopulation(size, 64, rng)
}

// Deploy implements Spec.
func (Data64Spec) Deploy(f *Framework, g ga.Genome) error {
	bg, ok := g.(*ga.BitGenome)
	if !ok {
		return fmt.Errorf("core: data64 needs a bit genome")
	}
	f.Srv.MCU(f.MCU).Device().FillAllUniform(bitsToWord(bg.Bits))
	return nil
}

// Encode implements Spec.
func (Data64Spec) Encode(g ga.Genome, rec *virusdb.Record) {
	rec.Vec = g.(*ga.BitGenome).Bits
}

// Decode implements Spec.
func (Data64Spec) Decode(rec virusdb.Record) (ga.Genome, error) {
	return decodeBits(rec, 64)
}

// BlockDataSpec generalizes the 24-KByte and 512-KByte data-pattern
// experiments (Figs 9 and 10): the chromosome is a block of BanksWide ×
// RowsDeep full row images, placed around every error-prone row so that the
// block row VictimRow of the row's own bank lands on the error-prone row
// itself. The 24-KByte template is {1 bank × 3 rows, victim in the middle};
// the 512-KByte template is {8 banks × 8 rows, victim at row 3}.
type BlockDataSpec struct {
	BanksWide int
	RowsDeep  int
	VictimRow int
	// stamps caches, from Prepare, the row writes that place the block
	// around every error-prone row, in deployment order.
	stamps []blockStamp
}

// blockStamp is one row write of a block deployment: row key receives
// block row `block` (bankCol*RowsDeep + depth) of the chromosome.
type blockStamp struct {
	key   dram.RowKey
	block int
}

// NewData24KSpec returns the 24-KByte experiment.
func NewData24KSpec() *BlockDataSpec {
	return &BlockDataSpec{BanksWide: 1, RowsDeep: 3, VictimRow: 1}
}

// NewData512KSpec returns the 512-KByte experiment.
func NewData512KSpec() *BlockDataSpec {
	return &BlockDataSpec{BanksWide: 8, RowsDeep: 8, VictimRow: 3}
}

// Name implements Spec.
func (s *BlockDataSpec) Name() string {
	return fmt.Sprintf("data%dk", s.BanksWide*s.RowsDeep*8)
}

// rowBits returns the chromosome bits per row image.
func (s *BlockDataSpec) rowBits(f *Framework) int {
	return f.Srv.MCU(f.MCU).Device().Geometry().WordsPerRow() * 64
}

// genomeBits returns the chromosome length.
func (s *BlockDataSpec) genomeBits(f *Framework) int {
	return s.BanksWide * s.RowsDeep * s.rowBits(f)
}

// Prepare implements Spec: it locates the error-prone rows, as the paper
// does from the errors collected in the earlier experiments, and plans the
// row writes that stamp the block around each of them.
func (s *BlockDataSpec) Prepare(f *Framework) error {
	s.stamps = nil
	dev := f.Srv.MCU(f.MCU).Device()
	victims := dev.WeakRows()
	if len(victims) == 0 {
		return fmt.Errorf("core: device has no error-prone rows")
	}
	s.stamps = s.planStamps(dev.Geometry(), victims)
	f.Srv.MCU(f.MCU).ResetStats()
	return nil
}

// NewPopulation implements Spec. The population size times the chromosome
// length can reach hundreds of kilobytes per genome; this is intentional —
// it is the paper's search space.
func (s *BlockDataSpec) NewPopulation(f *Framework, size int,
	rng *xrand.Rand) []ga.Genome {
	return ga.RandomBitPopulation(size, s.genomeBits(f), rng)
}

// planStamps lists the row writes of a deployment: non-victim rows first,
// then the victim rows, so a row that is both a victim and another victim's
// neighbour holds its victim image.
func (s *BlockDataSpec) planStamps(geom addrmap.Geometry,
	victims []dram.RowKey) []blockStamp {
	victimSet := make(map[dram.RowKey]bool, len(victims))
	for _, k := range victims {
		victimSet[k] = true
	}
	var stamps []blockStamp
	for _, victimsPass := range []bool{false, true} {
		for _, vk := range victims {
			for bankCol := 0; bankCol < s.BanksWide; bankCol++ {
				// BanksWide == 1 pins the block to the victim's own bank;
				// wider blocks span the banks in absolute order.
				bank := int(vk.Bank)
				if s.BanksWide > 1 {
					bank = bankCol % geom.Banks
				}
				for depth := 0; depth < s.RowsDeep; depth++ {
					row := int(vk.Row) + depth - s.VictimRow
					if row < 0 || row >= geom.Rows {
						continue
					}
					k := dram.RowKey{Rank: vk.Rank, Bank: int32(bank),
						Row: int32(row)}
					if victimSet[k] != victimsPass {
						continue
					}
					if victimsPass && k != vk {
						// Another victim's image is written by its own
						// iteration.
						continue
					}
					stamps = append(stamps, blockStamp{key: k,
						block: bankCol*s.RowsDeep + depth})
				}
			}
		}
	}
	return stamps
}

// Deploy implements Spec: it replays the planned row writes, each copying
// one block row straight from the genome's own words.
func (s *BlockDataSpec) Deploy(f *Framework, g ga.Genome) error {
	bg, ok := g.(*ga.BitGenome)
	if !ok {
		return fmt.Errorf("core: %s needs a bit genome", s.Name())
	}
	if bg.Bits.Len() != s.genomeBits(f) {
		return fmt.Errorf("core: %s chromosome has %d bits, want %d",
			s.Name(), bg.Bits.Len(), s.genomeBits(f))
	}
	if s.stamps == nil {
		return fmt.Errorf("core: %s not prepared", s.Name())
	}
	dev := f.Srv.MCU(f.MCU).Device()
	wordsPerRow := dev.Geometry().WordsPerRow()
	words := bg.Bits.Words()
	dev.Reset()
	for _, st := range s.stamps {
		base := st.block * wordsPerRow
		dev.FillRowWords(st.key, words[base:base+wordsPerRow])
	}
	return nil
}

// Encode implements Spec.
func (s *BlockDataSpec) Encode(g ga.Genome, rec *virusdb.Record) {
	// Full row-image chromosomes are large; the database stores them
	// verbatim (packed) — it is the paper's record of every virus.
	rec.Vec = g.(*ga.BitGenome).Bits
}

// Decode implements Spec.
func (s *BlockDataSpec) Decode(rec virusdb.Record) (ga.Genome, error) {
	v, err := rec.BitVec()
	if err != nil {
		return nil, err
	}
	return ga.NewBitGenome(v), nil
}
