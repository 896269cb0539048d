// Package dram models a DDR3 DIMM at the level of detail DRAM reliability
// studies care about: a sparse population of weak cells with log-normal
// retention times, true- and anti-cells, data-dependent charge states,
// cell-to-cell interference within and across rows, variable retention time
// (VRT), row-hammer-style disturbance from neighbouring-row activations, and
// clustered multi-bit defects. Error counts are produced by actually
// encoding and decoding the affected 72-bit words through the (72,64)
// SECDED code, so the device reports CEs, UEs and SDCs exactly the way the
// paper's experimental server does.
//
// The model replaces the paper's physical DIMMs. Its constants are
// calibrated (see physics.go and the calibration tests) so the *relative*
// behaviour that DStress searches over — which data and access patterns
// produce more errors — matches the published measurements.
package dram

import (
	"fmt"

	"dstress/internal/addrmap"
)

// Config describes one simulated DIMM.
type Config struct {
	// Geometry is the address-decoder view of the DIMM.
	Geometry addrmap.Geometry

	// Seed determines the defect map: weak-cell positions and parameters,
	// per-row scrambling, faulty-column remaps, defect clusters. Two devices
	// with different seeds model DIMM-to-DIMM variation.
	Seed uint64

	// WeakCellsPerRank is the size of the retention-weak cell population in
	// each rank. Real 8 GB ranks expose a few thousand cells with retention
	// near the relaxed refresh period.
	WeakCellsPerRank int

	// ClustersPerRank is the number of clustered multi-bit defects (the UE
	// mechanism) per rank.
	ClustersPerRank int

	// ScrambledRowFrac is the fraction of rows whose within-word cell order
	// is scrambled by the vendor (address bits XORed), defeating pattern
	// placement that assumes the nominal layout.
	ScrambledRowFrac float64

	// PhaseFlipRowFrac is the fraction of rows whose true/anti cell layout
	// is phase-shifted by two columns (anti-cells first).
	PhaseFlipRowFrac float64

	// RemappedColsPerBank is the number of word columns per bank remapped to
	// spare columns (faulty-column repair).
	RemappedColsPerBank int

	// Physics holds the retention model constants.
	Physics Physics

	// StrengthScale multiplies weak-cell retention times; >1 models a
	// stronger DIMM (fewer errors under identical stress). Used to create
	// DIMM-to-DIMM variation. Zero means 1.
	StrengthScale float64
}

// DefaultConfig returns a DIMM configuration with rowsPerBank rows and the
// calibrated defaults. The weak-cell density (one per two rows) keeps the
// error-prone rows a minority while covering most of the 64 word-bit
// positions with at least one weak cell, so pattern searches constrain the
// whole chromosome as they do on the paper's full-size DIMMs.
func DefaultConfig(rowsPerBank int, seed uint64) Config {
	g := addrmap.Default(rowsPerBank)
	rows := g.Banks * rowsPerBank
	return Config{
		Geometry:            g,
		Seed:                seed,
		WeakCellsPerRank:    rows / 2,
		ClustersPerRank:     rows / 16,
		ScrambledRowFrac:    0.07,
		PhaseFlipRowFrac:    0.03,
		RemappedColsPerBank: 2,
		Physics:             DefaultPhysics(),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Geometry.Ranks > 1<<16 || c.Geometry.Banks > 1<<16 {
		return fmt.Errorf("dram: %d ranks of %d banks (at most %d each)",
			c.Geometry.Ranks, c.Geometry.Banks, 1<<16)
	}
	if c.WeakCellsPerRank < 0 {
		return fmt.Errorf("dram: WeakCellsPerRank = %d", c.WeakCellsPerRank)
	}
	if c.ClustersPerRank < 0 {
		return fmt.Errorf("dram: ClustersPerRank = %d", c.ClustersPerRank)
	}
	if c.ScrambledRowFrac < 0 || c.ScrambledRowFrac > 1 {
		return fmt.Errorf("dram: ScrambledRowFrac = %v", c.ScrambledRowFrac)
	}
	if c.PhaseFlipRowFrac < 0 || c.PhaseFlipRowFrac > 1 {
		return fmt.Errorf("dram: PhaseFlipRowFrac = %v", c.PhaseFlipRowFrac)
	}
	return c.Physics.Validate()
}
