package dram

import (
	"fmt"
	"math"
	"sort"

	"dstress/internal/ecc"
	"dstress/internal/xrand"
)

// RunParams are the operating conditions of one evaluation run — one
// simulated execution interval of a virus or benchmark, corresponding to the
// paper's 2-hour measurement runs.
type RunParams struct {
	TREFP float64 // refresh period in seconds (nominal DDR3: 0.064)
	TempC float64 // DIMM temperature in °C
	VDD   float64 // supply voltage in volts (nominal DDR3: 1.5)

	// TempByRank overrides TempC per rank: the thermal testbed heats each
	// DIMM rank independently, so experiments can stress one rank hotter.
	// Ranks absent from the map use TempC.
	TempByRank map[int]float64

	// TREFPByRow overrides the refresh period per row, modelling
	// retention-aware refresh schemes (RAIDR-style): rows binned as weak
	// refresh faster than the rest. Rows absent from the map use TREFP.
	TREFPByRow map[RowKey]float64

	// ActsPerWindow gives, per row, the number of activations the row
	// receives during one refresh window (as produced by the memory
	// controller model). Rows absent from the map are not activated beyond
	// refresh. Nil means no explicit accesses.
	ActsPerWindow map[RowKey]float64

	// RNG drives per-run stochastic effects (VRT state, cluster jitter). It
	// must be non-nil; re-running with a fresh generator models the
	// run-to-run variation the paper averages over ten runs.
	RNG *xrand.Rand

	// Version selects the determinism contract the stochastic terms follow.
	// The zero value means DeterminismV1 — the original sequential-draw
	// contract every recorded experiment and v1 checkpoint is pinned to.
	// DeterminismV2 evaluates on counter-based per-cell streams (run_v2.go)
	// through the batch engine (batch.go):
	// same physics, different (and order-independent) noise draws, so v1 and
	// v2 results are each self-consistent but not comparable to one another.
	Version DeterminismVersion
}

// Validate reports whether the parameters are usable.
func (p RunParams) Validate() error {
	switch {
	case p.TREFP <= 0:
		return fmt.Errorf("dram: TREFP = %v", p.TREFP)
	case p.VDD <= 0:
		return fmt.Errorf("dram: VDD = %v", p.VDD)
	case p.RNG == nil:
		return fmt.Errorf("dram: RunParams.RNG is nil")
	}
	return p.Version.Validate()
}

// WordError describes one corrupted 72-bit word observed in a run.
type WordError struct {
	Key     RowKey
	WordCol int
	Flips   []int // codeword bit positions that flipped (0..71)
	Status  ecc.Status
	SDC     bool // decode returned wrong data without signalling UE
}

// RunResult aggregates the ECC log of one run.
type RunResult struct {
	CE  int // correctable errors (one per affected word)
	UE  int // uncorrectable (detected multi-bit) errors
	SDC int // silent data corruptions (miscorrected or aliased words)

	// CEByRank splits the CEs per rank, for spatial-distribution figures.
	CEByRank map[int]int

	Errors []WordError
}

// HasUE reports whether the run hit at least one uncorrectable error; the
// paper's framework kills a virus as soon as the OS sees a UE.
func (r RunResult) HasUE() bool { return r.UE > 0 }

type flipKey struct {
	key RowKey
	col int
}

// Run evaluates the device under the given conditions: every weak cell and
// defect cluster located in a written row is tested against the retention
// model, the resulting bit flips are grouped per word, and each corrupted
// word is pushed through the SECDED decoder to classify it as CE, UE or SDC.
//
// Run executes on the compiled evaluation plan (see plan.go): everything
// that depends only on the written state is resolved once per state, and
// each run applies only the operating conditions, the stochastic VRT/jitter
// terms and the threshold compares. Results — including the RNG stream
// consumed and the Errors log — are bit-identical to the retained reference
// path (runReference), which the differential suite enforces. Errors are
// sorted by (rank, bank, row, word col). Under determinism v2, Run is
// RunBatch on one item that writes nothing and draws from p.RNG.
//
// A Device is not safe for concurrent use; the farm gives every worker its
// own clone.
func (d *Device) Run(p RunParams) (RunResult, error) {
	if err := p.Validate(); err != nil {
		return RunResult{}, err
	}
	if p.Version.Normalize() == DeterminismV2 {
		res, err := d.RunBatch(p, batchOfOne(p.RNG))
		if err != nil {
			return RunResult{}, err
		}
		return res[0], nil
	}
	evalMet.singleRuns.Add(1)
	phys := d.cfg.Physics
	pl := d.planFor()

	if cap(d.envScratch) < d.geom.Ranks {
		d.envScratch = make([]float64, d.geom.Ranks)
	}
	envByRank := d.envScratch[:d.geom.Ranks]
	for rank := range envByRank {
		temp := p.TempC
		if t, ok := p.TempByRank[rank]; ok {
			temp = t
		}
		envByRank[rank] = phys.tempFactor(temp) * phys.vddFactor(p.VDD)
	}

	rng := p.RNG
	for ri := range pl.rows {
		row := &pl.rows[ri]
		hammer := d.hammerFor(row.key, p.ActsPerWindow)
		envFactor := envByRank[row.key.Rank]
		trefp := p.TREFP
		if t, ok := p.TREFPByRow[row.key]; ok {
			trefp = t
		}
		hammerDiv := 1 + phys.HammerBeta*hammer
		clHammerDiv := 1 + phys.ClusterHammerB*hammer

		for i := row.cellLo; i < row.cellHi; i++ {
			c := &pl.cells[i]
			tau := c.tau0 * envFactor
			if c.vrt && rng.Bool(0.5) {
				tau *= c.vrtMult
			}
			tau /= c.couplingDiv
			tau /= hammerDiv
			var fails bool
			if c.charged {
				fails = tau < trefp
			} else {
				fails = tau*phys.GainFactor < trefp
			}
			if fails {
				pl.addFlip(c.cand, int(c.bit))
			}
		}

		for i := row.clLo; i < row.clHi; i++ {
			k := &pl.clusters[i]
			jitter := math.Exp(rng.Norm(0, phys.ClusterJitter))
			tau := k.tau0 * envFactor * jitter
			tau /= k.clusterDiv
			tau /= clHammerDiv
			if tau >= trefp*pl.partialBand {
				continue
			}
			if tau >= trefp {
				pl.addFlip(k.cand, int(k.partialBit))
				continue
			}
			for _, b := range k.fullBits {
				pl.addFlip(k.cand, b)
			}
		}
	}

	return pl.classify(), nil
}

// classify decodes the accumulated flips of a run, draining the scratch.
// Corrupted words are visited in index order — candidates are laid out
// row-major with ascending word columns, so the log comes out sorted.
// Touched indices can be out of order only within one row. Both determinism
// versions share this tail: flips in, sorted ECC log out.
func (pl *evalPlan) classify() RunResult {
	sort.Ints(pl.touched)
	res := RunResult{CEByRank: make(map[int]int)}
	for _, wi := range pl.touched {
		bits := pl.flips[wi]
		pw := &pl.words[wi]
		word := pw.enc
		for _, b := range bits {
			word = word.FlipBit(b)
		}
		dec := ecc.Decode(word)
		we := WordError{Key: pw.key, WordCol: pw.col,
			Flips: append([]int(nil), bits...), Status: dec.Status}
		switch {
		case dec.Status == ecc.Uncorrectable:
			res.UE++
		case dec.Data != pw.original:
			we.SDC = true
			res.SDC++
		case dec.Status == ecc.Corrected:
			res.CE++
			res.CEByRank[int(pw.key.Rank)]++
		}
		res.Errors = append(res.Errors, we)
		pl.flips[wi] = bits[:0]
	}
	pl.touched = pl.touched[:0]
	return res
}

// runReference is the direct (plan-free) evaluation the fast path is
// verified against: it re-derives row order, physical positions, charge
// states and couplings on every run. It must stay semantically frozen — the
// differential suite in plan_test.go runs it against Run across seeds,
// temperatures, scrambled/remapped rows, hammer patterns and per-row TREFP
// overrides and requires bit-identical results.
func (d *Device) runReference(p RunParams) (RunResult, error) {
	if err := p.Validate(); err != nil {
		return RunResult{}, err
	}
	phys := d.cfg.Physics
	envByRank := make([]float64, d.geom.Ranks)
	for rank := range envByRank {
		temp := p.TempC
		if t, ok := p.TempByRank[rank]; ok {
			temp = t
		}
		envByRank[rank] = phys.tempFactor(temp) * phys.vddFactor(p.VDD)
	}

	flips := make(map[flipKey][]int)

	// Iterate written rows in a fixed order: evaluation consumes the run's
	// RNG stream, so the order must not depend on map iteration. Rows
	// without defects draw nothing and flip nothing, so the sorted defect
	// rows that are written are the whole walk.
	for ri, key := range d.weakRows {
		if !d.RowWritten(key) {
			continue
		}
		dr := &d.defectRows[ri]
		hammer := d.hammerFor(key, p.ActsPerWindow)
		envFactor := envByRank[key.Rank]
		rp := p
		if t, ok := p.TREFPByRow[key]; ok {
			rp.TREFP = t
		}

		for _, idx := range dr.weak {
			w := &d.weak[idx]
			if d.weakCellFails(w, key, envFactor, hammer, rp) {
				fk := flipKey{key, w.WordCol}
				flips[fk] = append(flips[fk], w.Bit)
			}
		}

		for _, idx := range dr.clusters {
			c := &d.clusters[idx]
			d.clusterFails(c, key, envFactor, hammer, rp, flips)
		}
	}

	// Log errors in (rank, bank, row, word col) order, not map order: the
	// error log of two identical runs must be identical.
	fks := make([]flipKey, 0, len(flips))
	for fk := range flips {
		fks = append(fks, fk)
	}
	sort.Slice(fks, func(i, j int) bool {
		a, b := fks[i], fks[j]
		if a.key != b.key {
			if a.key.Rank != b.key.Rank {
				return a.key.Rank < b.key.Rank
			}
			if a.key.Bank != b.key.Bank {
				return a.key.Bank < b.key.Bank
			}
			return a.key.Row < b.key.Row
		}
		return a.col < b.col
	})

	res := RunResult{CEByRank: make(map[int]int)}
	for _, fk := range fks {
		bits := flips[fk]
		original := d.image(fk.key)[fk.col]
		word := ecc.Encode(original)
		for _, b := range bits {
			word = word.FlipBit(b)
		}
		dec := ecc.Decode(word)
		we := WordError{Key: fk.key, WordCol: fk.col, Flips: bits,
			Status: dec.Status}
		switch {
		case dec.Status == ecc.Uncorrectable:
			res.UE++
		case dec.Data != original:
			we.SDC = true
			res.SDC++
		case dec.Status == ecc.Corrected:
			res.CE++
			res.CEByRank[int(fk.key.Rank)]++
		}
		res.Errors = append(res.Errors, we)
	}
	return res, nil
}

// hammerFor returns the per-window activations of the rows physically
// adjacent to key — the disturbance its cells experience.
func (d *Device) hammerFor(key RowKey, acts map[RowKey]float64) float64 {
	if acts == nil {
		return 0
	}
	h := 0.0
	if key.Row > 0 {
		h += acts[RowKey{key.Rank, key.Bank, key.Row - 1}]
	}
	if int(key.Row) < d.geom.Rows-1 {
		h += acts[RowKey{key.Rank, key.Bank, key.Row + 1}]
	}
	return h
}

func (d *Device) weakCellFails(w *WeakCell, key RowKey, envFactor,
	hammer float64, p RunParams) bool {
	phys := d.cfg.Physics

	stored, ok := d.storedBit(key, w.WordCol, w.Bit)
	if !ok {
		return false
	}
	pos := d.physBit(key, w.WordCol, w.Bit)
	charged := stored == (d.CellTypeAt(key, pos) == TrueCell)

	tau := w.Tau0 * envFactor
	if w.VRT && p.RNG.Bool(0.5) {
		tau *= w.VRTMult
	}
	lat, vert := d.neighbourCoupling(key, pos)
	tau /= 1 + phys.CouplingAlpha*float64(lat) +
		phys.VCouplingDelta*float64(vert)
	tau /= 1 + phys.HammerBeta*hammer

	if charged {
		return tau < p.TREFP
	}
	return tau*phys.GainFactor < p.TREFP
}

// clusterFails evaluates a multi-bit defect cluster and appends any failing
// bits to flips. All cluster cells are anti-cells sharing one retention
// time. Two couplings lower the shared retention: the intra-cluster
// coupling (per charged sibling) and the external coupling from charged
// lateral neighbours of the cluster cells. Reaching the failure point below
// the standalone onset temperature (~66 °C at the relaxed refresh period)
// requires both the whole cluster charged (its data bits all '0') and the
// neighbouring bits driven to their charged values — a combination the
// paper's GA discovers at 62 °C but no simple micro-benchmark fill produces.
func (d *Device) clusterFails(c *Cluster, key RowKey, envFactor,
	hammer float64, p RunParams, flips map[flipKey][]int) {
	phys := d.cfg.Physics
	data := d.image(key)[c.WordCol]

	chargedN := 0
	for _, b := range c.Bits {
		if data&(1<<uint(b)) == 0 { // anti-cell storing '0' is charged
			chargedN++
		}
	}
	if chargedN == 0 {
		return
	}
	// External coupling comes from the cells flanking the cluster (word
	// bits 16, 19, 20, 23). Each flanking cell is charged when the word
	// holds the cluster's own signature value at its position.
	ext := 0
	for i, nb := range clusterNeighbourBits {
		bit := data&(1<<uint(nb)) != 0
		if bit == c.Neighbours[i] {
			ext++
		}
	}
	jitter := math.Exp(p.RNG.Norm(0, phys.ClusterJitter))
	tau := c.Tau0 * envFactor * jitter
	tau /= 1 + phys.ClusterAlpha*float64(chargedN-1) +
		phys.ClusterExtAlpha*float64(ext)
	tau /= 1 + phys.ClusterHammerB*hammer
	partialBand := phys.ClusterPartialBand
	if partialBand < 1 {
		partialBand = 1
	}
	if tau >= p.TREFP*partialBand {
		return
	}
	fk := flipKey{key, c.WordCol}
	if tau >= p.TREFP {
		// Partial failure: only the weakest member leaks — one CE. This is
		// the stepping stone the UE search climbs.
		for _, b := range c.Bits {
			if data&(1<<uint(b)) == 0 {
				flips[fk] = append(flips[fk], b)
				return
			}
		}
		return
	}
	for _, b := range c.Bits {
		if data&(1<<uint(b)) == 0 {
			flips[fk] = append(flips[fk], b)
		}
	}
}

// clusterNeighbourBits are the word bits flanking the cluster positions
// {17,18} and {21,22}.
var clusterNeighbourBits = []int{16, 19, 20, 23}

// storedBit returns the value of stored bit `bit` (0..71) of word col in
// row key, and whether the row is written. Bits 64..71 are the ECC check
// bits, recomputed from the data as the controller would store them.
func (d *Device) storedBit(key RowKey, col, bit int) (bool, bool) {
	img := d.image(key)
	if img == nil {
		return false, false
	}
	if bit < 64 {
		return img[col]&(1<<uint(bit)) != 0, true
	}
	check := ecc.Checksum(img[col])
	return check&(1<<uint(bit-64)) != 0, true
}

// chargedAtPhys reports the charge state of the cell at physical bit
// position pos of row key. The second result is false when the state is
// unknown: out-of-range positions and unwritten rows, which contribute to
// no coupling at all.
func (d *Device) chargedAtPhys(key RowKey, pos int) (charged, known bool) {
	if pos < 0 || pos >= d.geom.WordsPerRow()*bitsPerWord {
		return false, false
	}
	physCol := pos / bitsPerWord
	q := pos % bitsPerWord
	logCol := d.physWordCol(key.Bank, physCol) // remap is an involution
	logBit := q
	if q < 64 {
		logBit = q ^ d.ScrambleMask(key)
	}
	v, ok := d.storedBit(key, logCol, logBit)
	if !ok {
		return false, false
	}
	return v == (d.CellTypeAt(key, pos) == TrueCell), true
}

// neighbourCoupling returns the two data-dependent coupling terms of a cell
// at position pos of row key: the number of *charged* lateral neighbours
// (same row, positions pos±1) and the number of *discharged* vertical
// neighbours (same position, physically adjacent rows). Cells in unwritten
// rows contribute to neither.
func (d *Device) neighbourCoupling(key RowKey, pos int) (lateral, vertical int) {
	if c, ok := d.chargedAtPhys(key, pos-1); ok && c {
		lateral++
	}
	if c, ok := d.chargedAtPhys(key, pos+1); ok && c {
		lateral++
	}
	if key.Row > 0 {
		if c, ok := d.chargedAtPhys(RowKey{key.Rank, key.Bank, key.Row - 1},
			pos); ok && !c {
			vertical++
		}
	}
	if int(key.Row) < d.geom.Rows-1 {
		if c, ok := d.chargedAtPhys(RowKey{key.Rank, key.Bank, key.Row + 1},
			pos); ok && !c {
			vertical++
		}
	}
	return lateral, vertical
}

// AverageRuns executes n runs with fresh RNG splits and returns the mean CE
// count, the mean SDC count and the fraction of runs that hit a UE. This is
// the paper's ten-run averaging protocol that smooths VRT noise. Under
// determinism v2 it is AverageRunsBatch on one item that writes nothing and
// splits rng.
func (d *Device) AverageRuns(p RunParams, n int, rng *xrand.Rand) (meanCE,
	meanSDC, ueFrac float64, err error) {
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("dram: AverageRuns n = %d", n)
	}
	if p.Version.Normalize() == DeterminismV2 {
		res, err := d.AverageRunsBatch(p, n, batchOfOne(rng))
		if err != nil {
			return 0, 0, 0, err
		}
		return res[0].MeanCE, res[0].MeanSDC, res[0].UEFrac, nil
	}
	var ceSum, sdcSum, ues int
	for i := 0; i < n; i++ {
		p.RNG = rng.Split()
		res, rerr := d.Run(p)
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		ceSum += res.CE
		sdcSum += res.SDC
		if res.HasUE() {
			ues++
		}
	}
	return float64(ceSum) / float64(n), float64(sdcSum) / float64(n),
		float64(ues) / float64(n), nil
}
