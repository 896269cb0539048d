package dram

import (
	"sort"

	"dstress/internal/ecc"
)

// The evaluation plan is the device's run-invariant fast path. A GA fitness
// measurement repeats Run on an *identical* written state — ten times per
// AverageRuns batch, once per TREFP point in a marginal-refresh sweep — with
// only the RNG-driven noise (VRT state, cluster jitter) varying between
// runs. Everything else the reference evaluation derives per run is a pure
// function of the written state and the defect map: the sorted row order,
// each weak cell's resolved physical position and charge state, the
// data-dependent coupling divisors, which clusters are armed, and the ECC
// encoding of every word that can possibly be corrupted. The plan compiles
// all of it once per written state (tracked by a generation counter bumped
// on every mutation) and leaves each run with a flat walk of float
// arithmetic, RNG draws and threshold compares.
//
// Contract (see DESIGN.md §8):
//
//   - Results are bit-identical to the reference path (runReference, kept in
//     run.go and pinned by the differential suite in plan_test.go). That
//     requires preserving the reference's exact floating-point operation
//     order — cached values are the reference's intermediate *divisors*, not
//     algebraically pre-divided retention times — and its exact RNG draw
//     order: rows in sorted (rank, bank, row) order, each row's weak cells
//     in defect-map order before its clusters, one Bool draw per VRT cell,
//     one Norm draw per cluster with at least one charged cell.
//   - Any mutation of device state that evaluation reads must bump the
//     generation counter (WriteWord, FillRow, FillRowWords, FillAllUniform,
//     Reset, Age); the next Run recompiles. RowImage exposes rows read-only
//     for this reason.
//   - The plan and its scratch buffers belong to one device and are reused
//     across runs; Run results never alias them.

// planCell is a weak cell resolved against the current written state.
type planCell struct {
	cand        int32 // index into evalPlan.words
	bit         int32 // codeword bit to flip on failure
	src         int32 // defect-map index (v2 draw key; stable across states)
	charged     bool  // cell holds its charged state
	vrt         bool  // consumes one Bool(0.5) draw per run
	tau0        float64
	vrtMult     float64
	couplingDiv float64 // 1 + α·lateralCharged + δ·verticalDischarged
}

// planCluster is an armed (≥1 charged cell) defect cluster. Discharged
// clusters are dropped at compile time: the reference path skips them before
// drawing jitter, so they consume no RNG either way.
type planCluster struct {
	cand       int32
	partialBit int32 // first charged bit: the partial-band single leak
	src        int32 // defect-map index (v2 draw key; stable across states)
	tau0       float64
	clusterDiv float64 // 1 + α·(chargedN-1) + extα·ext
	fullBits   []int   // all charged bits, in cluster-bit order
}

// planRow is one written row holding defects, with [lo, hi) ranges into the
// plan's flat cell, cluster and candidate-word slices.
type planRow struct {
	key            RowKey
	cellLo, cellHi int32
	clLo, clHi     int32
	wordLo, wordHi int32
}

// planWord is a candidate word: a word column that holds at least one weak
// cell or cluster, with its ECC encoding cached.
type planWord struct {
	key      RowKey
	col      int
	original uint64
	enc      ecc.Word
}

// evalPlan is the compiled evaluation of one written state.
type evalPlan struct {
	gen         uint64 // device generation this plan was compiled against
	rows        []planRow
	cells       []planCell
	clusters    []planCluster
	words       []planWord
	partialBand float64 // physics ClusterPartialBand clamped to >= 1

	// bitsArena backs every planCluster.fullBits slice. Entries are written
	// once at compile time and never grow afterwards, so slices handed out
	// before an arena reallocation stay valid — they just alias the old
	// backing array.
	bitsArena []int

	// Per-run scratch, reused across runs: flips[i] collects the failing
	// bits of words[i]; touched lists the word indices with flips.
	flips   [][]int
	touched []int
}

// addFlip records a failing bit of candidate word w.
func (pl *evalPlan) addFlip(w int32, bit int) {
	if len(pl.flips[w]) == 0 {
		pl.touched = append(pl.touched, int(w))
	}
	pl.flips[w] = append(pl.flips[w], bit)
}

// planFor returns the plan for the device's current written state,
// recompiling if a mutation invalidated the cached one.
func (d *Device) planFor() *evalPlan {
	if d.plan == nil || d.plan.gen != d.gen {
		d.plan = d.compilePlan()
	}
	return d.plan
}

// sortRowKeys orders keys by (rank, bank, row) — the canonical evaluation
// order that fixes the RNG draw sequence and the error-log order.
func sortRowKeys(keys []RowKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
}

// compilePlan resolves every defect in a written row against the current row
// images. The cached couplingDiv/clusterDiv values are exactly the divisors
// the reference path computes per run, so applying them per run reproduces
// its floating-point results bit for bit.
func (d *Device) compilePlan() *evalPlan {
	phys := d.cfg.Physics
	pl := &evalPlan{gen: d.gen, partialBand: phys.ClusterPartialBand}
	if pl.partialBand < 1 {
		pl.partialBand = 1
	}

	// Only rows holding defects compile to anything, so walking the sorted
	// defect rows and keeping the written ones visits the same rows, in the
	// same order, as sorting every written row would.
	for ri, key := range d.weakRows {
		if d.RowWritten(key) {
			d.compileRowInto(pl, ri)
		}
	}

	pl.flips = make([][]int, len(pl.words))
	evalMet.planCompiles.Add(1)
	return pl
}

// compileRowInto resolves the defects of written row weakRows[ri] against
// the current row images and appends its candidate words, cells, clusters
// and planRow entry to pl. It is the single source of per-row compile
// semantics: the full compile above and the batch splice path (batch.go)
// both call it, so a spliced row is bit-identical to a freshly compiled one
// by construction. Positions, cell types and neighbours come from the
// device's resolved sites (sites.go); only data bits are read here.
func (d *Device) compileRowInto(pl *evalPlan, ri int) {
	phys := &d.cfg.Physics
	key := d.weakRows[ri]
	dr := &d.defectRows[ri]
	var nbImg [4][]uint64
	d.neighbourImages(key, &nbImg)
	img := nbImg[nbLeft]

	// Candidate words of this row, column-ascending so the error log
	// comes out sorted by (rank, bank, row, word col).
	base := int32(len(pl.words))
	for _, col := range dr.cols {
		pl.words = append(pl.words, planWord{
			key: key, col: col, original: img[col],
			enc: ecc.Encode(img[col]),
		})
	}

	cellLo := int32(len(pl.cells))
	for _, wi := range dr.weak {
		w := &d.weak[wi]
		s := &d.sites[wi]
		cand := base + s.slot
		var stored bool
		if w.Bit < 64 {
			stored = img[w.WordCol]&(1<<uint(w.Bit)) != 0
		} else {
			stored = pl.words[cand].enc.Check&(1<<uint(w.Bit-64)) != 0
		}
		lat, vert := s.coupling(&nbImg)
		pl.cells = append(pl.cells, planCell{
			cand:    cand,
			bit:     int32(w.Bit),
			src:     wi,
			charged: stored == s.trueCell,
			vrt:     w.VRT,
			tau0:    w.Tau0,
			vrtMult: w.VRTMult,
			couplingDiv: 1 + phys.CouplingAlpha*float64(lat) +
				phys.VCouplingDelta*float64(vert),
		})
	}

	clLo := int32(len(pl.clusters))
	for j, ci := range dr.clusters {
		c := &d.clusters[ci]
		data := img[c.WordCol]
		chargedN := 0
		bitsLo := len(pl.bitsArena)
		for _, b := range c.Bits {
			if data&(1<<uint(b)) == 0 { // charged anti-cell
				chargedN++
				pl.bitsArena = append(pl.bitsArena, b)
			}
		}
		if chargedN == 0 {
			pl.bitsArena = pl.bitsArena[:bitsLo]
			continue
		}
		fullBits := pl.bitsArena[bitsLo:len(pl.bitsArena):len(pl.bitsArena)]
		ext := 0
		for i, nb := range clusterNeighbourBits {
			bit := data&(1<<uint(nb)) != 0
			if bit == c.Neighbours[i] {
				ext++
			}
		}
		pl.clusters = append(pl.clusters, planCluster{
			cand:       base + dr.clSlots[j],
			partialBit: int32(fullBits[0]),
			src:        ci,
			tau0:       c.Tau0,
			clusterDiv: 1 + phys.ClusterAlpha*float64(chargedN-1) +
				phys.ClusterExtAlpha*float64(ext),
			fullBits: fullBits,
		})
	}

	pl.rows = append(pl.rows, planRow{
		key:    key,
		cellLo: cellLo, cellHi: int32(len(pl.cells)),
		clLo: clLo, clHi: int32(len(pl.clusters)),
		wordLo: base, wordHi: int32(len(pl.words)),
	})
}
