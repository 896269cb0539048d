package dram

import (
	"fmt"
	"slices"

	"dstress/internal/addrmap"
	"dstress/internal/xrand"
)

// CellType distinguishes the two DRAM cell designs: a true-cell stores a
// logical '1' in the charged state, an anti-cell stores a logical '0'.
type CellType int

// The two cell designs.
const (
	TrueCell CellType = iota
	AntiCell
)

func (c CellType) String() string {
	if c == TrueCell {
		return "true-cell"
	}
	return "anti-cell"
}

// bitsPerWord is the width of a stored ECC word: 64 data + 8 check bits,
// one bit per chip of the 72-chip DIMM.
const bitsPerWord = 72

// RowKey identifies a row of one bank of one rank. It is the map key used
// for row images, weak-cell indices and activation counts.
type RowKey struct {
	Rank, Bank, Row int32
}

// Key builds a RowKey from an address-map location.
func Key(l addrmap.Loc) RowKey {
	return RowKey{Rank: int32(l.Rank), Bank: int32(l.Bank), Row: int32(l.Row)}
}

// rowID packs a row key into the uint64 that keys Device.rows: a 64-bit
// key takes the map's fast hash path, where the 12-byte struct hashed
// through the variable-length one. Config.Validate bounds ranks and banks
// to 16 bits each, so distinct rows of a device get distinct IDs.
func rowID(k RowKey) uint64 {
	return uint64(uint16(k.Rank))<<48 | uint64(uint16(k.Bank))<<32 | uint64(uint32(k.Row))
}

// Loc converts the key back to a location at column 0.
func (k RowKey) Loc() addrmap.Loc {
	return addrmap.Loc{Rank: int(k.Rank), Bank: int(k.Bank), Row: int(k.Row)}
}

// WeakCell is one retention-weak cell of the defect map.
type WeakCell struct {
	Key     RowKey
	WordCol int     // 64-bit word column within the row
	Bit     int     // bit within the stored word: 0..63 data, 64..71 check
	Tau0    float64 // base retention at TRefC, nominal VDD (seconds)
	VRT     bool    // cell exhibits variable retention time
	VRTMult float64 // retention multiplier of the alternate VRT state
}

// Cluster is a clustered multi-bit defect: several anti-cells in one word
// that share a retention time and strong mutual coupling, so that when the
// whole cluster is charged it fails as a multi-bit (uncorrectable) error.
type Cluster struct {
	Key     RowKey
	WordCol int
	Bits    []int   // data-bit positions within the word, all anti-cells
	Tau0    float64 // seconds at TRefC, nominal VDD
	// Neighbours holds the data-bit values of the cells flanking the
	// cluster (word bits 16, 19, 20, 23) that put those cells in the
	// charged state. Each cluster draws its own signature — defect
	// structures differ — which is why several dissimilar data patterns
	// maximize the UE count and the paper's UE search never converges.
	Neighbours [4]bool
}

// Device is one simulated DIMM.
type Device struct {
	cfg  Config
	geom addrmap.Geometry

	rows map[uint64][]uint64 // materialized row images (data bits only), by rowID
	// bg is the background image every row without a materialized image
	// reads as, set by FillAllUniform; nil means such rows are unwritten.
	// A uniform fill is then one row-sized write instead of one per row.
	bg []uint64
	// spare holds row images Reset and FillAllUniform released, with stale
	// contents; takeImage hands them out again before allocating, so a
	// deploy-per-evaluation loop stops churning row-sized allocations.
	spare [][]uint64

	// weak and clusters are the device's own copy of the defect map's
	// cells, whose retention times Age rescales.
	weak     []WeakCell
	clusters []Cluster

	*defectMap

	// gen counts mutations of evaluation-relevant state (row images via
	// WriteWord/FillRow/FillRowWords/FillAllUniform/Reset, defect
	// parameters via Age). The compiled evaluation plan (plan.go) and its
	// scratch buffers are keyed on it; a stale generation triggers
	// recompilation on the next Run.
	gen        uint64
	plan       *evalPlan
	envScratch []float64

	// Dirty-row tracking for the batch evaluation path (batch.go). While
	// tracking is on, every row-image write records its key so the next
	// batch item can splice only the touched row-spans of the previous
	// item's plan. Whole-device mutations (Reset, FillAllUniform, Age) set
	// trackAll, which forces a full recompile instead of a splice.
	tracking  bool
	trackAll  bool
	trackRows map[RowKey]struct{}
}

// defectMap is what NewDevice samples from Config.Seed and resolves from
// the sample. It is frozen once built, so every device Fresh makes shares
// it, and devices that share it may run concurrently.
type defectMap struct {
	// sampledWeak and sampledClusters are the cells as sampled. Age
	// rescales a device's own copies, never these.
	sampledWeak     []WeakCell
	sampledClusters []Cluster

	remap map[int32]map[int]int // bank -> logical word col -> physical col

	scrambleSalt uint64
	phaseSalt    uint64

	// weakRows are the rows holding defects, sorted; defectRows[i] is what
	// the defect map decides about weakRows[i], and sites[i] resolves weak
	// cell i's position (sites.go). None of it depends on retention times.
	weakRows   []RowKey
	defectRows []defectRow
	sites      []cellSite
}

// dirty invalidates the compiled evaluation plan. Every mutator of state
// that Run reads must call it.
func (d *Device) dirty() { d.gen++ }

// noteWrite records a row-image write for batch splicing. Mutators that
// change state beyond a single row's image (Reset, FillAllUniform, Age)
// call noteAll instead.
func (d *Device) noteWrite(k RowKey) {
	if d.tracking && !d.trackAll {
		d.trackRows[k] = struct{}{}
	}
}

// noteAll marks the whole device dirty for batch splicing.
func (d *Device) noteAll() {
	if d.tracking {
		d.trackAll = true
	}
}

// beginTracking starts dirty-row tracking; endTracking stops it. Only the
// batch path uses tracking, and a Device is not safe for concurrent use, so
// nesting cannot occur.
func (d *Device) beginTracking() {
	d.tracking = true
	d.trackAll = false
	if d.trackRows == nil {
		d.trackRows = make(map[RowKey]struct{})
	} else {
		clear(d.trackRows)
	}
}

func (d *Device) endTracking() {
	d.tracking = false
	d.trackAll = false
	clear(d.trackRows)
}

// resetTracking clears the recorded rows between batch items.
func (d *Device) resetTracking() {
	d.trackAll = false
	clear(d.trackRows)
}

// ClusterBitPositions are the in-word data bits occupied by every defect
// cluster. The paper's Fig 8d observation — bits 17, 18, 21 and 22 are '0'
// in every discovered UE pattern — is the signature of these positions: the
// cluster cells are anti-cells, so they are charged (and can fail together)
// only when all four bits hold '0'.
var ClusterBitPositions = []int{17, 18, 21, 22}

// NewDevice builds the device and samples its defect map from cfg.Seed.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StrengthScale == 0 {
		cfg.StrengthScale = 1
	}
	d := &Device{
		cfg:       cfg,
		geom:      cfg.Geometry,
		rows:      make(map[uint64][]uint64),
		defectMap: &defectMap{remap: make(map[int32]map[int]int)},
	}
	root := xrand.New(cfg.Seed)
	d.scrambleSalt = root.Uint64()
	d.phaseSalt = root.Uint64()
	d.sampleWeakCells(root.Split())
	d.sampleClusters(root.Split())
	d.sampleRemaps(root.Split())
	d.weakRows = d.computeWeakRows()
	d.resolveDefects()
	d.sampledWeak = slices.Clone(d.weak)
	d.sampledClusters = slices.Clone(d.clusters)
	return d, nil
}

// Fresh returns the device NewDevice(d.Config()) would build: nothing
// written, no wear. It shares d's frozen defect map and copies only the
// sampled cells, whose retention times its own Age rescales, so it costs
// a copy instead of a sampling. d and the fresh device may run
// concurrently.
func (d *Device) Fresh() *Device {
	return &Device{
		cfg:       d.cfg,
		geom:      d.geom,
		rows:      make(map[uint64][]uint64),
		weak:      slices.Clone(d.sampledWeak),
		clusters:  slices.Clone(d.sampledClusters),
		defectMap: d.defectMap,
	}
}

// MustNewDevice is NewDevice that panics on error; for tests and examples.
func MustNewDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Geometry returns the address-decoder geometry.
func (d *Device) Geometry() addrmap.Geometry { return d.geom }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

func (d *Device) sampleWeakCells(rng *xrand.Rand) {
	p := d.cfg.Physics
	for rank := 0; rank < d.geom.Ranks; rank++ {
		for i := 0; i < d.cfg.WeakCellsPerRank; i++ {
			key := RowKey{
				Rank: int32(rank),
				Bank: int32(rng.Intn(d.geom.Banks)),
				Row:  int32(rng.Intn(d.geom.Rows)),
			}
			wc := WeakCell{
				Key:     key,
				WordCol: rng.Intn(d.geom.WordsPerRow()),
				Bit:     rng.Intn(bitsPerWord),
				Tau0: (p.TauFloor + rng.LogNorm(p.RetMu, p.RetSigma)) *
					d.cfg.StrengthScale,
			}
			if rng.Bool(p.VRTProb) {
				wc.VRT = true
				wc.VRTMult = p.VRTLow + rng.Float64()*(p.VRTHigh-p.VRTLow)
			}
			d.weak = append(d.weak, wc)
		}
	}
}

// clusterSignatures are the neighbour-value signatures clusters draw from.
// They are chosen so that no traditional micro-benchmark fill reaches the
// full external coupling: all-0s matches at most 2 positions of any
// signature, all-1s leaves every cluster discharged, and the checkerboard's
// neighbour values (0,1,0,1) match at most one position.
var clusterSignatures = [][4]bool{
	{true, false, true, false},
	{true, true, true, false},
	{true, false, true, true},
}

func (d *Device) sampleClusters(rng *xrand.Rand) {
	p := d.cfg.Physics
	for rank := 0; rank < d.geom.Ranks; rank++ {
		for i := 0; i < d.cfg.ClustersPerRank; i++ {
			key := RowKey{
				Rank: int32(rank),
				Bank: int32(rng.Intn(d.geom.Banks)),
				Row:  int32(rng.Intn(d.geom.Rows)),
			}
			cl := Cluster{
				Key:     key,
				WordCol: rng.Intn(d.geom.WordsPerRow()),
				Bits:    append([]int(nil), ClusterBitPositions...),
				// Small spread keeps the failure-onset temperature shared
				// across clusters and DIMMs — the paper finds the UE
				// probability depends mainly on temperature, so the defect
				// clusters deliberately do not follow the per-DIMM
				// retention strength.
				Tau0: p.ClusterTau0 * (0.995 + 0.01*rng.Float64()),
				// Round-robin signatures guarantee every signature occurs.
				Neighbours: clusterSignatures[i%len(clusterSignatures)],
			}
			d.clusters = append(d.clusters, cl)
		}
	}
}

func (d *Device) sampleRemaps(rng *xrand.Rand) {
	for bank := 0; bank < d.geom.Banks; bank++ {
		m := make(map[int]int)
		for i := 0; i < d.cfg.RemappedColsPerBank; i++ {
			faulty := rng.Intn(d.geom.WordsPerRow())
			spare := d.geom.WordsPerRow() - 1 - i
			// Swap the two columns so the logical→physical column mapping
			// stays a bijection (the spare's former position is reused).
			_, fDup := m[faulty]
			_, sDup := m[spare]
			if faulty != spare && !fDup && !sDup {
				m[faulty] = spare
				m[spare] = faulty
			}
		}
		d.remap[int32(bank)] = m
	}
}

// mix hashes a row identity with a salt; used to derive deterministic
// per-row properties without storing per-row metadata.
func mix(salt uint64, k RowKey) uint64 {
	z := salt ^ uint64(k.Rank)<<48 ^ uint64(uint32(k.Bank))<<32 ^
		uint64(uint32(k.Row))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func hashFrac(salt uint64, k RowKey) float64 {
	return float64(mix(salt, k)>>11) / (1 << 53)
}

// ScrambleMask returns the XOR mask applied to a row's within-word data-bit
// order, 0 for unscrambled rows. The mask is self-inverse: physical and
// logical positions are related by position^mask in both directions. Masks
// 2 and 3 shift data relative to the 4-column-periodic cell-type layout,
// which is exactly what defeats layout-assuming data patterns.
func (d *Device) ScrambleMask(k RowKey) int {
	f := hashFrac(d.scrambleSalt, k)
	if f >= d.cfg.ScrambledRowFrac {
		return 0
	}
	// Split scrambled rows between the two misaligning masks.
	if f < d.cfg.ScrambledRowFrac/2 {
		return 2
	}
	return 3
}

// PhaseFlipped reports whether the row's cell-type layout starts with
// anti-cells (layout aatt instead of ttaa).
func (d *Device) PhaseFlipped(k RowKey) bool {
	return hashFrac(d.phaseSalt, k) < d.cfg.PhaseFlipRowFrac
}

// physWordCol applies faulty-column remapping.
func (d *Device) physWordCol(bank int32, col int) int {
	if to, ok := d.remap[bank][col]; ok {
		return to
	}
	return col
}

// CellTypeAt returns the design of the cell at a physical bit position
// within a row. The layout is the 4-periodic true,true,anti,anti order the
// paper infers for its DIMMs, optionally phase-flipped per row.
func (d *Device) CellTypeAt(k RowKey, physBit int) CellType {
	pos := physBit
	if d.PhaseFlipped(k) {
		pos += 2
	}
	if pos%4 < 2 {
		return TrueCell
	}
	return AntiCell
}

// physBit returns the physical bit position of stored bit `bit` (0..71) of
// word `col` in row k, applying column remap and within-word scrambling.
// Check bits (64..71) are not scrambled.
func (d *Device) physBit(k RowKey, col, bit int) int {
	pc := d.physWordCol(k.Bank, col)
	if bit < 64 {
		bit ^= d.ScrambleMask(k)
	}
	return pc*bitsPerWord + bit
}

// WriteWord stores a 64-bit data word at the given location. Check bits are
// implied (recomputed from data when the row is evaluated), matching a
// memory controller that writes full ECC words. The first write to a row
// without its own image materializes one from the background row of a
// uniform fill, or zeroed when there is none.
func (d *Device) WriteWord(l addrmap.Loc, v uint64) {
	k := Key(l)
	img := d.rows[rowID(k)]
	if img == nil {
		img = d.newImage(k)
		if d.bg != nil {
			copy(img, d.bg)
		} else {
			clear(img)
		}
	}
	img[l.Col] = v
	d.dirty()
	d.noteWrite(k)
}

// ReadWord returns the stored word and whether the row has been written.
func (d *Device) ReadWord(l addrmap.Loc) (uint64, bool) {
	img := d.image(Key(l))
	if img == nil {
		return 0, false
	}
	return img[l.Col], true
}

// RowImage returns the raw words of a row, or nil if never written. The
// slice is the live image: callers must treat it as read-only and write
// through WriteWord/FillRow, or the evaluation plan goes stale unnoticed.
// After a uniform fill the slice may be the background row every unwritten
// row shares, so it goes stale after any write to the row: a write gives
// the row its own image, and a caller that writes must take RowImage again
// before reading on.
func (d *Device) RowImage(k RowKey) []uint64 { return d.image(k) }

// RowWritten reports whether the row holds data: its own image, or the
// background row of a uniform fill.
func (d *Device) RowWritten(k RowKey) bool { return d.image(k) != nil }

// image returns row k's materialized image, else the background row (nil
// when there is none). Every read of a row image goes through it. After a
// uniform fill no row has its own image, and the map lookup is skipped.
func (d *Device) image(k RowKey) []uint64 {
	if len(d.rows) == 0 {
		return d.bg
	}
	if img, ok := d.rows[rowID(k)]; ok {
		return img
	}
	return d.bg
}

// newImage materializes row k's image. A spare image keeps its stale
// contents: the caller must overwrite or clear all of it.
func (d *Device) newImage(k RowKey) []uint64 {
	img := d.takeImage()
	d.rows[rowID(k)] = img
	return img
}

// takeImage returns a row-sized buffer, a spare one when there is one.
func (d *Device) takeImage() []uint64 {
	if n := len(d.spare); n > 0 {
		img := d.spare[n-1]
		d.spare = d.spare[:n-1]
		return img
	}
	return make([]uint64, d.geom.WordsPerRow())
}

// releaseRows moves every materialized image to the spares.
func (d *Device) releaseRows() {
	for _, img := range d.rows {
		d.spare = append(d.spare, img)
	}
	clear(d.rows)
}

// Reset discards all stored data (power cycle), keeping the defect map.
// The released row images are kept for reuse, so a RowImage slice taken
// before a Reset must not be read after it.
func (d *Device) Reset() {
	d.releaseRows()
	if d.bg != nil {
		d.spare = append(d.spare, d.bg)
		d.bg = nil
	}
	d.dirty()
	d.noteAll()
}

// WeakCells returns the defect map's weak cells (shared slice; read only).
func (d *Device) WeakCells() []WeakCell { return d.weak }

// Clusters returns the multi-bit defect clusters (shared slice; read only).
func (d *Device) Clusters() []Cluster { return d.clusters }

// WeakRows returns the keys of all rows containing weak cells or clusters,
// sorted by (rank, bank, row). These are the "error-prone rows" the paper's
// 24-KByte and access templates target. The set is computed once at
// construction — defect positions are immutable for the device's lifetime
// (Age only rescales retention times) — and returned as a fresh copy.
func (d *Device) WeakRows() []RowKey {
	return append([]RowKey(nil), d.weakRows...)
}

// computeWeakRows builds the sorted defect-row set for WeakRows.
func (d *Device) computeWeakRows() []RowKey {
	set := make(map[RowKey]bool, len(d.weak)+len(d.clusters))
	for i := range d.weak {
		set[d.weak[i].Key] = true
	}
	for i := range d.clusters {
		set[d.clusters[i].Key] = true
	}
	keys := make([]RowKey, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sortRowKeys(keys)
	return keys
}

// String summarises the device.
func (d *Device) String() string {
	return fmt.Sprintf("dram.Device{%d ranks, %d banks x %d rows, %d weak cells, %d clusters}",
		d.geom.Ranks, d.geom.Banks, d.geom.Rows, len(d.weak), len(d.clusters))
}
