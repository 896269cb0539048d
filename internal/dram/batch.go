package dram

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"dstress/internal/ecc"
	"dstress/internal/xrand"
)

// Batch evaluation (DESIGN.md §13) — the one determinism-v2 kernel. A GA
// generation evaluates a population of near-identical written states
// against one device under one set of operating conditions. Evaluated one
// by one, each candidate would pay full setup: plan compile, SoA
// derivation, conditions tables, scratch allocation. The batch amortizes
// all of it across the generation:
//
//   - the run-invariant plan is compiled once, for the first item; every
//     later item splices only the rows its Apply actually wrote (dilated
//     ±1, because neighbour couplings read the adjacent row images) and
//     copies the untouched row-spans of the previous item's plan;
//   - the conditions tables are derived per row and copied for rows whose
//     hammer pressure did not move between items — the shared TREFP /
//     temperature / VDD conditions never move within a call;
//   - all storage comes from a sync.Pool-backed session holding two
//     ping-pong buffers, so steady-state generations allocate near zero.
//
// The contract: for every item, RunBatch/AverageRunsBatch produce results
// bit-identical to calling item.Apply and then evaluating the device alone —
// a batch of one, which is what Run and AverageRuns are under v2 — with the
// same parameters and the same RNG. The splice machinery shares
// compileRowInto with the full compile and derives the same conditions per
// row, so a spliced plan is the plan a full compile would have produced; the
// differential suites hold both to the plan-free v2 reference. Under
// determinism v1 the batch path is rejected: v1 pins the sequential draw
// order, which the order-independent keyed accumulation below cannot honour.

// BatchItem is one genome's slot in a batch evaluation.
type BatchItem struct {
	// Apply writes the item's state onto the device — the batch equivalent
	// of a spec Deploy. Items apply cumulatively in slice order, exactly as
	// a serial per-genome evaluation deploys onto one worker's device.
	Apply func(d *Device) error

	// Acts, when non-nil, supplies this item's ActsPerWindow override: the
	// access pattern a genome drives through the memory controller is
	// per-genome state even when the refresh/temperature/voltage conditions
	// are shared. It is called once, directly after Apply — controller-level
	// producers drain pending writebacks into the device at that point, so
	// the call must precede the plan splice. It returns the rates laid out
	// densely, entry (rank*Banks+bank)*Rows+row for each row and 0 for a
	// row with no activations, or nil for none at all: the map
	// ActsPerWindow holds, indexed instead of hashed. The slice must not be
	// mutated, and is read only while this item is evaluated: a memory
	// controller's slice is valid until its next rates call or reset, and
	// it refills the same slice for the next item.
	Acts func() []float64

	// RNG is the item's pre-split generator — the same generator a
	// per-genome evaluation would pass to Run (via RunParams.RNG) or
	// AverageRuns.
	RNG *xrand.Rand
}

// batchOfOne is a per-genome v2 evaluation as a batch: one item that writes
// nothing and draws from rng.
func batchOfOne(rng *xrand.Rand) []BatchItem {
	return []BatchItem{{Apply: func(*Device) error { return nil }, RNG: rng}}
}

// BatchResult is the averaged measurement of one batch item, mirroring the
// aggregation the per-genome callers perform over AverageRuns and
// RunResult.CEByRank.
type BatchResult struct {
	MeanCE  float64
	MeanSDC float64
	UEFrac  float64

	// CEByRank holds the mean correctable-error count per rank, indexed by
	// rank. Nil when no run produced a CE.
	CEByRank []float64
}

// batchBuf is one of the two ping-pong buffers of a batch session: a full
// compiled plan plus the structure-of-arrays constants and conditions
// tables the v2 kernel reads. Successive items alternate buffers so a
// splice can copy the clean row-spans of the previous item while writing
// its own.
//
// For a weak cell the v1 math
//
//	tau0·env[·vrtMult]/couplingDiv/hammerDiv  [·GainFactor]  <  trefp
//
// is reassociated into
//
//	(num·env)[·vrtMult]  <  trefp·hammerDiv
//
// with num = tau0·gainSel/couplingDiv folded at compile time (gainSel is
// GainFactor for discharged cells, 1 otherwise). Clusters fold
// clNum = tau0/clusterDiv and compare the jitter draw in the log domain.
// This reassociation is exactly what the v1 contract forbids — it is legal
// here because v2 promises only self-consistency.
type batchBuf struct {
	plan evalPlan

	num   []float64 // per cell: tau0·gainSel/couplingDiv
	clNum []float64 // per cluster: tau0/clusterDiv
	clKey []uint64  // per cluster: stream sub-key 2·src+1

	hammer []float64 // per plan row: the item's hammer pressure

	// Conditions tables in row-major order with per-row prefix offsets
	// (len(rows)+1 after seal). Everything the conditions alone decide is
	// settled here, so each run pays only for the draws that can change an
	// outcome:
	//   - stat*: flips decided without a draw — deterministic cells below
	//     threshold, plus VRT cells that fail (or survive) in both states;
	//   - live*: bistable VRT cells, where exactly one state fails, so one
	//     Bool draw decides; when is the draw value (true = slow state)
	//     under which the cell fails;
	//   - clLBand/clLThresh: per-cluster log-domain jitter thresholds — the
	//     cluster fails fully when its N(0, ClusterJitter) draw is below
	//     clLThresh, partially when below clLBand.
	statLo   []int32
	statCand []int32
	statBit  []int32

	liveLo   []int32
	liveKey  []uint64
	liveCand []int32
	liveBit  []int32
	liveWhen []bool

	clLBand   []float64 // parallel to plan.clusters
	clLThresh []float64
}

// reset truncates every buffer capacity-preservingly for the next item.
// The flip scratch is deliberately left alone: it is drained (all inner
// slices empty) and resized to the word count by sizeFlips.
func (b *batchBuf) reset(partialBand float64) {
	b.plan.rows = b.plan.rows[:0]
	b.plan.cells = b.plan.cells[:0]
	b.plan.clusters = b.plan.clusters[:0]
	b.plan.words = b.plan.words[:0]
	b.plan.bitsArena = b.plan.bitsArena[:0]
	b.plan.touched = b.plan.touched[:0]
	b.plan.partialBand = partialBand
	b.num = b.num[:0]
	b.clNum = b.clNum[:0]
	b.clKey = b.clKey[:0]
	b.hammer = b.hammer[:0]
	b.statLo = b.statLo[:0]
	b.statCand = b.statCand[:0]
	b.statBit = b.statBit[:0]
	b.liveLo = b.liveLo[:0]
	b.liveKey = b.liveKey[:0]
	b.liveCand = b.liveCand[:0]
	b.liveBit = b.liveBit[:0]
	b.liveWhen = b.liveWhen[:0]
	b.clLBand = b.clLBand[:0]
	b.clLThresh = b.clLThresh[:0]
}

// seal appends the final prefix offsets after all rows are built.
func (b *batchBuf) seal() {
	b.statLo = append(b.statLo, int32(len(b.statCand)))
	b.liveLo = append(b.liveLo, int32(len(b.liveKey)))
}

// sizeFlips resizes the flip scratch to the plan's word count, keeping the
// accumulated capacity of every inner slice.
func (b *batchBuf) sizeFlips() {
	n := len(b.plan.words)
	f := b.plan.flips
	if cap(f) >= n {
		f = f[:n]
	} else {
		f = append(f[:cap(f)], make([][]int, n-cap(f))...)
	}
	b.plan.flips = f
}

// batchSession is the pooled scratch of one batch call. Sessions are owned
// by exactly one call at a time; the pool only recycles their capacity.
type batchSession struct {
	bufs    [2]batchBuf
	newKeys []RowKey // splice: sorted newly-written keys
	env     []float64
	perRank []int
	// acts is RunParams.ActsPerWindow laid out as BatchItem.Acts returns
	// rates, for the items without Acts.
	acts []float64
}

var batchPool sync.Pool

func getBatchSession() *batchSession {
	if v := batchPool.Get(); v != nil {
		evalMet.poolGets.Add(1)
		return v.(*batchSession)
	}
	evalMet.poolMisses.Add(1)
	return &batchSession{}
}

func putBatchSession(s *batchSession) { batchPool.Put(s) }

// rowKeyLess is the canonical (rank, bank, row) order of sortRowKeys.
func rowKeyLess(a, b RowKey) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	if a.Bank != b.Bank {
		return a.Bank < b.Bank
	}
	return a.Row < b.Row
}

// runBatchItems is the shared driver: validate, acquire a session, then for
// each item apply its writes, bring the current buffer up to date (full
// compile for the first item or after a whole-device mutation, splice
// otherwise) and hand it to the per-item run phase.
func (d *Device) runBatchItems(p RunParams, items []BatchItem,
	perItem func(sess *batchSession, i int, cur *batchBuf) error) error {
	if len(items) == 0 {
		return nil
	}
	if v := p.Version.Normalize(); v != DeterminismV2 {
		return fmt.Errorf(
			"dram: batch evaluation requires determinism contract v2, got %s",
			p.Version)
	}
	for i := range items {
		if items[i].Apply == nil {
			return fmt.Errorf("dram: batch item %d has nil Apply", i)
		}
		if items[i].RNG == nil {
			return fmt.Errorf("dram: batch item %d has nil RNG", i)
		}
	}
	pv := p
	pv.RNG = items[0].RNG
	if err := pv.Validate(); err != nil {
		return err
	}
	evalMet.batchCalls.Add(1)

	sess := getBatchSession()
	defer putBatchSession(sess)

	d.beginTracking()
	defer d.endTracking()

	// The shared environment factor per rank, constant across the call.
	phys := d.cfg.Physics
	if cap(sess.env) < d.geom.Ranks {
		sess.env = make([]float64, d.geom.Ranks)
	}
	sess.env = sess.env[:d.geom.Ranks]
	for rank := range sess.env {
		temp := p.TempC
		if t, ok := p.TempByRank[rank]; ok {
			temp = t
		}
		sess.env[rank] = phys.tempFactor(temp) * phys.vddFactor(p.VDD)
	}

	partialBand := phys.ClusterPartialBand
	if partialBand < 1 {
		partialBand = 1
	}

	// Items without Acts read p.ActsPerWindow, laid out once.
	var shared []float64
	if p.ActsPerWindow != nil {
		sess.acts = d.denseActs(p.ActsPerWindow, sess.acts)
		shared = sess.acts
	}
	for i := range items {
		if err := items[i].Apply(d); err != nil {
			return fmt.Errorf("dram: batch item %d apply: %w", i, err)
		}
		cur := &sess.bufs[i&1]
		prev := &sess.bufs[1-(i&1)]
		acts := shared
		if items[i].Acts != nil {
			acts = items[i].Acts()
			if acts != nil && len(acts) != d.rowCount() {
				return fmt.Errorf("dram: batch item %d has %d activation rates for %d rows",
					i, len(acts), d.rowCount())
			}
		}
		if i == 0 || d.trackAll {
			d.compileBatchFull(sess, cur, p, acts, partialBand)
		} else {
			d.spliceBatch(sess, cur, prev, p, acts, partialBand)
		}
		cur.seal()
		cur.sizeFlips()
		d.resetTracking()
		evalMet.batchItems.Add(1)
		if err := perItem(sess, i, cur); err != nil {
			return err
		}
	}
	return nil
}

// rowCount is the number of rows of the device, across ranks and banks.
func (d *Device) rowCount() int {
	return d.geom.Ranks * d.geom.Banks * d.geom.Rows
}

// denseActs lays acts out as BatchItem.Acts returns rates, in dst's
// storage when it is large enough. Keys outside the geometry are dropped:
// no row's hammer pressure reads them.
func (d *Device) denseActs(acts map[RowKey]float64, dst []float64) []float64 {
	n := d.rowCount()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	clear(dst)
	g := d.geom
	for k, v := range acts {
		if uint(k.Rank) < uint(g.Ranks) && uint(k.Bank) < uint(g.Banks) &&
			uint(k.Row) < uint(g.Rows) {
			dst[(int(k.Rank)*g.Banks+int(k.Bank))*g.Rows+int(k.Row)] = v
		}
	}
	return dst
}

// hammerAt is hammerFor over dense rates: the same two terms, summed in
// the same order, so the same float.
func (d *Device) hammerAt(key RowKey, acts []float64) float64 {
	if acts == nil {
		return 0
	}
	i := (int(key.Rank)*d.geom.Banks+int(key.Bank))*d.geom.Rows + int(key.Row)
	h := 0.0
	if key.Row > 0 {
		h += acts[i-1]
	}
	if int(key.Row) < d.geom.Rows-1 {
		h += acts[i+1]
	}
	return h
}

// compileBatchFull compiles the device's entire written state into cur —
// the once-per-generation compile the splices amortize.
func (d *Device) compileBatchFull(sess *batchSession, cur *batchBuf,
	p RunParams, acts []float64, partialBand float64) {
	cur.reset(partialBand)
	// The written defect rows in sorted order, as in compilePlan.
	for ri, key := range d.weakRows {
		if !d.RowWritten(key) {
			continue
		}
		d.compileRowInto(&cur.plan, ri)
		d.finishBatchRow(sess, cur, len(cur.plan.rows)-1, p, acts)
	}
	evalMet.planCompiles.Add(1)
}

// spliceBatch brings cur up to date with the device by recompiling only the
// rows written since the previous item (dilated ±1 for neighbour couplings)
// and copying every other row-span from prev.
func (d *Device) spliceBatch(sess *batchSession, cur, prev *batchBuf,
	p RunParams, acts []float64, partialBand float64) {
	cur.reset(partialBand)
	evalMet.planSplices.Add(1)

	newKeys := sess.newKeys[:0]
	for key := range d.trackRows {
		newKeys = append(newKeys, key)
	}
	sortRowKeys(newKeys)
	sess.newKeys = newKeys

	// A row's compiled span depends on its own image (stored bits, cluster
	// arming) and on the images of rows ±1 (lateral/vertical couplings), so
	// the dirty set is the written set dilated by one row each way.
	dirty := func(key RowKey) bool {
		if _, ok := d.trackRows[key]; ok {
			return true
		}
		if key.Row > 0 {
			k := RowKey{key.Rank, key.Bank, key.Row - 1}
			if _, ok := d.trackRows[k]; ok {
				return true
			}
		}
		k := RowKey{key.Rank, key.Bank, key.Row + 1}
		_, ok := d.trackRows[k]
		return ok
	}

	// Merge-walk the previous plan's rows with the newly-written keys: the
	// union, in sorted order, covers every row a full compile would visit —
	// written rows without defects compile to nothing, exactly as they do
	// in the full pass.
	pi, ni := 0, 0
	prows := prev.plan.rows
	for pi < len(prows) || ni < len(newKeys) {
		var key RowKey
		fromPrev := false
		switch {
		case pi >= len(prows):
			key = newKeys[ni]
			ni++
		case ni >= len(newKeys):
			key = prows[pi].key
			fromPrev = true
			pi++
		default:
			pk, nk := prows[pi].key, newKeys[ni]
			switch {
			case pk == nk:
				key = pk
				fromPrev = true
				pi++
				ni++
			case rowKeyLess(pk, nk):
				key = pk
				fromPrev = true
				pi++
			default:
				key = nk
				ni++
			}
		}
		if !fromPrev || dirty(key) {
			evalMet.rowsRecompiled.Add(1)
			if ri, ok := d.defectSlot(key); ok {
				d.compileRowInto(&cur.plan, ri)
				d.finishBatchRow(sess, cur, len(cur.plan.rows)-1, p, acts)
			}
			continue
		}
		d.copyBatchRow(sess, cur, prev, pi-1, p, acts)
	}
}

// finishBatchRow derives the SoA constants and conditions of the freshly
// compiled plan row ri.
func (d *Device) finishBatchRow(sess *batchSession, cur *batchBuf, ri int,
	p RunParams, acts []float64) {
	phys := &d.cfg.Physics
	pl := &cur.plan
	row := &pl.rows[ri]

	for i := row.cellLo; i < row.cellHi; i++ {
		c := &pl.cells[i]
		gainSel := 1.0
		if !c.charged {
			gainSel = phys.GainFactor
		}
		cur.num = append(cur.num, c.tau0*gainSel/c.couplingDiv)
	}
	for i := row.clLo; i < row.clHi; i++ {
		k := &pl.clusters[i]
		cur.clNum = append(cur.clNum, k.tau0/k.clusterDiv)
		cur.clKey = append(cur.clKey, 2*uint64(k.src)+1)
	}

	hammer := d.hammerAt(row.key, acts)
	cur.hammer = append(cur.hammer, hammer)
	d.condRowInto(sess, cur, ri, hammer, p)
}

// condRowInto derives one row's conditions tables from its SoA constants,
// its hammer pressure and the operating conditions.
func (d *Device) condRowInto(sess *batchSession, cur *batchBuf, ri int,
	hammer float64, p RunParams) {
	phys := &d.cfg.Physics
	pl := &cur.plan
	row := &pl.rows[ri]
	env := sess.env[row.key.Rank]
	trefp := p.TREFP
	if t, ok := p.TREFPByRow[row.key]; ok {
		trefp = t
	}

	cur.statLo = append(cur.statLo, int32(len(cur.statCand)))
	cur.liveLo = append(cur.liveLo, int32(len(cur.liveKey)))

	thresh := trefp * (1 + phys.HammerBeta*hammer)
	for i := row.cellLo; i < row.cellHi; i++ {
		cell := &pl.cells[i]
		a := cur.num[i] * env
		fastFails := a < thresh
		if !cell.vrt {
			if fastFails {
				cur.statCand = append(cur.statCand, cell.cand)
				cur.statBit = append(cur.statBit, cell.bit)
			}
			continue
		}
		slowFails := a*cell.vrtMult < thresh
		if fastFails == slowFails {
			// Both VRT states agree: the cell is settled under these
			// conditions and its Bool draw can never change the outcome.
			// Keyed draws make skipping it safe.
			if fastFails {
				cur.statCand = append(cur.statCand, cell.cand)
				cur.statBit = append(cur.statBit, cell.bit)
			}
			continue
		}
		cur.liveKey = append(cur.liveKey, 2*uint64(cell.src))
		cur.liveCand = append(cur.liveCand, cell.cand)
		cur.liveBit = append(cur.liveBit, cell.bit)
		cur.liveWhen = append(cur.liveWhen, slowFails)
	}

	clThresh := trefp * (1 + phys.ClusterHammerB*hammer)
	band := clThresh * pl.partialBand
	for i := row.clLo; i < row.clHi; i++ {
		// tauA·exp(jit) < x  ⟺  jit < log(x/tauA): comparing the normal
		// draw against log thresholds replaces an exp and two multiplies
		// per cluster per run with two compares.
		tauA := cur.clNum[i] * env
		cur.clLBand = append(cur.clLBand, math.Log(band/tauA))
		cur.clLThresh = append(cur.clLThresh, math.Log(clThresh/tauA))
	}
}

// copyBatchRow carries prev's plan row pi into cur unchanged, fixing up the
// candidate-word indices for cur's layout. When the row's hammer pressure
// is also unchanged its conditions spans copy too; otherwise they are
// re-derived from the copied plan spans.
func (d *Device) copyBatchRow(sess *batchSession, cur, prev *batchBuf,
	pi int, p RunParams, acts []float64) {
	evalMet.rowsCopied.Add(1)
	pr := &prev.plan.rows[pi]
	pl := &cur.plan

	wordLo := int32(len(pl.words))
	delta := wordLo - pr.wordLo
	pl.words = append(pl.words, prev.plan.words[pr.wordLo:pr.wordHi]...)

	cellLo := int32(len(pl.cells))
	for i := pr.cellLo; i < pr.cellHi; i++ {
		c := prev.plan.cells[i]
		c.cand += delta
		pl.cells = append(pl.cells, c)
	}
	cur.num = append(cur.num, prev.num[pr.cellLo:pr.cellHi]...)

	clLo := int32(len(pl.clusters))
	for i := pr.clLo; i < pr.clHi; i++ {
		k := prev.plan.clusters[i]
		k.cand += delta
		// Rebuild fullBits in cur's own arena: prev's arena is truncated
		// and reused on the next splice, so aliasing its backing array
		// would let a later compile overwrite bits still referenced here.
		lo := len(pl.bitsArena)
		pl.bitsArena = append(pl.bitsArena, k.fullBits...)
		k.fullBits = pl.bitsArena[lo:len(pl.bitsArena):len(pl.bitsArena)]
		pl.clusters = append(pl.clusters, k)
	}
	cur.clNum = append(cur.clNum, prev.clNum[pr.clLo:pr.clHi]...)
	cur.clKey = append(cur.clKey, prev.clKey[pr.clLo:pr.clHi]...)

	ri := len(pl.rows)
	pl.rows = append(pl.rows, planRow{
		key:    pr.key,
		cellLo: cellLo, cellHi: int32(len(pl.cells)),
		clLo: clLo, clHi: int32(len(pl.clusters)),
		wordLo: wordLo, wordHi: int32(len(pl.words)),
	})

	hammer := d.hammerAt(pr.key, acts)
	cur.hammer = append(cur.hammer, hammer)
	if hammer != prev.hammer[pi] {
		evalMet.condRebuilds.Add(1)
		d.condRowInto(sess, cur, ri, hammer, p)
		return
	}
	// Identical inputs: the conditions tables are bit-identical, so copy
	// them with the same candidate-index fixup.
	evalMet.condHits.Add(1)
	cur.statLo = append(cur.statLo, int32(len(cur.statCand)))
	cur.liveLo = append(cur.liveLo, int32(len(cur.liveKey)))
	for j := prev.statLo[pi]; j < prev.statLo[pi+1]; j++ {
		cur.statCand = append(cur.statCand, prev.statCand[j]+delta)
		cur.statBit = append(cur.statBit, prev.statBit[j])
	}
	for j := prev.liveLo[pi]; j < prev.liveLo[pi+1]; j++ {
		cur.liveKey = append(cur.liveKey, prev.liveKey[j])
		cur.liveCand = append(cur.liveCand, prev.liveCand[j]+delta)
		cur.liveBit = append(cur.liveBit, prev.liveBit[j])
		cur.liveWhen = append(cur.liveWhen, prev.liveWhen[j])
	}
	cur.clLBand = append(cur.clLBand, prev.clLBand[pr.clLo:pr.clHi]...)
	cur.clLThresh = append(cur.clLThresh, prev.clLThresh[pr.clLo:pr.clHi]...)
}

// batchAccumulate runs the stochastic part of one run over the batch
// buffer, filling its flip scratch: static flips are replayed, bistable VRT
// cells consume one Bool each, armed clusters one Norm each. Flips
// accumulate statics first rather than row-major, so full-result callers
// sort each word's flips into ascending bit order — part of the v2
// contract.
func (d *Device) batchAccumulate(cur *batchBuf, rng *xrand.Rand) {
	pl := &cur.plan
	// One draw of the run's Rand keys everything below — the bridge that
	// lets v2 ride the per-run split plumbing of farm, fleet and resume.
	rs := xrand.StreamFrom(rng)
	for j := range cur.statCand {
		pl.addFlip(cur.statCand[j], int(cur.statBit[j]))
	}
	for j := range cur.liveKey {
		if rs.Derive(cur.liveKey[j]).BoolAt(0, 0.5) == cur.liveWhen[j] {
			pl.addFlip(cur.liveCand[j], int(cur.liveBit[j]))
		}
	}
	sigma := d.cfg.Physics.ClusterJitter
	for i := range cur.clKey {
		jit := rs.Derive(cur.clKey[i]).NormAt(0, 0, sigma)
		if jit >= cur.clLBand[i] {
			continue
		}
		k := &pl.clusters[i]
		if jit >= cur.clLThresh[i] {
			pl.addFlip(k.cand, int(k.partialBit))
			continue
		}
		for _, b := range k.fullBits {
			pl.addFlip(k.cand, b)
		}
	}
}

// classifyCountsRank is classify for callers that never read the error
// log: the same SECDED verdict per corrupted word, but only the counts plus
// per-rank CE counting into perRank (indexed by rank) — no sorting, no
// per-word allocation.
func (pl *evalPlan) classifyCountsRank(perRank []int) (ce, sdc, ue int) {
	for _, wi := range pl.touched {
		bits := pl.flips[wi]
		pw := &pl.words[wi]
		word := pw.enc
		for _, b := range bits {
			word = word.FlipBit(b)
		}
		dec := ecc.Decode(word)
		switch {
		case dec.Status == ecc.Uncorrectable:
			ue++
		case dec.Data != pw.original:
			sdc++
		case dec.Status == ecc.Corrected:
			ce++
			perRank[pw.key.Rank]++
		}
		pl.flips[wi] = bits[:0]
	}
	pl.touched = pl.touched[:0]
	return ce, sdc, ue
}

// RunBatch evaluates every item with one full-result run each, applying the
// items cumulatively in order. For each item the result — including the
// error log — is bit-identical to item.Apply followed by Run with
// RunParams.RNG = item.RNG under determinism v2, and to the plan-free v2
// reference.
func (d *Device) RunBatch(p RunParams, items []BatchItem) ([]RunResult, error) {
	out := make([]RunResult, len(items))
	err := d.runBatchItems(p, items,
		func(sess *batchSession, i int, cur *batchBuf) error {
			d.batchAccumulate(cur, items[i].RNG)
			evalMet.batchRuns.Add(1)
			pl := &cur.plan
			for _, wi := range pl.touched {
				sort.Ints(pl.flips[wi])
			}
			out[i] = pl.classify()
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AverageRunsBatch evaluates every item over n runs with fresh splits of
// the item's RNG — the batch equivalent of AverageRuns, extended with the
// per-rank CE means the server-level aggregation reads. Results are
// bit-identical to the sequence of Apply + AverageRuns calls.
func (d *Device) AverageRunsBatch(p RunParams, n int, items []BatchItem) ([]BatchResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dram: AverageRunsBatch n = %d", n)
	}
	out := make([]BatchResult, len(items))
	ranks := d.geom.Ranks
	err := d.runBatchItems(p, items,
		func(sess *batchSession, i int, cur *batchBuf) error {
			if cap(sess.perRank) < ranks {
				sess.perRank = make([]int, ranks)
			}
			perRank := sess.perRank[:ranks]
			clear(perRank)

			var ceSum, sdcSum, ues int
			rng := items[i].RNG
			for r := 0; r < n; r++ {
				d.batchAccumulate(cur, rng.Split())
				evalMet.batchRuns.Add(1)
				ce, sdc, ue := cur.plan.classifyCountsRank(perRank)
				ceSum += ce
				sdcSum += sdc
				if ue > 0 {
					ues++
				}
			}
			res := BatchResult{
				MeanCE:  float64(ceSum) / float64(n),
				MeanSDC: float64(sdcSum) / float64(n),
				UEFrac:  float64(ues) / float64(n),
			}
			for rank, ct := range perRank {
				if ct == 0 {
					continue
				}
				if res.CEByRank == nil {
					res.CEByRank = make([]float64, ranks)
				}
				res.CEByRank[rank] = float64(ct) / float64(n)
			}
			out[i] = res
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
