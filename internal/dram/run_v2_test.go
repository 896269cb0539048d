package dram

import (
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"dstress/internal/ecc"
	"dstress/internal/xrand"
)

// runV2Reference is the plan-free v2 evaluation the batch engine is
// verified against: it walks the defect map directly, re-deriving charge states and
// couplings per run, and draws every stochastic term from the counter stream
// keyed on the consumer's defect-map index — the v2 contract. It mirrors the
// floating-point association of the kernel (num = tau0·gainSel/couplingDiv,
// compare against trefp·hammerDiv), so results must be bit-identical.
func runV2Reference(t *testing.T, d *Device, p RunParams) RunResult {
	t.Helper()
	phys := d.cfg.Physics
	envByRank := make([]float64, d.geom.Ranks)
	for rank := range envByRank {
		temp := p.TempC
		if tt, ok := p.TempByRank[rank]; ok {
			temp = tt
		}
		envByRank[rank] = phys.tempFactor(temp) * phys.vddFactor(p.VDD)
	}
	partialBand := phys.ClusterPartialBand
	if partialBand < 1 {
		partialBand = 1
	}

	rs := xrand.StreamFrom(p.RNG)

	flips := make(map[flipKey][]int)
	for ri, key := range d.weakRows {
		if !d.RowWritten(key) {
			continue
		}
		dr := &d.defectRows[ri]
		hammer := d.hammerFor(key, p.ActsPerWindow)
		env := envByRank[key.Rank]
		trefp := p.TREFP
		if tt, ok := p.TREFPByRow[key]; ok {
			trefp = tt
		}
		thresh := trefp * (1 + phys.HammerBeta*hammer)

		for _, idx := range dr.weak {
			w := &d.weak[idx]
			stored, ok := d.storedBit(key, w.WordCol, w.Bit)
			if !ok {
				continue
			}
			pos := d.physBit(key, w.WordCol, w.Bit)
			charged := stored == (d.CellTypeAt(key, pos) == TrueCell)
			lat, vert := d.neighbourCoupling(key, pos)
			gainSel := 1.0
			if !charged {
				gainSel = phys.GainFactor
			}
			num := w.Tau0 * gainSel / (1 + phys.CouplingAlpha*float64(lat) +
				phys.VCouplingDelta*float64(vert))
			a := num * env
			if w.VRT && rs.Derive(2*uint64(idx)).BoolAt(0, 0.5) {
				a *= w.VRTMult
			}
			if a < thresh {
				fk := flipKey{key, w.WordCol}
				flips[fk] = append(flips[fk], w.Bit)
			}
		}

		clThresh := trefp * (1 + phys.ClusterHammerB*hammer)
		band := clThresh * partialBand
		for _, idx := range dr.clusters {
			c := &d.clusters[idx]
			data := d.image(key)[c.WordCol]
			chargedN := 0
			var fullBits []int
			for _, b := range c.Bits {
				if data&(1<<uint(b)) == 0 {
					chargedN++
					fullBits = append(fullBits, b)
				}
			}
			if chargedN == 0 {
				continue
			}
			ext := 0
			for i, nb := range clusterNeighbourBits {
				bit := data&(1<<uint(nb)) != 0
				if bit == c.Neighbours[i] {
					ext++
				}
			}
			clNum := c.Tau0 / (1 + phys.ClusterAlpha*float64(chargedN-1) +
				phys.ClusterExtAlpha*float64(ext))
			// The v2 contract compares the jitter draw in the log domain:
			// tauA·exp(jit) < x  ⟺  jit < log(x/tauA).
			tauA := clNum * env
			jit := rs.Derive(2*uint64(idx)+1).NormAt(0, 0, phys.ClusterJitter)
			if jit >= math.Log(band/tauA) {
				continue
			}
			fk := flipKey{key, c.WordCol}
			if jit >= math.Log(clThresh/tauA) {
				flips[fk] = append(flips[fk], fullBits[0])
				continue
			}
			flips[fk] = append(flips[fk], fullBits...)
		}
	}
	return classifyFlipMap(d, flips)
}

// classifyFlipMap is runReference's classification tail, adapted to the v2
// contract: sorted (rank, bank, row, word col) log with each word's flips in
// ascending bit order, SECDED verdict per word.
func classifyFlipMap(d *Device, flips map[flipKey][]int) RunResult {
	for fk := range flips {
		sort.Ints(flips[fk])
	}
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
	return res
}

// checkV2Identical runs the v2 kernel against the v2 reference under
// identical conditions and seeds, requiring bit-identical results, and then
// re-runs the kernel to prove its scratch drains clean.
func checkV2Identical(t *testing.T, d *Device, p RunParams, seed uint64) {
	t.Helper()
	p.Version = DeterminismV2
	p.RNG = xrand.New(seed)
	ref := runV2Reference(t, d, p)
	p.RNG = xrand.New(seed)
	fast, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, fast) {
		t.Fatalf("v2 kernel diverged from v2 reference\nref:  %+v\nfast: %+v",
			ref, fast)
	}
	p.RNG = xrand.New(seed)
	again, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, again) {
		t.Fatalf("v2 kernel not self-consistent\nfirst:  %+v\nsecond: %+v",
			fast, again)
	}
}

// TestDetV2MatchesV2Reference is the v2 differential suite: Run, a batch of
// one on the batch engine, against the plan-free v2 reference across layouts, fills,
// temperatures, refresh periods, hammering and per-row/per-rank overrides.
func TestDetV2MatchesV2Reference(t *testing.T) {
	fills := map[string]func(*Device){
		"uniform-worst": func(d *Device) { fillUniform(d, 0x3333333333333333) },
		"cluster-fire":  func(d *Device) { fillPerRow(d, d.ClusterFireWord) },
		"random-sparse": func(d *Device) {
			rng := xrand.New(99)
			for i, k := range d.WeakRows() {
				if i%3 == 0 {
					continue
				}
				d.FillRowWords(k, []uint64{rng.Uint64(), rng.Uint64()})
			}
		},
	}
	for devName, mkCfg := range map[string]func(uint64) Config{
		"nominal": func(s uint64) Config { return DefaultConfig(64, s) },
		"hostile": hostileConfig,
	} {
		for fillName, fill := range fills {
			t.Run(devName+"/"+fillName, func(t *testing.T) {
				d := MustNewDevice(mkCfg(7))
				fill(d)
				for _, temp := range []float64{55, 62, 70} {
					for _, trefp := range []float64{nominalTREFP, relaxedTREFP} {
						p := RunParams{TREFP: trefp, TempC: temp, VDD: relaxedVDD}
						for seed := uint64(0); seed < 3; seed++ {
							checkV2Identical(t, d, p, 100+seed)
						}
					}
				}
				p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD,
					ActsPerWindow: hammerActs(d, 20000),
					TREFPByRow:    trefpOverrides(d, nominalTREFP),
					TempByRank:    map[int]float64{0: 64, 1: 57},
				}
				for seed := uint64(0); seed < 3; seed++ {
					checkV2Identical(t, d, p, 500+seed)
				}
			})
		}
	}
}

// TestDetV2NoiseIsOrderIndependent pins the property the v2 contract exists
// for: the noise draw a cell consumes depends only on (run key, defect-map
// index), never on what else is evaluated. Rewriting one row must leave the
// outcome of every row outside its coupling neighbourhood (the row itself
// and its two vertical neighbours) bit-identical — under v1's sequential
// draws, changing one row's arming shifts every later draw.
func TestDetV2NoiseIsOrderIndependent(t *testing.T) {
	d := MustNewDevice(hostileConfig(7))
	fillUniform(d, 0x3333333333333333)
	p := RunParams{TREFP: relaxedTREFP, TempC: 64, VDD: relaxedVDD,
		Version: DeterminismV2}

	const seed = 41
	p.RNG = xrand.New(seed)
	before, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite one defect row with a different image.
	k := d.WeakRows()[len(d.WeakRows())/2]
	d.FillRow(k, 0xCCCCCCCCCCCCCCCC)

	p.RNG = xrand.New(seed)
	after, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}

	outside := func(es []WordError) []WordError {
		var kept []WordError
		for _, e := range es {
			if e.Key.Rank == k.Rank && e.Key.Bank == k.Bank &&
				e.Key.Row >= k.Row-1 && e.Key.Row <= k.Row+1 {
				continue
			}
			kept = append(kept, e)
		}
		return kept
	}
	if !reflect.DeepEqual(outside(before.Errors), outside(after.Errors)) {
		t.Fatalf("rewriting row %v changed outcomes outside its coupling "+
			"neighbourhood\nbefore: %+v\nafter:  %+v",
			k, outside(before.Errors), outside(after.Errors))
	}
	if len(outside(before.Errors)) == 0 {
		t.Fatal("no errors outside the rewritten neighbourhood; test is vacuous")
	}
}

// TestDetV2AverageRunsReproducible: the ten-run averaging protocol under v2
// is a pure function of the root seed, and actually runs the v2 kernel.
func TestDetV2AverageRunsReproducible(t *testing.T) {
	d := MustNewDevice(hostileConfig(13))
	fillUniform(d, 0x3333333333333333)
	p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD,
		Version: DeterminismV2}

	before := EvalSnapshot().BatchRuns
	for seed := uint64(0); seed < 3; seed++ {
		aCE, aSDC, aUE, err := d.AverageRuns(p, 10, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		bCE, bSDC, bUE, err := d.AverageRuns(p, 10, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if aCE != bCE || aSDC != bSDC || aUE != bUE {
			t.Fatalf("seed %d: v2 AverageRuns not reproducible: (%v,%v,%v) vs (%v,%v,%v)",
				seed, aCE, aSDC, aUE, bCE, bSDC, bUE)
		}
	}
	if got := EvalSnapshot().BatchRuns - before; got != 60 {
		t.Fatalf("6 v2 AverageRuns of 10 ran %d v2 kernel runs, want 60", got)
	}
}

// TestDetV2VersionKnob pins the version plumbing: zero normalizes to v1,
// unknown versions are rejected before evaluation, and the strings are
// stable (they appear in checkpoints and job requests).
func TestDetV2VersionKnob(t *testing.T) {
	if DeterminismVersion(0).Normalize() != DeterminismV1 {
		t.Fatal("zero version must normalize to v1")
	}
	if err := DeterminismVersion(0).Validate(); err != nil {
		t.Fatalf("zero version must validate: %v", err)
	}
	if err := DeterminismVersion(3).Validate(); err == nil {
		t.Fatal("unknown version 3 validated")
	}
	if got := DeterminismV1.String(); got != "v1" {
		t.Fatalf("v1 String = %q", got)
	}
	if got := DeterminismV2.String(); got != "v2" {
		t.Fatalf("v2 String = %q", got)
	}

	d := MustNewDevice(DefaultConfig(16, 1))
	fillUniform(d, 0x3333333333333333)
	p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD,
		Version: DeterminismVersion(9), RNG: xrand.New(1)}
	if _, err := d.Run(p); err == nil {
		t.Fatal("Run accepted an unknown determinism version")
	}

	// v1 (explicit and zero-valued) must not run the v2 kernel.
	before := EvalSnapshot().BatchRuns
	p.Version = 0
	p.RNG = xrand.New(1)
	if _, err := d.Run(p); err != nil {
		t.Fatal(err)
	}
	p.Version = DeterminismV1
	p.RNG = xrand.New(1)
	if _, err := d.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := EvalSnapshot().BatchRuns - before; got != 0 {
		t.Fatalf("v1 runs ran %d v2 kernel runs", got)
	}
}

// TestDetV2FreshOverrideMapsPerRun builds fresh TempByRank and
// ActsPerWindow maps for every run and collects the previous run's maps
// before the next one, so the runtime is free to hand a new map the address
// of a dead one. A result must depend on the maps' contents alone: every
// run has to match the plan-free v2 reference.
func TestDetV2FreshOverrideMapsPerRun(t *testing.T) {
	const runs = 200
	d := MustNewDevice(hostileConfig(5))
	fillUniform(d, 0x3333333333333333)
	diverged := 0
	for i := 0; i < runs; i++ {
		p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD,
			Version:       DeterminismV2,
			TempByRank:    map[int]float64{0: 55 + float64(i%7), 1: 60 - float64(i%5)},
			ActsPerWindow: hammerActs(d, float64(5000*(1+i%4))),
		}
		p.RNG = xrand.New(uint64(i))
		got, err := d.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		p.RNG = xrand.New(uint64(i))
		if !reflect.DeepEqual(got, runV2Reference(t, d, p)) {
			diverged++
		}
		runtime.GC()
	}
	if diverged > 0 {
		t.Fatalf("%d of %d runs with fresh override maps diverged from the v2 reference",
			diverged, runs)
	}
}

// detV2RunGolden is the digest of TestDetV2RunGolden, recorded on the
// per-genome v2 kernel before v2 runs moved onto the batch engine. A change
// here means v2 Run or AverageRuns results moved.
const detV2RunGolden = "4ee28faec17e5931f3f035245359edd1016f6b2263f851488f35555e066ca1fc"

// TestDetV2RunGolden hashes v2 Run results, error logs included, and
// AverageRuns results on seeded nominal and hostile devices, under plain
// conditions and under per-rank temperature, per-row refresh and hammer
// overrides, before and after a row rewrite. Every override map stays
// alive until its device is done, so no map address is ever reused.
func TestDetV2RunGolden(t *testing.T) {
	r := newResultHash()
	for _, mkCfg := range []func(uint64) Config{
		func(s uint64) Config { return DefaultConfig(64, s) },
		hostileConfig,
	} {
		d := MustNewDevice(mkCfg(7))
		fillUniform(d, 0x3333333333333333)
		conds := []RunParams{
			{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD},
			{TREFP: relaxedTREFP, TempC: 58, VDD: relaxedVDD,
				TempByRank:    map[int]float64{0: 64, 1: 57},
				TREFPByRow:    trefpOverrides(d, nominalTREFP),
				ActsPerWindow: hammerActs(d, 20000)},
			{TREFP: relaxedTREFP, TempC: 62, VDD: relaxedVDD,
				TempByRank:    map[int]float64{1: 66},
				ActsPerWindow: hammerActs(d, 60000)},
		}
		measure := func() {
			for seed := uint64(0); seed < 3; seed++ {
				for _, p := range conds {
					p.Version = DeterminismV2
					p.RNG = xrand.New(seed)
					res, err := d.Run(p)
					if err != nil {
						t.Fatal(err)
					}
					r.putResult(res)
					ce, sdc, ue, err := d.AverageRuns(p, 10, xrand.New(100+seed))
					if err != nil {
						t.Fatal(err)
					}
					r.putFloat(ce)
					r.putFloat(sdc)
					r.putFloat(ue)
				}
			}
		}
		measure()
		d.FillRow(d.WeakRows()[len(d.WeakRows())/3], 0xCCCCCCCCCCCCCCCC)
		measure()
		runtime.KeepAlive(conds)
	}
	if r.logged == 0 {
		t.Fatal("no run logged an error; the digest pins nothing")
	}
	if got := hex.EncodeToString(r.h.Sum(nil)); got != detV2RunGolden {
		t.Fatalf("v2 run digest %s, want %s", got, detV2RunGolden)
	}
}
