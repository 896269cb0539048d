package core

import (
	"path/filepath"
	"testing"

	"dstress/internal/bitvec"
	"dstress/internal/ga"
	"dstress/internal/power"
	"dstress/internal/server"
	"dstress/internal/similarity"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

// testFramework builds a small server: 8 banks x 16 rows x 2 ranks per
// DIMM, 8-KByte rows.
func testFramework(t testing.TB, seed uint64) *Framework {
	t.Helper()
	srv, err := server.New(server.DefaultConfig(16, seed))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(srv, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// quickGA returns reduced GA parameters for test-sized searches.
func quickGA(maxGens int) ga.Params {
	p := ga.DefaultParams()
	p.MaxGenerations = maxGens
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, xrand.New(1)); err == nil {
		t.Fatal("nil server accepted")
	}
	srv, err := server.New(server.DefaultConfig(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(srv, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestCriterionFitness(t *testing.T) {
	m := Measurement{MeanCE: 10, UEFrac: 0.7}
	if MaxCE.Fitness(m) != 10 || MinCE.Fitness(m) != -10 {
		t.Fatal("criterion fitness wrong")
	}
	// MaxUE is lexicographic: the UE fraction dominates, the CE guidance
	// fades with the UE fraction.
	want := 0.7*ueScale + 0.3*10
	if MaxUE.Fitness(m) != want {
		t.Fatalf("MaxUE fitness %v, want %v", MaxUE.Fitness(m), want)
	}
	if UEFracOf(want) < 0.69 || UEFracOf(want) > 0.71 {
		t.Fatalf("UEFracOf round trip %v", UEFracOf(want))
	}
	if UEFracOf(-5) != 0 || UEFracOf(2*ueScale) != 1 {
		t.Fatal("UEFracOf clamping wrong")
	}
	if MaxCE.String() != "max-ce" || MinCE.String() != "min-ce" ||
		MaxUE.String() != "max-ue" {
		t.Fatal("criterion strings wrong")
	}
}

// TestData64SearchDiscoversChargePattern reproduces the Fig 8a result on
// the simulated DIMM: the GA search for the worst-case 64-bit data pattern
// converges toward the repeating '1100' word (0x3333...), which charges
// every cell of the ttaa layout.
func TestData64SearchDiscoversChargePattern(t *testing.T) {
	f := testFramework(t, 1)
	res, err := f.RunSearch(SearchConfig{
		Spec:      Data64Spec{},
		Criterion: MaxCE,
		Point:     Relaxed(55),
		GA:        quickGA(120),
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := f.MeasureWord(0x3333333333333333)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("search: best %.1f CEs in %d gens (converged=%v sim=%.2f); oracle %.1f CEs",
		res.BestFitness, res.Generations, res.Converged,
		res.FinalSimilarity, oracle.MeanCE)
	if res.BestFitness < 0.85*oracle.MeanCE {
		t.Fatalf("GA best %.1f below 85%% of oracle %.1f",
			res.BestFitness, oracle.MeanCE)
	}
	best := res.Best.(*ga.BitGenome).Bits
	sim, err := similarity.SokalMichener(best, bitvec.FromUint64(0x3333333333333333))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("best pattern %s (similarity to 1100-repeat: %.2f)", best, sim)
	// Bits without weak cells under them are unconstrained and drift, so
	// the small test device leaves more stray bits than the paper's DIMMs.
	if sim < 0.6 {
		t.Fatalf("best pattern similarity to 1100-repeating is only %.2f", sim)
	}
}

// TestBestCaseSearch reproduces Fig 8c: the minimizing search lands near
// the discharge-all pattern, with ~8x fewer CEs than the worst case.
func TestBestCaseSearch(t *testing.T) {
	f := testFramework(t, 2)
	res, err := f.RunSearch(SearchConfig{
		Spec:      Data64Spec{},
		Criterion: MinCE,
		Point:     Relaxed(55),
		GA:        quickGA(120),
	})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := f.MeasureWord(0x3333333333333333)
	if err != nil {
		t.Fatal(err)
	}
	bestCE := -res.BestFitness
	t.Logf("best-case %.2f CEs vs worst-case %.1f CEs (ratio %.1fx)",
		bestCE, worst.MeanCE, worst.MeanCE/maxf(bestCE, 0.1))
	if bestCE*3 > worst.MeanCE {
		t.Fatalf("best-case %.2f not well below worst %.1f", bestCE, worst.MeanCE)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TestUESearchAt62C reproduces Fig 8d: the max-UE search at 62°C finds
// patterns that hit UEs in every run; their cluster bits (17,18,21,22) are
// all zero; and the final population does not converge the way the CE
// searches do.
func TestUESearchAt62C(t *testing.T) {
	f := testFramework(t, 23)
	res, err := f.RunSearch(SearchConfig{
		Spec:      Data64Spec{},
		Criterion: MaxUE,
		Point:     Relaxed(62),
		GA:        quickGA(150),
	})
	if err != nil {
		t.Fatal(err)
	}
	ueFrac := UEFracOf(res.BestFitness)
	t.Logf("UE search: best UE-frac %.2f, %d gens, converged=%v sim=%.2f",
		ueFrac, res.Generations, res.Converged, res.FinalSimilarity)
	if ueFrac < 0.9 {
		t.Fatalf("UE virus fires in only %.0f%% of runs", ueFrac*100)
	}
	if res.Converged {
		t.Fatalf("UE search converged (sim %.2f); the paper's does not",
			res.FinalSimilarity)
	}
	word := res.Best.(*ga.BitGenome).Bits.Uint64()
	for _, b := range []int{17, 18, 21, 22} {
		if word&(1<<uint(b)) != 0 {
			t.Fatalf("UE pattern %016x has bit %d set", word, b)
		}
	}
	// No UEs at 60°C with the same virus (paper: no UE patterns below 62°C).
	if err := f.Apply(Relaxed(60)); err != nil {
		t.Fatal(err)
	}
	if err := (Data64Spec{}).Deploy(f, res.Best); err != nil {
		t.Fatal(err)
	}
	m, err := f.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if m.UEFrac > 0 {
		t.Fatalf("UE virus fires at 60°C (frac %.2f)", m.UEFrac)
	}
}

// TestCEWorstProducesNoUEsAt62 reproduces the paper's validation run: the
// CE-maximizing pattern does not trigger UEs at 62°C.
func TestCEWorstProducesNoUEsAt62(t *testing.T) {
	f := testFramework(t, 4)
	if err := f.Apply(Relaxed(62)); err != nil {
		t.Fatal(err)
	}
	m, err := f.MeasureWord(0x3333333333333333)
	if err != nil {
		t.Fatal(err)
	}
	if m.UEFrac > 0 {
		t.Fatalf("CE-worst pattern triggered UEs at 62°C (frac %.2f)", m.UEFrac)
	}
	if m.MeanCE == 0 {
		t.Fatal("CE-worst pattern triggered nothing at 62°C")
	}
}

// TestBaselineSuiteAndHeadline reproduces Fig 8e's shape: the worst-case
// pattern beats every traditional micro-benchmark by a wide margin, and the
// best-case pattern is weaker than all of them.
func TestBaselineSuiteAndHeadline(t *testing.T) {
	f := testFramework(t, 5)
	if err := f.Apply(Relaxed(60)); err != nil {
		t.Fatal(err)
	}
	suite, err := f.RunBaselineSuite(8)
	if err != nil {
		t.Fatal(err)
	}
	name, bestCE := BestBaselineCE(suite)
	worst, err := f.MeasureWord(0x3333333333333333)
	if err != nil {
		t.Fatal(err)
	}
	bestCase, err := f.MeasureWord(0xCCCCCCCCCCCCCCCC)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("strongest micro-benchmark: %s (%.1f CEs); worst virus %.1f (+%.0f%%); best virus %.2f",
		name, bestCE, worst.MeanCE, (worst.MeanCE/bestCE-1)*100, bestCase.MeanCE)
	if worst.MeanCE < 1.2*bestCE {
		t.Fatalf("worst virus %.1f not >=20%% above best baseline %.1f (paper: +45%%)",
			worst.MeanCE, bestCE)
	}
	for _, r := range suite {
		if bestCase.MeanCE > r.WorstPassCE {
			t.Fatalf("best-case virus (%.2f) above micro-benchmark %s (%.2f)",
				bestCase.MeanCE, r.Name, r.WorstPassCE)
		}
	}
}

// TestBlockSpecIdealPatternGain reproduces the Fig 9 mechanism through the
// 24-KByte spec's deployment path: a block with a charged victim row
// between discharged neighbour rows beats the uniform worst-case fill.
func TestBlockSpecIdealPatternGain(t *testing.T) {
	f := testFramework(t, 6)
	if err := f.Apply(Relaxed(60)); err != nil {
		t.Fatal(err)
	}
	uniform, err := f.MeasureWord(0x3333333333333333)
	if err != nil {
		t.Fatal(err)
	}
	spec := NewData24KSpec()
	if err := spec.Prepare(f); err != nil {
		t.Fatal(err)
	}
	// Ideal block: neighbours discharge (0xCCCC...), victim charges.
	rowBits := spec.rowBits(f)
	v := bitvec.New(3 * rowBits)
	for i := 0; i < rowBits; i++ {
		// 0xCC...: bits 2,3 of each nibble-pair set.
		if (i%4)/2 == 1 {
			v.Set(i, true)           // neighbour row 0
			v.Set(2*rowBits+i, true) // neighbour row 2
		} else {
			v.Set(rowBits+i, true) // victim row: 1100 pattern
		}
	}
	if err := spec.Deploy(f, ga.NewBitGenome(v)); err != nil {
		t.Fatal(err)
	}
	ideal, err := f.Measure()
	if err != nil {
		t.Fatal(err)
	}
	gain := ideal.MeanCE/uniform.MeanCE - 1
	t.Logf("ideal 24K block: %.1f CEs vs uniform %.1f (+%.0f%%)",
		ideal.MeanCE, uniform.MeanCE, gain*100)
	if gain < 0.05 {
		t.Fatalf("24K ideal gain %.1f%% too small (paper: +16%%)", gain*100)
	}
}

// TestAccessRowsBeatsDataOnly reproduces Fig 11's shape: hammering the
// neighbour rows of the error-prone rows adds substantially to the CEs of
// the pure data fill.
func TestAccessRowsBeatsDataOnly(t *testing.T) {
	f := testFramework(t, 7)
	if err := f.Apply(Relaxed(60)); err != nil {
		t.Fatal(err)
	}
	spec := NewAccessRowsSpec(0x3333333333333333)
	if err := spec.Prepare(f); err != nil {
		t.Fatal(err)
	}
	base, err := spec.HammerlessBaseline(f)
	if err != nil {
		t.Fatal(err)
	}
	// All 64 offsets selected: the strongest access virus.
	all := bitvec.New(64)
	for i := 0; i < 64; i++ {
		all.Set(i, true)
	}
	if err := spec.Deploy(f, ga.NewBitGenome(all)); err != nil {
		t.Fatal(err)
	}
	hammered, err := f.Measure()
	if err != nil {
		t.Fatal(err)
	}
	gain := hammered.MeanCE/base.MeanCE - 1
	t.Logf("access-rows: %.1f CEs vs data-only %.1f (+%.0f%%; paper: +71%%)",
		hammered.MeanCE, base.MeanCE, gain*100)
	if gain < 0.25 {
		t.Fatalf("access virus gain %.0f%% too small", gain*100)
	}
}

// TestAccessCoeffsBetweenDataAndRows reproduces Fig 12's shape: the
// element-level access virus sits above the pure data pattern but below the
// row-sweep virus.
func TestAccessCoeffsBetweenDataAndRows(t *testing.T) {
	f := testFramework(t, 8)
	if err := f.Apply(Relaxed(60)); err != nil {
		t.Fatal(err)
	}
	rows := NewAccessRowsSpec(0x3333333333333333)
	if err := rows.Prepare(f); err != nil {
		t.Fatal(err)
	}
	base, err := rows.HammerlessBaseline(f)
	if err != nil {
		t.Fatal(err)
	}
	all := bitvec.New(64)
	for i := 0; i < 64; i++ {
		all.Set(i, true)
	}
	if err := rows.Deploy(f, ga.NewBitGenome(all)); err != nil {
		t.Fatal(err)
	}
	t1, err := f.Measure()
	if err != nil {
		t.Fatal(err)
	}

	coeffs := NewAccessCoeffsSpec(0x3333333333333333)
	if err := coeffs.Prepare(f); err != nil {
		t.Fatal(err)
	}
	// Strided coefficients: odd strides sweep whole rows over x.
	vals := make([]int, 32)
	for i := 0; i < 16; i++ {
		vals[i] = 7
		vals[16+i] = i
	}
	cg, err := ga.NewIntGenome(vals, 0, CoeffBound)
	if err != nil {
		t.Fatal(err)
	}
	if err := coeffs.Deploy(f, cg); err != nil {
		t.Fatal(err)
	}
	t2, err := f.Measure()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("data-only %.1f, coeffs virus %.1f, rows virus %.1f CEs",
		base.MeanCE, t2.MeanCE, t1.MeanCE)
	if !(t2.MeanCE > base.MeanCE) {
		t.Fatalf("coeffs virus %.1f not above data-only %.1f", t2.MeanCE, base.MeanCE)
	}
	if !(t2.MeanCE < t1.MeanCE) {
		t.Fatalf("coeffs virus %.1f not below rows virus %.1f", t2.MeanCE, t1.MeanCE)
	}
}

// TestSearchRecordsAndResumes exercises the evaluation phase's database and
// the resume path.
func TestSearchRecordsAndResumes(t *testing.T) {
	f := testFramework(t, 9)
	db, err := virusdb.Open(filepath.Join(t.TempDir(), "viruses.json"))
	if err != nil {
		t.Fatal(err)
	}
	f.DB = db
	cfg := SearchConfig{
		Spec:      Data64Spec{},
		Criterion: MaxCE,
		Point:     Relaxed(55),
		GA:        quickGA(10),
	}
	res1, err := f.RunSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 40 {
		t.Fatalf("database has %d records, want 40", db.Len())
	}
	best, ok, err := db.Best(res1.Experiment)
	if err != nil || !ok || best.Fitness != res1.BestFitness {
		t.Fatalf("best record mismatch: %+v vs %.1f", best, res1.BestFitness)
	}
	// Resume: the seeded population must not regress below the recorded best.
	cfg.Resume = true
	cfg.GA = quickGA(5)
	res2, err := f.RunSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BestFitness < res1.BestFitness*0.7 {
		t.Fatalf("resumed search regressed: %.1f vs %.1f",
			res2.BestFitness, res1.BestFitness)
	}
}

// TestMarginalTREFPShape reproduces Fig 14's orderings: margins shrink with
// temperature; the access virus finds the most pessimistic margin; the
// UE-only margin allows a longer refresh period than the no-errors margin.
func TestMarginalTREFPShape(t *testing.T) {
	f := testFramework(t, 10)
	dev := f.Srv.MCU(f.MCU).Device()

	deployData := func() error {
		f.Srv.MCU(f.MCU).ResetStats()
		dev.FillAllUniform(0x3333333333333333)
		return nil
	}
	m50, err := f.MarginalTREFP(deployData, RelaxedVDD, 50, NoErrors, 12)
	if err != nil {
		t.Fatal(err)
	}
	m70, err := f.MarginalTREFP(deployData, RelaxedVDD, 70, NoErrors, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("data-virus margins: %.3fs at 50°C, %.3fs at 70°C", m50, m70)
	if m70 >= m50 {
		t.Fatalf("margin did not shrink with temperature: %.3f vs %.3f", m70, m50)
	}

	// Access virus margin at 50°C: at most the data virus margin.
	rows := NewAccessRowsSpec(0x3333333333333333)
	deployAccess := func() error {
		if err := rows.Prepare(f); err != nil {
			return err
		}
		all := bitvec.New(64)
		for i := 0; i < 64; i++ {
			all.Set(i, true)
		}
		return rows.Deploy(f, ga.NewBitGenome(all))
	}
	mAcc, err := f.MarginalTREFP(deployAccess, RelaxedVDD, 50, NoErrors, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("access-virus margin at 50°C: %.3fs", mAcc)
	if mAcc > m50 {
		t.Fatalf("access margin %.3f above data margin %.3f", mAcc, m50)
	}

	// UE-only margin is at least the no-errors margin.
	mUE, err := f.MarginalTREFP(deployData, RelaxedVDD, 50, NoUEs, 12)
	if err != nil {
		t.Fatal(err)
	}
	if mUE < m50 {
		t.Fatalf("no-UE margin %.3f below no-errors margin %.3f", mUE, m50)
	}

}

// TestSavingsAt validates the power roll-up at a typical margin.
func TestSavingsAt(t *testing.T) {
	sav, err := SavingsAt(power.Default(), 1.1, RelaxedVDD)
	if err != nil {
		t.Fatal(err)
	}
	if sav.DIMMSavings < 0.10 || sav.DIMMSavings > 0.25 {
		t.Fatalf("DIMM savings %.1f%% out of range", sav.DIMMSavings*100)
	}
	if sav.SystemSavings <= 0 || sav.SystemSavings >= sav.DIMMSavings {
		t.Fatalf("system savings %.1f%% inconsistent", sav.SystemSavings*100)
	}
}

// TestProbabilityStudy reproduces the Fig 13 analysis on a reduced sample.
func TestProbabilityStudy(t *testing.T) {
	f := testFramework(t, 11)
	if err := f.Apply(Relaxed(60)); err != nil {
		t.Fatal(err)
	}
	worst, err := f.MeasureWord(0x3333333333333333)
	if err != nil {
		t.Fatal(err)
	}
	study, err := f.RandomPatternStudy(Data64Spec{}, MaxCE, Relaxed(60), 60,
		worst.MeanCE)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("random patterns: mean %.1f σ %.1f; GA best %.1f; P(found worst) %.4f (normality p=%.3f)",
		study.Summary.Mean, study.Summary.StdDev, study.GABest,
		study.PFoundWorst, study.Normality.PValue)
	if study.PFoundWorst < 0.5 {
		t.Fatalf("P(found worst) %.3f < 0.5 for the oracle pattern", study.PFoundWorst)
	}
	if study.Summary.Mean >= worst.MeanCE {
		t.Fatal("random patterns as strong as the worst case on average")
	}
	if _, _, err := study.PDF(10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RandomPatternStudy(Data64Spec{}, MaxCE, Relaxed(60), 5, 1); err == nil {
		t.Fatal("tiny sample accepted")
	}
}

// TestWorkloadStudy reproduces the Fig 1b observation: CE counts vary by
// orders of magnitude across workloads and across DIMMs.
func TestWorkloadStudy(t *testing.T) {
	f := testFramework(t, 12)
	cells, err := f.WorkloadStudy([]string{"kmeans", "memcached"}, 1<<20, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*server.NumMCUs*2 {
		t.Fatalf("got %d cells", len(cells))
	}
	aw, ad := VariationFactors(cells)
	t.Logf("variation: %.0fx across workloads, %.0fx across DIMMs", aw, ad)
	if aw < 3 {
		t.Fatalf("workload variation only %.1fx", aw)
	}
	if ad < 3 {
		t.Fatalf("DIMM variation only %.1fx", ad)
	}
}

// TestTuneGA runs a reduced version of the paper's GA-parameter selection.
func TestTuneGA(t *testing.T) {
	grid, best, err := TuneGA(
		[]int{20, 40},
		[]float64{0.5, 0.9},
		[]float64{0.1, 0.5},
		2, 250, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 8 {
		t.Fatalf("grid has %d points", len(grid))
	}
	t.Logf("best tuning point: pop %d, crossover %.1f, mutation %.1f (%.0f gens, %.0f%% success)",
		best.Population, best.CrossoverProb, best.MutationProb,
		best.MeanGenerations, best.SuccessRate*100)
	if best.SuccessRate == 0 {
		t.Fatal("no configuration found the optimum")
	}
	if _, _, err := TuneGA(nil, nil, nil, 0, 0, xrand.New(1)); err == nil {
		t.Fatal("bad budget accepted")
	}
}

// TestTREFPGrid checks the margin grid construction.
func TestTREFPGrid(t *testing.T) {
	g := TREFPGrid(10)
	if len(g) != 10 || g[0] != NominalTREFP || !approxEq(g[9], MaxTREFP) {
		t.Fatalf("grid endpoints wrong: %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatal("grid not increasing")
		}
	}
	if got := TREFPGrid(1); len(got) != 2 {
		t.Fatal("minimum grid size not enforced")
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestConsensusBits(t *testing.T) {
	mk := func(s string) ga.Genome {
		return ga.NewBitGenome(bitvec.MustParse(s))
	}
	r := &SearchResult{}
	r.Population = []ga.Genome{mk("1100"), mk("1101"), mk("1000")}
	c := r.ConsensusBits()
	// position 0: 3/3 ones; 1: 2/3; 2: 0/3; 3: 1/3.
	if c.String() != "1100" {
		t.Fatalf("consensus %s, want 1100", c)
	}
	// Integer populations yield nil.
	ig, err := ga.NewIntGenome([]int{1}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Population = []ga.Genome{ig}
	if r.ConsensusBits() != nil {
		t.Fatal("consensus of int population not nil")
	}
	r.Population = nil
	if r.ConsensusBits() != nil {
		t.Fatal("consensus of empty population not nil")
	}
}
