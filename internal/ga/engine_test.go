package ga

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"dstress/internal/bitvec"
	"dstress/internal/xrand"
)

func onesCount(g Genome) (float64, error) {
	return float64(g.(*BitGenome).Bits.OnesCount()), nil
}

func TestParamsValidation(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mods := []func(*Params){
		func(p *Params) { p.PopulationSize = 1 },
		func(p *Params) { p.CrossoverProb = 1.5 },
		func(p *Params) { p.MutationProb = -0.1 },
		func(p *Params) { p.ElitismCount = 40 },
		func(p *Params) { p.ConvergenceSim = 2 },
		func(p *Params) { p.MaxGenerations = 0 },
	}
	for i, mod := range mods {
		p := DefaultParams()
		mod(&p)
		if p.Validate() == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	rng := xrand.New(1)
	if _, err := New(DefaultParams(), nil, rng); err == nil {
		t.Fatal("nil fitness accepted")
	}
	if _, err := New(DefaultParams(), onesCount, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	bad := DefaultParams()
	bad.PopulationSize = 0
	if _, err := New(bad, onesCount, rng); err == nil {
		t.Fatal("bad params accepted")
	}
}

// TestOneMaxConvergence reproduces the paper's GA-tuning experiment: with
// the selected parameters (pop 40, crossover 0.9, mutation 0.5), the search
// finds the all-ones 64-bit chromosome in the order of 80 generations.
func TestOneMaxConvergence(t *testing.T) {
	genSum, found := 0, 0
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		rng := xrand.New(100 + seed)
		p := DefaultParams()
		p.MaxGenerations = 300
		p.ConvergenceSim = 1.0 // measure generations-to-optimum
		eng, err := New(p, onesCount, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(RandomBitPopulation(40, 64, rng))
		if err != nil {
			t.Fatal(err)
		}
		optimumAt := -1
		for _, h := range res.History {
			if h.Best >= 64 {
				optimumAt = h.Generation
				break
			}
		}
		if optimumAt < 0 {
			t.Fatalf("seed %d never found the optimum (best %.0f)",
				seed, res.BestFitness)
		}
		found++
		genSum += optimumAt
	}
	meanGens := genSum / trials
	t.Logf("OneMax: optimum found after %d generations on average (%d/%d runs)",
		meanGens, found, trials)
	if meanGens < 20 || meanGens > 180 {
		t.Fatalf("mean generations %d outside the paper's order (~80)", meanGens)
	}
}

// TestSimilarityConvergenceStops: with the paper's 0.85 threshold the
// search stops once the population homogenizes around a strong pattern.
func TestSimilarityConvergenceStops(t *testing.T) {
	rng := xrand.New(200)
	eng, err := New(DefaultParams(), onesCount, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(RandomBitPopulation(40, 64, rng))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("search did not converge (sim %.2f)", res.FinalSimilarity)
	}
	if res.FinalSimilarity < 0.85 {
		t.Fatalf("converged with similarity %.2f", res.FinalSimilarity)
	}
	if res.BestFitness < 48 {
		t.Fatalf("converged population is weak: best %.0f/64", res.BestFitness)
	}
}

func TestPopulationSizePreserved(t *testing.T) {
	rng := xrand.New(2)
	eng, err := New(DefaultParams(), onesCount, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(RandomBitPopulation(40, 32, rng))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Population) != 40 || len(res.Fitnesses) != 40 {
		t.Fatalf("population size %d/%d", len(res.Population), len(res.Fitnesses))
	}
}

func TestResultSortedByFitness(t *testing.T) {
	rng := xrand.New(3)
	p := DefaultParams()
	p.MaxGenerations = 5
	eng, err := New(p, onesCount, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(RandomBitPopulation(40, 64, rng))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Fitnesses); i++ {
		if res.Fitnesses[i] > res.Fitnesses[i-1] {
			t.Fatal("final population not sorted by fitness")
		}
	}
	if res.BestFitness != res.Fitnesses[0] {
		t.Fatal("BestFitness mismatch")
	}
}

func TestElitismNeverLosesBest(t *testing.T) {
	rng := xrand.New(4)
	p := DefaultParams()
	p.MaxGenerations = 40
	p.ConvergenceSim = 1.0 // mutation keeps similarity below 1; watch history
	eng, err := New(p, onesCount, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(RandomBitPopulation(40, 64, rng))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, h := range res.History {
		if h.Best < prev {
			t.Fatalf("best fitness regressed: %v -> %v at gen %d",
				prev, h.Best, h.Generation)
		}
		prev = h.Best
	}
}

func TestMinimizationViaNegation(t *testing.T) {
	rng := xrand.New(5)
	negOnes := func(g Genome) (float64, error) {
		return -float64(g.(*BitGenome).Bits.OnesCount()), nil
	}
	p := DefaultParams()
	p.MaxGenerations = 300
	p.ConvergenceSim = 1.0
	eng, err := New(p, negOnes, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(RandomBitPopulation(40, 64, rng))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Best.(*BitGenome).Bits.OnesCount(); got > 2 {
		t.Fatalf("minimization found %d ones, want near 0", got)
	}
}

func TestFitnessErrorPropagates(t *testing.T) {
	rng := xrand.New(6)
	boom := errors.New("measurement failed")
	n := 0
	fit := func(g Genome) (float64, error) {
		n++
		if n > 45 {
			return 0, boom
		}
		return 1, nil
	}
	eng, err := New(DefaultParams(), fit, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(RandomBitPopulation(40, 16, rng)); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestRunPopulationSizeMismatch(t *testing.T) {
	rng := xrand.New(7)
	eng, err := New(DefaultParams(), onesCount, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(RandomBitPopulation(10, 16, rng)); err == nil {
		t.Fatal("wrong population size accepted")
	}
	pop := RandomBitPopulation(40, 16, rng)
	pop[3] = nil
	if _, err := eng.Run(pop); err == nil {
		t.Fatal("nil genome accepted")
	}
}

func TestInitialPopulationNotMutated(t *testing.T) {
	rng := xrand.New(8)
	pop := RandomBitPopulation(40, 64, rng)
	snapshot := make([]*bitvec.Vec, len(pop))
	for i, g := range pop {
		snapshot[i] = g.(*BitGenome).Bits.Clone()
	}
	eng, err := New(DefaultParams(), onesCount, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(pop); err != nil {
		t.Fatal(err)
	}
	for i, g := range pop {
		if !g.(*BitGenome).Bits.Equal(snapshot[i]) {
			t.Fatalf("caller's genome %d was mutated", i)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() Result {
		rng := xrand.New(99)
		eng, err := New(DefaultParams(), onesCount, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(RandomBitPopulation(40, 64, rng))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BestFitness != b.BestFitness || a.Generations != b.Generations {
		t.Fatalf("non-deterministic: %v/%d vs %v/%d",
			a.BestFitness, a.Generations, b.BestFitness, b.Generations)
	}
	if !a.Best.(*BitGenome).Bits.Equal(b.Best.(*BitGenome).Bits) {
		t.Fatal("best genomes differ")
	}
}

func TestIntGenomeSearch(t *testing.T) {
	rng := xrand.New(10)
	// Maximize the sum of 32 genes bounded to [0,20].
	sum := func(g Genome) (float64, error) {
		s := 0
		for _, v := range g.(*IntGenome).Vals {
			s += v
		}
		return float64(s), nil
	}
	p := DefaultParams()
	p.MaxGenerations = 300
	p.ConvergenceSim = 1.0
	eng, err := New(p, sum, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(RandomIntPopulation(40, 32, 0, 20, rng))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness < 32*17 {
		t.Fatalf("int search best %.0f, want near 640", res.BestFitness)
	}
	for _, v := range res.Best.(*IntGenome).Vals {
		if v < 0 || v > 20 {
			t.Fatalf("gene %d out of bounds", v)
		}
	}
}

func TestGenomeOperatorProperties(t *testing.T) {
	rng := xrand.New(11)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(100)
		a := RandomBitGenome(n, rng)
		b := RandomBitGenome(n, rng)
		c1, c2 := a.Crossover(b, r)
		// Crossover conserves multiset of bits per position pair.
		for i := 0; i < n; i++ {
			av, bv := a.Bits.Get(i), b.Bits.Get(i)
			c1v, c2v := c1.(*BitGenome).Bits.Get(i), c2.(*BitGenome).Bits.Get(i)
			if (av != c1v || bv != c2v) && (av != c2v || bv != c1v) {
				return false
			}
		}
		// Similarity is symmetric and bounded.
		s1, s2 := a.SimilarityTo(b), b.SimilarityTo(a)
		if s1 != s2 || s1 < 0 || s1 > 1 {
			return false
		}
		// Mutation changes at least one gene.
		m := a.Clone()
		m.Mutate(r, 0)
		return m.SimilarityTo(a) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntGenomeValidation(t *testing.T) {
	if _, err := NewIntGenome([]int{5}, 3, 1); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	if _, err := NewIntGenome([]int{5}, 0, 3); err == nil {
		t.Fatal("out-of-bounds gene accepted")
	}
	g, err := NewIntGenome([]int{1, 2, 3}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatal("Len wrong")
	}
}

func TestIntGenomeMutationRespectsbounds(t *testing.T) {
	rng := xrand.New(12)
	g := RandomIntGenome(50, 2, 7, rng)
	for i := 0; i < 100; i++ {
		g.Mutate(rng, 0.3)
		for _, v := range g.Vals {
			if v < 2 || v > 7 {
				t.Fatalf("gene %d escaped bounds", v)
			}
		}
	}
}

func TestSelectionWeightsRankBased(t *testing.T) {
	w := selectionWeights(40)
	if len(w) != 40 {
		t.Fatalf("weights length %d", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Fatal("weights not strictly decreasing by rank")
		}
	}
	// Best is selected roughly twice as often as worst.
	ratio := w[0] / w[len(w)-1]
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("pressure ratio %v", ratio)
	}
}

func TestEvaluationsCounted(t *testing.T) {
	rng := xrand.New(13)
	p := DefaultParams()
	p.MaxGenerations = 3
	p.ConvergenceSim = 1.0
	eng, err := New(p, onesCount, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(RandomBitPopulation(40, 16, rng)); err != nil {
		t.Fatal(err)
	}
	// 40 initial + 3 generations each producing 38 offspring (2 elites
	// carry cached fitness).
	want := 40 + 3*38
	if eng.Evaluations != want {
		t.Fatalf("evaluations %d, want %d", eng.Evaluations, want)
	}
}

// TestFinalGenerationEvaluatedAfterLastHook pins where the last generation
// is evaluated: without convergence, MaxGenerations G calls the batch
// evaluator G+1 times, and the last call comes after the last OnGeneration.
func TestFinalGenerationEvaluatedAfterLastHook(t *testing.T) {
	const gens = 3
	rng := xrand.New(13)
	p := DefaultParams()
	p.MaxGenerations = gens
	p.ConvergenceSim = 1.0
	var events []string
	serial := SerialBatch(onesCount)
	batch := func(ctx context.Context, gs []Genome) ([]float64, error) {
		events = append(events, "batch")
		return serial(ctx, gs)
	}
	eng, err := NewBatch(p, batch, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng.OnGeneration = func(GenStats) { events = append(events, "gen") }
	res, err := eng.Run(RandomBitPopulation(40, 16, rng))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("search converged; the test needs it to run to MaxGenerations")
	}
	var want []string
	for g := 0; g < gens; g++ {
		want = append(want, "batch", "gen")
	}
	want = append(want, "batch")
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("call order %v, want %v", events, want)
	}
}
