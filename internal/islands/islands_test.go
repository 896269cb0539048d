package islands

import (
	"context"
	"testing"

	"dstress/internal/ga"
	"dstress/internal/predict"
	"dstress/internal/xrand"
)

const testBits = 24

func bitCountBatch() ga.BatchFitness {
	return ga.SerialBatch(func(g ga.Genome) (float64, error) {
		return float64(g.(*ga.BitGenome).Bits.OnesCount()), nil
	})
}

func testParams() ga.Params {
	p := ga.DefaultParams()
	p.PopulationSize = 8
	p.MaxGenerations = 12
	p.ConvergenceSim = 1
	p.UseConvergeMinBest = true
	p.ConvergeMinBest = float64(testBits + 1) // unreachable: run full length
	return p
}

// newTestModel builds a model with one bit-count evaluator per island and
// the repo's split discipline: engine RNGs then population RNGs, island
// order, all off one root.
func newTestModel(t *testing.T, params ga.Params, cfg Config, seed uint64) (*Model, [][]ga.Genome) {
	t.Helper()
	cfg = cfg.Normalize()
	root := xrand.New(seed)
	k := cfg.Count
	rngs := make([]*xrand.Rand, k)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	initial := make([][]ga.Genome, k)
	for i := range initial {
		initial[i] = ga.RandomBitPopulation(params.PopulationSize, testBits, root.Split())
	}
	batches := make([]ga.BatchFitness, k)
	for i := range batches {
		batches[i] = bitCountBatch()
	}
	m, err := New(params, cfg, batches, rngs)
	if err != nil {
		t.Fatal(err)
	}
	return m, initial
}

func assertSameResult(t *testing.T, a, b Result) {
	t.Helper()
	if a.Generations != b.Generations || a.Converged != b.Converged ||
		a.Canceled != b.Canceled || a.Evaluations != b.Evaluations ||
		a.Migrations != b.Migrations || a.Screened != b.Screened {
		t.Fatalf("result headers differ:\n%+v\n%+v", a, b)
	}
	if a.BestFitness != b.BestFitness ||
		a.Best.(*ga.BitGenome).Bits.BitString() != b.Best.(*ga.BitGenome).Bits.BitString() {
		t.Fatalf("best differs: %v vs %v", a.BestFitness, b.BestFitness)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("history[%d] differs: %+v vs %+v", i, a.History[i], b.History[i])
		}
	}
	if len(a.Population) != len(b.Population) {
		t.Fatalf("population sizes differ")
	}
	for i := range a.Population {
		if a.Fitnesses[i] != b.Fitnesses[i] ||
			a.Population[i].(*ga.BitGenome).Bits.BitString() !=
				b.Population[i].(*ga.BitGenome).Bits.BitString() {
			t.Fatalf("population[%d] differs", i)
		}
	}
	for i := range a.IslandBests {
		if a.IslandBests[i] != b.IslandBests[i] {
			t.Fatalf("island %d best differs: %v vs %v", i, a.IslandBests[i], b.IslandBests[i])
		}
	}
}

func TestIslandsDeterministicRepeat(t *testing.T) {
	for _, k := range []int{2, 4} {
		cfg := Config{Count: k, MigrateEvery: 3, MigrateCount: 2}
		m1, init1 := newTestModel(t, testParams(), cfg, 42)
		r1, err := m1.Run(context.Background(), init1)
		if err != nil {
			t.Fatal(err)
		}
		m2, init2 := newTestModel(t, testParams(), cfg, 42)
		r2, err := m2.Run(context.Background(), init2)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, r1, r2)
		if r1.Migrations == 0 {
			t.Fatal("no migrations happened")
		}
	}
}

func TestIslandsMigrationSchedule(t *testing.T) {
	cfg := Config{Count: 3, MigrateEvery: 2, MigrateCount: 1}
	m, init := newTestModel(t, testParams(), cfg, 7)
	res, err := m.Run(context.Background(), init)
	if err != nil {
		t.Fatal(err)
	}
	// Migration fires when a closed generation index is divisible by the
	// period: generations 2,4,...,12 with MaxGenerations 12 → 6 rounds.
	if res.Generations != 12 || res.Migrations != 6 {
		t.Fatalf("generations %d migrations %d, want 12 and 6",
			res.Generations, res.Migrations)
	}
	// The aggregate best must dominate every island best and equal the max.
	max := res.IslandBests[0]
	for _, b := range res.IslandBests {
		if b > max {
			max = b
		}
	}
	if res.BestFitness != max {
		t.Fatalf("merged best %v != max island best %v", res.BestFitness, max)
	}
}

func TestIslandsSurrogateScreening(t *testing.T) {
	cfg := Config{
		Count: 2, MigrateEvery: 4, MigrateCount: 1,
		Surrogate: predict.ScreenPolicy{
			Enabled: true, Overbreed: 2, MinTrain: 8, Neighbors: 4, Capacity: 64,
		},
	}
	m1, init1 := newTestModel(t, testParams(), cfg, 11)
	r1, err := m1.Run(context.Background(), init1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Screened == 0 {
		t.Fatal("surrogate screened nothing despite overbreeding")
	}
	if r1.Surrogate.Predictions == 0 || r1.Surrogate.Observations == 0 {
		t.Fatalf("surrogate idle: %+v", r1.Surrogate)
	}
	// Screening must not change the number of real evaluations per
	// generation: initial pops + need per island per generation.
	p := testParams()
	want := cfg.Count * (p.PopulationSize + (r1.Generations-1)*(p.PopulationSize-p.ElitismCount))
	if r1.Evaluations != want {
		t.Fatalf("evaluations %d, want %d", r1.Evaluations, want)
	}
	m2, init2 := newTestModel(t, testParams(), cfg, 11)
	r2, err := m2.Run(context.Background(), init2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, r1, r2)
}

func TestIslandsModelSnapshotResume(t *testing.T) {
	cfg := Config{
		Count: 2, MigrateEvery: 2, MigrateCount: 2,
		Surrogate: predict.ScreenPolicy{
			Enabled: true, Overbreed: 2, MinTrain: 8, Neighbors: 4, Capacity: 64,
		},
	}
	full, initFull := newTestModel(t, testParams(), cfg, 23)
	rFull, err := full.Run(context.Background(), initFull)
	if err != nil {
		t.Fatal(err)
	}

	// Capture the archipelago at generation 5 (a migration generation, so
	// the snapshot includes injected migrants), then resume a fresh model.
	part, initPart := newTestModel(t, testParams(), cfg, 23)
	var snap Snapshot
	ctx, cancel := context.WithCancel(context.Background())
	part.AfterGeneration = func() {
		if part.gen == 5 {
			s, err := part.Snapshot()
			if err != nil {
				t.Error(err)
			}
			snap = s
			cancel()
		}
	}
	if _, err := part.Run(ctx, initPart); err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 5 {
		t.Fatalf("snapshot at generation %d", snap.Generation)
	}

	resumed, _ := newTestModel(t, testParams(), cfg, 999) // RNGs overwritten by Restore
	rRes, err := resumed.Resume(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, rFull, rRes)
}

// TestIslandsResumeRejectsMismatchedIslands: each island's population is
// self-consistent, but island 1 holds longer chromosomes than island 0. A
// migrant would then cross over with a genome of another length, so Resume
// must refuse the snapshot instead of panicking generations later.
func TestIslandsResumeRejectsMismatchedIslands(t *testing.T) {
	cfg := Config{Count: 2, MigrateEvery: 2, MigrateCount: 1}
	part, init := newTestModel(t, testParams(), cfg, 41)
	var snap Snapshot
	ctx, cancel := context.WithCancel(context.Background())
	part.AfterGeneration = func() {
		if part.gen == 3 {
			s, err := part.Snapshot()
			if err != nil {
				t.Error(err)
			}
			snap = s
			cancel()
		}
	}
	if _, err := part.Run(ctx, init); err != nil {
		t.Fatal(err)
	}
	longer := ga.RandomBitPopulation(len(snap.Islands[1].Population), testBits+8,
		xrand.New(5))
	for i, g := range longer {
		rec, err := ga.EncodeGenome(g)
		if err != nil {
			t.Fatal(err)
		}
		snap.Islands[1].Population[i] = rec
	}
	resumed, _ := newTestModel(t, testParams(), cfg, 999)
	if _, err := resumed.Resume(context.Background(), snap); err == nil {
		t.Fatal("islands with different chromosome lengths resumed")
	}
}

func TestIslandsCancelReturnsBestAcrossIslands(t *testing.T) {
	cfg := Config{Count: 4, MigrateEvery: 100, MigrateCount: 1} // no migration
	m, init := newTestModel(t, testParams(), cfg, 31)
	ctx, cancel := context.WithCancel(context.Background())
	m.OnGeneration = func(st ga.GenStats) {
		if st.Generation == 4 {
			cancel()
		}
	}
	res, err := m.Run(ctx, init)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled || res.Generations != 4 {
		t.Fatalf("canceled=%v generations=%d", res.Canceled, res.Generations)
	}
	max := res.IslandBests[0]
	argmax := 0
	for i, b := range res.IslandBests {
		if b > max {
			max, argmax = b, i
		}
	}
	if res.BestFitness != max {
		t.Fatalf("cancelled result best %v is not the archipelago max %v (island %d)",
			res.BestFitness, max, argmax)
	}
}

// TestIslandsMidBatchCancel cancels the context while one island's batch is
// mid-evaluation: every island must discard that generation's offspring so
// the archipelago stays in lockstep, and the merged result must still carry
// the best genome across islands.
func TestIslandsMidBatchCancel(t *testing.T) {
	cfg := Config{Count: 3, MigrateEvery: 100, MigrateCount: 1}.Normalize()
	params := testParams()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	root := xrand.New(77)
	rngs := make([]*xrand.Rand, cfg.Count)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	initial := make([][]ga.Genome, cfg.Count)
	for i := range initial {
		initial[i] = ga.RandomBitPopulation(params.PopulationSize, testBits, root.Split())
	}
	gen := 0
	batches := make([]ga.BatchFitness, cfg.Count)
	for i := range batches {
		i := i
		inner := bitCountBatch()
		batches[i] = func(c context.Context, gs []ga.Genome) ([]float64, error) {
			if i == 1 && gen == 4 {
				cancel() // mid-batch: island 1's generation-5 offspring die here
			}
			return inner(c, gs)
		}
	}
	m, err := New(params, cfg, batches, rngs)
	if err != nil {
		t.Fatal(err)
	}
	m.OnGeneration = func(st ga.GenStats) { gen = st.Generation }
	res, err := m.Run(ctx, initial)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("result not marked canceled")
	}
	if res.Generations != 4 {
		t.Fatalf("archipelago out of lockstep: stopped at generation %d", res.Generations)
	}
	max := res.IslandBests[0]
	for _, b := range res.IslandBests {
		if b > max {
			max = b
		}
	}
	if res.BestFitness != max {
		t.Fatalf("cancelled best %v is not the archipelago max %v", res.BestFitness, max)
	}
}

func TestIslandsConfigValidate(t *testing.T) {
	p := testParams()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"too many islands", Config{Count: 65}},
		{"migrants exceed population", Config{Count: 2, MigrateCount: p.PopulationSize}},
		{"unknown surrogate version", Config{Count: 2,
			Surrogate: predict.ScreenPolicy{Enabled: true, Version: 99}}},
		{"capacity below min_train", Config{Count: 2,
			Surrogate: predict.ScreenPolicy{Enabled: true, MinTrain: 100, Capacity: 50}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(p); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := (Config{}).Validate(p); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	if !(Config{Surrogate: predict.ScreenPolicy{Enabled: true}}).Enabled() {
		t.Error("surrogate-only config not enabled")
	}
	n := Config{Count: 2}.Normalize()
	if n.MigrateEvery != 5 || n.MigrateCount != 2 {
		t.Errorf("defaults not filled: %+v", n)
	}
	if n.Normalize() != n {
		t.Error("normalize not idempotent")
	}
}
