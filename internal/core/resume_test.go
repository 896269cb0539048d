package core

import (
	"context"
	"reflect"
	"testing"

	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/xrand"
)

const resumeSeed = 424242

// resumeFramework builds a fresh framework over a fresh deterministic
// server, the way a restarted process would.
func resumeFramework(t *testing.T) *Framework {
	t.Helper()
	srv, err := server.New(server.DefaultConfig(4, resumeSeed))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(srv, xrand.New(resumeSeed))
	if err != nil {
		t.Fatal(err)
	}
	f.Runs = 2
	return f
}

func resumeConfig(workers int) SearchConfig {
	params := ga.DefaultParams()
	params.PopulationSize = 8
	params.MaxGenerations = 6
	params.ConvergenceSim = 0.999 // keep the search alive past the kill point
	return SearchConfig{
		Spec:      Data64Spec{},
		Criterion: MaxCE,
		Point:     Relaxed(55),
		GA:        params,
		Workers:   workers,
	}
}

// assertSameOutcome compares everything the acceptance criterion names:
// final population, fitness vector, best fitness, plus the history and
// measurement that should ride along.
func assertSameOutcome(t *testing.T, label string, got, want *SearchResult) {
	t.Helper()
	if got.BestFitness != want.BestFitness {
		t.Fatalf("%s: best fitness %v != %v", label, got.BestFitness, want.BestFitness)
	}
	if !reflect.DeepEqual(got.Fitnesses, want.Fitnesses) {
		t.Fatalf("%s: fitness vectors differ\n got %v\nwant %v",
			label, got.Fitnesses, want.Fitnesses)
	}
	if !reflect.DeepEqual(got.PopulationBits(), want.PopulationBits()) {
		t.Fatalf("%s: final populations differ", label)
	}
	if got.Generations != want.Generations || got.Converged != want.Converged {
		t.Fatalf("%s: generations %d/%v != %d/%v", label,
			got.Generations, got.Converged, want.Generations, want.Converged)
	}
	if !reflect.DeepEqual(got.History, want.History) {
		t.Fatalf("%s: histories differ\n got %v\nwant %v",
			label, got.History, want.History)
	}
	if got.BestMeasurement != want.BestMeasurement {
		t.Fatalf("%s: best measurement %+v != %+v", label,
			got.BestMeasurement, want.BestMeasurement)
	}
	if got.Evaluations != want.Evaluations {
		t.Fatalf("%s: evaluations %d != %d", label, got.Evaluations, want.Evaluations)
	}
}

// killAt runs the search and cancels it the moment generation gen's
// statistics are recorded. It captures every checkpoint the way dstressd
// journals them — OnCheckpoint, then EncodeCheckpoint — and returns the last
// one decoded from those bytes, as a restarted daemon would read it.
func killAt(t *testing.T, cfg SearchConfig, gen int) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last []byte
	cfg.OnCheckpoint = func(cp *Checkpoint) {
		b, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Error(err)
		}
		last = b
	}
	prev := cfg.OnGeneration
	cfg.OnGeneration = func(st ga.GenStats) {
		if prev != nil {
			prev(st)
		}
		if st.Generation == gen {
			cancel()
		}
	}
	res, err := resumeFramework(t).RunSearchContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled || res.Generations != gen {
		t.Fatalf("kill run: canceled=%v at generation %d, want kill at %d",
			res.Canceled, res.Generations, gen)
	}
	cp, err := DecodeCheckpoint(last)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestRunSearchFromBitIdenticalFarm(t *testing.T) {
	want, err := resumeFramework(t).RunSearch(resumeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if want.Generations < 4 {
		t.Fatalf("reference run too short (%d generations) to kill mid-way",
			want.Generations)
	}

	for _, killGen := range []int{1, 3} {
		for _, resumeWorkers := range []int{1, 8} {
			cp := killAt(t, resumeConfig(1), killGen)
			if cp.Generation() != killGen || cp.Workers != 1 {
				t.Fatalf("checkpoint at generation %d (workers %d), want %d",
					cp.Generation(), cp.Workers, killGen)
			}

			got, err := resumeFramework(t).RunSearchFrom(
				context.Background(), resumeConfig(resumeWorkers), cp)
			if err != nil {
				t.Fatal(err)
			}
			label := "kill@" + string(rune('0'+killGen)) + "/workers=" +
				string(rune('0'+resumeWorkers))
			assertSameOutcome(t, label, got, want)
		}
	}
}

func TestRunSearchFromBitIdenticalSerial(t *testing.T) {
	want, err := resumeFramework(t).RunSearch(resumeConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	cp := killAt(t, resumeConfig(0), 2)
	if cp.Workers != 0 {
		t.Fatalf("serial checkpoint records workers %d", cp.Workers)
	}
	got, err := resumeFramework(t).RunSearchFrom(context.Background(),
		resumeConfig(0), cp)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "serial", got, want)

	// The protocols must not be mixed: a serial checkpoint resumed on a farm
	// would follow a different noise-stream assignment.
	if _, err := resumeFramework(t).RunSearchFrom(context.Background(),
		resumeConfig(4), cp); err == nil {
		t.Fatal("serial checkpoint accepted under the farm protocol")
	}
}

func TestRunSearchFromRejectsWrongExperiment(t *testing.T) {
	cp := killAt(t, resumeConfig(1), 2)
	cfg := resumeConfig(1)
	cfg.Criterion = MinCE // same spec, different objective
	if _, err := resumeFramework(t).RunSearchFrom(context.Background(), cfg, cp); err == nil {
		t.Fatal("checkpoint resumed under a different experiment")
	}
}

// TestCheckpointIntervalAndDrainFlush pins the interval contract: emissions
// happen every CheckpointEvery generations, and a cancelled search always
// flushes its final generation so a graceful drain loses nothing.
func TestCheckpointIntervalAndDrainFlush(t *testing.T) {
	var gens []int
	cfg := resumeConfig(1)
	cfg.CheckpointEvery = 3
	cfg.OnCheckpoint = func(cp *Checkpoint) {
		gens = append(gens, cp.Generation())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnGeneration = func(st ga.GenStats) {
		if st.Generation == 4 {
			cancel()
		}
	}
	res, err := resumeFramework(t).RunSearchContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("search was not cancelled")
	}
	// Generation 3 by interval, generation 4 by the drain flush.
	if !reflect.DeepEqual(gens, []int{3, 4}) {
		t.Fatalf("checkpoint generations = %v, want [3 4]", gens)
	}
}
