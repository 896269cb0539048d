package core

import (
	"context"
	"testing"

	"dstress/internal/dram"
	"dstress/internal/ga"
	"dstress/internal/islands"
	"dstress/internal/predict"
)

// islandsConfig is resumeConfig with the island path switched on: a small
// archipelago with a short migration period so every run migrates.
func islandsConfig(workers, count int, det dram.DeterminismVersion) SearchConfig {
	cfg := resumeConfig(workers)
	cfg.Determinism = det
	cfg.Islands = islands.Config{Count: count, MigrateEvery: 2, MigrateCount: 2}
	return cfg
}

// surrogateOn enables screening sized so it actually engages at the test's
// tiny population (2 islands × 8 genomes = 16 observations after gen 1).
func surrogateOn(cfg SearchConfig) SearchConfig {
	cfg.Islands.Surrogate = predict.ScreenPolicy{
		Enabled: true, Overbreed: 2, MinTrain: 16, Neighbors: 4, Capacity: 64,
	}
	return cfg
}

func TestIslandsBitIdenticalAcrossWorkers(t *testing.T) {
	for _, det := range []dram.DeterminismVersion{dram.DeterminismV1, dram.DeterminismV2} {
		for _, count := range []int{2, 4} {
			want, err := resumeFramework(t).RunSearch(islandsConfig(1, count, det))
			if err != nil {
				t.Fatal(err)
			}
			got, err := resumeFramework(t).RunSearch(islandsConfig(8, count, det))
			if err != nil {
				t.Fatal(err)
			}
			assertSameOutcome(t, labelOf("workers", det, count), got, want)
		}
	}
}

func labelOf(kind string, det dram.DeterminismVersion, count int) string {
	return kind + "/v" + string(rune('0'+int(det))) + "/islands=" + string(rune('0'+count))
}

func TestIslandsKillResumeBitIdentical(t *testing.T) {
	for _, det := range []dram.DeterminismVersion{dram.DeterminismV1, dram.DeterminismV2} {
		for _, count := range []int{1, 2, 4} {
			want, err := resumeFramework(t).RunSearch(islandsConfig(2, count, det))
			if err != nil {
				t.Fatal(err)
			}
			if want.Generations < 4 {
				t.Fatalf("reference run too short (%d generations)", want.Generations)
			}
			cp := killAt(t, islandsConfig(2, count, det), 3)
			if cp.Islands == nil || cp.Generation() != 3 ||
				len(cp.IslandNoise) != count || len(cp.Islands.Islands) != count {
				t.Fatalf("island checkpoint malformed: gen=%d islands=%v",
					cp.Generation(), cp.Islands)
			}

			// The archipelago topology rides in the checkpoint; the resuming
			// config deliberately asks for a different island count and no
			// determinism version — both must come from the checkpoint.
			resumeWorkers := []int{8}
			if count == 2 {
				resumeWorkers = []int{1, 8}
			}
			for _, w := range resumeWorkers {
				cfg := resumeConfig(w)
				cfg.Islands = islands.Config{Count: count + 1}
				got, err := resumeFramework(t).RunSearchFrom(context.Background(), cfg, cp)
				if err != nil {
					t.Fatal(err)
				}
				assertSameOutcome(t, labelOf("resume", det, count), got, want)
			}
		}
	}
}

func TestIslandsSurrogateKillResumeBitIdentical(t *testing.T) {
	cfgOf := func(workers int) SearchConfig {
		return surrogateOn(islandsConfig(workers, 2, dram.DeterminismV2))
	}
	want, err := resumeFramework(t).RunSearch(cfgOf(2))
	if err != nil {
		t.Fatal(err)
	}
	cp := killAt(t, cfgOf(2), 3)
	if cp.Islands.Surrogate == nil {
		t.Fatal("checkpoint dropped the surrogate training window")
	}
	if v := cp.Islands.Config.Surrogate.Version; v != predict.ScreenPolicyVersion {
		t.Fatalf("checkpoint records screening policy version %d", v)
	}
	for _, w := range []int{1, 8} {
		got, err := resumeFramework(t).RunSearchFrom(context.Background(),
			resumeConfig(w), cp)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutcome(t, "surrogate-resume", got, want)
	}
}

// TestIslandsCancelReturnsBestAcrossIslands is the regression test for the
// cancellation fix: a cancelled island search must return the best genome
// across the whole archipelago, not island 0's.
func TestIslandsCancelReturnsBestAcrossIslands(t *testing.T) {
	cfg := islandsConfig(2, 4, dram.DeterminismV2)
	cfg.Islands.MigrateEvery = 100 // no migration: island bests stay distinct
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnGeneration = func(st ga.GenStats) {
		if st.Generation == 3 {
			cancel()
		}
	}
	res, err := resumeFramework(t).RunSearchContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled || res.Generations != 3 {
		t.Fatalf("canceled=%v generations=%d", res.Canceled, res.Generations)
	}
	// The aggregated history's Best is the max over island bests; elitism
	// makes it monotone. The returned best must meet it — if the merge took
	// island 0 only, a stronger genome on another island would be lost.
	max := 0.0
	for _, st := range res.History {
		if st.Best > max {
			max = st.Best
		}
	}
	if res.BestFitness != max {
		t.Fatalf("cancelled best %v below archipelago best %v", res.BestFitness, max)
	}
}

func TestIslandsRejectSerialProtocol(t *testing.T) {
	cfg := islandsConfig(0, 2, dram.DeterminismV2)
	if _, err := resumeFramework(t).RunSearchContext(context.Background(), cfg); err == nil {
		t.Fatal("island search accepted Workers 0")
	}
}

func TestIslandsMetricsAccumulate(t *testing.T) {
	met := islands.NewMetrics()
	cfg := surrogateOn(islandsConfig(2, 2, dram.DeterminismV2))
	cfg.IslandMetrics = met
	if _, err := resumeFramework(t).RunSearch(cfg); err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	if snap.Searches != 1 || snap.Migrations == 0 || snap.ScreenedOut == 0 ||
		snap.SurrogatePredictions == 0 || len(snap.Islands) != 2 {
		t.Fatalf("metrics incomplete: %+v", snap)
	}
	for i, st := range snap.Islands {
		if st.Island != i || st.Generation == 0 || st.Best <= 0 {
			t.Fatalf("island stat %d incomplete: %+v", i, st)
		}
	}
}
