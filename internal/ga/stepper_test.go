package ga

import (
	"context"
	"testing"

	"dstress/internal/xrand"
)

func bitCountBatch() BatchFitness {
	return SerialBatch(func(g Genome) (float64, error) {
		b := g.(*BitGenome)
		n := 0
		for i := 0; i < b.Bits.Len(); i++ {
			if b.Bits.Get(i) {
				n++
			}
		}
		return float64(n), nil
	})
}

func stepperParams() Params {
	p := DefaultParams()
	p.PopulationSize = 10
	p.MaxGenerations = 50
	p.ConvergenceSim = 1
	p.UseConvergeMinBest = true
	p.ConvergeMinBest = 1e9 // never converge: the tests drive the loop
	return p
}

// runStepper drives a stepper for gens generations and returns its history.
func runStepper(t *testing.T, st *Stepper, seed uint64, gens int) []GenStats {
	t.Helper()
	rng := xrand.New(seed)
	if _, err := st.Start(context.Background(), RandomBitPopulation(10, 24, rng)); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < gens; g++ {
		kids := st.Breed()
		fits, err := st.Evaluate(context.Background(), kids)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Advance(kids, fits); err != nil {
			t.Fatal(err)
		}
	}
	return st.history
}

func TestStepperDeterministic(t *testing.T) {
	p := stepperParams()
	mk := func() *Stepper {
		return &Stepper{params: p, batch: bitCountBatch(), rng: xrand.New(7)}
	}
	h1 := runStepper(t, mk(), 11, 8)
	h2 := runStepper(t, mk(), 11, 8)
	if len(h1) != len(h2) {
		t.Fatalf("history lengths differ: %d vs %d", len(h1), len(h2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("generation %d diverged: %+v vs %+v", i+1, h1[i], h2[i])
		}
	}
}

func TestStepperSnapshotRestore(t *testing.T) {
	p := stepperParams()
	full := &Stepper{params: p, batch: bitCountBatch(), rng: xrand.New(3)}
	runStepper(t, full, 5, 10)

	// Replay the first 4 generations, snapshot, restore into a fresh
	// stepper, and run the remaining 6; the histories must agree exactly.
	half := &Stepper{params: p, batch: bitCountBatch(), rng: xrand.New(3)}
	runStepper(t, half, 5, 4)
	snap, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed := &Stepper{params: p, batch: bitCountBatch(), rng: xrand.New(999)}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 6; g++ {
		kids := resumed.Breed()
		fits, err := resumed.Evaluate(context.Background(), kids)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resumed.Advance(kids, fits); err != nil {
			t.Fatal(err)
		}
	}
	hf, hr := full.history, resumed.history
	if len(hf) != len(hr) {
		t.Fatalf("history lengths differ: %d vs %d", len(hf), len(hr))
	}
	for i := range hf {
		if hf[i] != hr[i] {
			t.Fatalf("generation %d diverged after resume: %+v vs %+v",
				i+1, hf[i], hr[i])
		}
	}
	if full.evals != resumed.evals {
		t.Fatalf("evaluations differ: %d vs %d", full.evals, resumed.evals)
	}
	fp, ff := full.pop, full.fits
	rp, rf := resumed.pop, resumed.fits
	for i := range fp {
		if ff[i] != rf[i] || fp[i].SimilarityTo(rp[i]) != 1 {
			t.Fatalf("final population differs at %d", i)
		}
	}
}
