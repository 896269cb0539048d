package ga

import (
	"context"
	"testing"

	"dstress/internal/xrand"
)

// stepGeneration drives one full Breed/Evaluate/Advance cycle.
func stepGeneration(t *testing.T, st *Stepper) []Genome {
	t.Helper()
	kids := st.Breed()
	fits, err := st.Evaluate(context.Background(), kids)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Advance(kids, fits); err != nil {
		t.Fatal(err)
	}
	return kids
}

// TestStepperScratchReuse pins the capacity-preserving recycling that keeps
// the lockstep loop from allocating fresh backing arrays every generation:
// Breed hands out the same brood buffer each call, and Advance ping-pongs
// the population between exactly two backing arrays.
func TestStepperScratchReuse(t *testing.T) {
	st := &Stepper{params: stepperParams(), batch: bitCountBatch(), rng: xrand.New(5)}
	if _, err := st.Start(context.Background(), RandomBitPopulation(10, 24, xrand.New(6))); err != nil {
		t.Fatal(err)
	}

	k1 := stepGeneration(t, st)
	popB := st.pop
	k2 := stepGeneration(t, st)
	popC := st.pop
	k3 := stepGeneration(t, st)
	popD := st.pop

	if &k1[0] != &k2[0] || &k2[0] != &k3[0] {
		t.Error("Breed allocated a fresh brood buffer instead of recycling")
	}
	// The population array alternates between two arrays: C reuses the array
	// that held the pre-B population, so D must land back on B's array.
	if &popB[0] == &popC[0] {
		t.Error("consecutive generations share a backing array")
	}
	if &popB[0] != &popD[0] {
		t.Error("Advance did not ping-pong the population backing arrays")
	}
}

// TestStepperReuseHistoryIdentical verifies the recycled-scratch loop
// produces exactly the history a clone-everything consumer sees: breeding
// into copied broods and advancing with copied slices must not change a
// single statistic, since recycling never touches the RNG stream.
func TestStepperReuseHistoryIdentical(t *testing.T) {
	p := stepperParams()
	mk := func() *Stepper {
		st := &Stepper{params: p, batch: bitCountBatch(), rng: xrand.New(7)}
		if _, err := st.Start(context.Background(), RandomBitPopulation(10, 24, xrand.New(11))); err != nil {
			t.Fatal(err)
		}
		return st
	}

	plain := mk()
	for g := 0; g < 8; g++ {
		stepGeneration(t, plain)
	}

	copying := mk()
	for g := 0; g < 8; g++ {
		kids := append([]Genome(nil), copying.Breed()...)
		fits, err := copying.Evaluate(context.Background(), kids)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := copying.Advance(kids, append([]float64(nil), fits...)); err != nil {
			t.Fatal(err)
		}
	}

	h1, h2 := plain.history, copying.history
	if len(h1) != len(h2) {
		t.Fatalf("history lengths differ: %d vs %d", len(h1), len(h2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("generation %d diverged: %+v vs %+v", i+1, h1[i], h2[i])
		}
	}
}
