package ga

import (
	"encoding/json"
	"reflect"
	"testing"

	"dstress/internal/xrand"
)

func TestGenomeRecordRoundTrip(t *testing.T) {
	rng := xrand.New(5)
	mixed, err := RandomMixedGenome([]int{0, 0, 5}, []int{1, 20, 9}, rng)
	if err != nil {
		t.Fatal(err)
	}
	genomes := []Genome{
		RandomBitGenome(130, rng),
		RandomIntGenome(7, 0, 20, rng),
		mixed,
	}
	for _, g := range genomes {
		rec, err := EncodeGenome(g)
		if err != nil {
			t.Fatal(err)
		}
		// A checkpoint travels through JSON: round-trip the record too.
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var back GenomeRecord
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeGenome(back)
		if err != nil {
			t.Fatal(err)
		}
		if got.SimilarityTo(g) != 1 || got.Len() != g.Len() {
			t.Fatalf("%T did not round-trip: %v vs %v", g, got, g)
		}
	}
}

func TestDecodeGenomeRejectsCorruptRecords(t *testing.T) {
	cases := []GenomeRecord{
		{Type: "quantum"},
		{Type: "bit"},
		{Type: "bit", N: 64},
		{Type: "bit", N: -8, Packed: make([]byte, 8)},
		{Type: "bit", N: 64, Packed: make([]byte, 16)},
		{Type: "bit", N: 4, Packed: []byte{0x10, 0, 0, 0, 0, 0, 0, 0}},
		{Type: "int", Vals: []int{3}, Lo: []int{0}, Hi: []int{0, 1}},
		{Type: "int", Vals: []int{30}, Lo: []int{0}, Hi: []int{20}},
		{Type: "mixed", Vals: []int{1, 2}, Lo: []int{0}, Hi: []int{5}},
	}
	for i, rec := range cases {
		if _, err := DecodeGenome(rec); err == nil {
			t.Errorf("case %d: corrupt record decoded", i)
		}
	}
}

// checkpointedRun runs a full search while capturing the snapshot emitted at
// generation stopAt.
func checkpointedRun(t *testing.T, params Params, fitness Fitness, seed uint64,
	popSeed uint64, stopAt int) (Result, Snapshot) {
	t.Helper()
	eng, err := New(params, fitness, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	var captured bool
	eng.OnSnapshot = func(s Snapshot) {
		if s.Generation == stopAt {
			snap = s
			captured = true
		}
	}
	res, err := eng.Run(RandomBitPopulation(params.PopulationSize, 48,
		xrand.New(popSeed)))
	if err != nil {
		t.Fatal(err)
	}
	if !captured {
		t.Fatalf("no snapshot at generation %d (run took %d)", stopAt,
			res.Generations)
	}
	return res, snap
}

func onesFitness(g Genome) (float64, error) {
	return float64(g.(*BitGenome).Bits.OnesCount()), nil
}

func TestResumeBitIdentical(t *testing.T) {
	params := DefaultParams()
	params.PopulationSize = 12
	params.MaxGenerations = 25
	params.ConvergenceSim = 0.99 // keep the search running past the kill point

	for _, stopAt := range []int{1, 7, 24} {
		want, snap := checkpointedRun(t, params, onesFitness, 41, 42, stopAt)

		eng, err := New(params, onesFitness, xrand.New(9999)) // seed is overwritten
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Resume(snap)
		if err != nil {
			t.Fatal(err)
		}
		if got.BestFitness != want.BestFitness {
			t.Fatalf("stop@%d: best %v != %v", stopAt, got.BestFitness,
				want.BestFitness)
		}
		if got.Generations != want.Generations || got.Converged != want.Converged {
			t.Fatalf("stop@%d: generations %d/%v != %d/%v", stopAt,
				got.Generations, got.Converged, want.Generations, want.Converged)
		}
		if !reflect.DeepEqual(got.History, want.History) {
			t.Fatalf("stop@%d: history diverged", stopAt)
		}
		if len(got.Population) != len(want.Population) {
			t.Fatalf("stop@%d: population %d != %d", stopAt,
				len(got.Population), len(want.Population))
		}
		for i := range got.Population {
			if got.Fitnesses[i] != want.Fitnesses[i] ||
				got.Population[i].SimilarityTo(want.Population[i]) != 1 {
				t.Fatalf("stop@%d: population diverged at %d", stopAt, i)
			}
		}
		if eng.Evaluations == 0 || eng.Evaluations > params.PopulationSize*
			(params.MaxGenerations+1) {
			t.Fatalf("stop@%d: evaluations = %d", stopAt, eng.Evaluations)
		}
	}
}

// TestResumeSnapshotSurvivesJSON pins that the snapshot is resumable after a
// disk round-trip, uint64 RNG words included (they exceed 2^53 and would be
// destroyed by a float-typed decode).
func TestResumeSnapshotSurvivesJSON(t *testing.T) {
	params := DefaultParams()
	params.PopulationSize = 10
	params.MaxGenerations = 12
	params.ConvergenceSim = 0.99
	want, snap := checkpointedRun(t, params, onesFitness, 3, 4, 5)

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.RNG != snap.RNG {
		t.Fatalf("RNG state mangled by JSON: %v != %v", back.RNG, snap.RNG)
	}
	eng, err := New(params, onesFitness, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Resume(back)
	if err != nil {
		t.Fatal(err)
	}
	if got.BestFitness != want.BestFitness || got.Generations != want.Generations {
		t.Fatalf("JSON round-trip changed the outcome: %v/%d vs %v/%d",
			got.BestFitness, got.Generations, want.BestFitness, want.Generations)
	}
}

func TestResumeRejectsBadSnapshots(t *testing.T) {
	params := DefaultParams()
	params.PopulationSize = 8
	params.MaxGenerations = 10
	params.ConvergenceSim = 0.99
	_, snap := checkpointedRun(t, params, onesFitness, 1, 2, 3)

	cases := []func(*Snapshot){
		func(s *Snapshot) { s.Population = s.Population[:4] },
		func(s *Snapshot) { s.Fitnesses = s.Fitnesses[:4] },
		func(s *Snapshot) { s.Generation = 0 },
		func(s *Snapshot) { s.Generation = params.MaxGenerations + 1 },
		func(s *Snapshot) { s.RNG = [4]uint64{} },
		// An empty chromosome, which is also what a genome spelled as a
		// '0'/'1' string reads as: the population would hold a genome of
		// another length and panic in similarity.
		func(s *Snapshot) { s.Population[3] = GenomeRecord{Type: "bit"} },
		// Packed words that do not match n.
		func(s *Snapshot) { s.Population[3].N = 80 },
		func(s *Snapshot) { s.Population[3].Packed = s.Population[3].Packed[:4] },
		// A set bit past n in the final word.
		func(s *Snapshot) { s.Population[3].Packed[7] |= 0x80 },
		// A packed genome of a different length, itself well formed.
		func(s *Snapshot) {
			s.Population[3] = GenomeRecord{Type: "bit", N: 40, Packed: make([]byte, 8)}
		},
		// A genome of another type.
		func(s *Snapshot) {
			s.Population[3] = GenomeRecord{Type: "int", Vals: make([]int, 48),
				Lo: []int{0}, Hi: []int{1}}
		},
	}
	for i, corrupt := range cases {
		data, _ := json.Marshal(snap)
		var bad Snapshot
		if err := json.Unmarshal(data, &bad); err != nil {
			t.Fatal(err)
		}
		corrupt(&bad)
		eng, err := New(params, onesFitness, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Resume(bad); err == nil {
			t.Errorf("case %d: corrupt snapshot resumed silently", i)
		}
		st := &Stepper{params: params, batch: SerialBatch(onesFitness), rng: xrand.New(1)}
		if err := st.Restore(bad); err == nil {
			t.Errorf("case %d: corrupt snapshot restored into a stepper", i)
		}
	}
}
