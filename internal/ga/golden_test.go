package ga

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/bits"
	"testing"

	"dstress/internal/xrand"
)

// engineOutcomeGolden is the digest of every outcome TestEngineOutcomeGolden
// covers. It pins the Engine's search bit for bit: a change to breeding,
// elitism, sorting, the hooks or the cancel and resume paths moves it.
const engineOutcomeGolden = "454308fb7f3d5900c66f072df53b0f2b673e49b749a0b352cb8b5b2f3b8f6fd3"

// weightedOnes scores a bit genome by a position-weighted ones count, so
// fitnesses spread out but still tie often enough to exercise the sort.
func weightedOnes(g Genome) (float64, error) {
	b := g.(*BitGenome).Bits
	s := 0.0
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			s += float64(i%7 + 1)
		}
	}
	return s, nil
}

func goldenParams(pop, elites int) Params {
	p := DefaultParams()
	p.PopulationSize = pop
	p.ElitismCount = elites
	p.MaxGenerations = 15
	p.ConvergenceSim = 0.9
	return p
}

// digestOutcome folds a search outcome and the snapshots its hooks saw into
// h: final population words, fitness bits, history, evaluation and
// generation counts, and the converged and canceled flags.
func digestOutcome(h hash.Hash, res Result, evals int, snaps []Snapshot) {
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	put(uint64(len(res.Population)))
	for i, g := range res.Population {
		for _, w := range g.(*BitGenome).Bits.Words() {
			put(w)
		}
		putF(res.Fitnesses[i])
	}
	putF(res.BestFitness)
	putF(res.FinalSimilarity)
	put(uint64(len(res.History)))
	for _, st := range res.History {
		put(uint64(st.Generation))
		putF(st.Best)
		putF(st.Mean)
		putF(st.Similarity)
	}
	put(uint64(evals))
	put(uint64(res.Generations))
	put(flag(res.Converged))
	put(flag(res.Canceled))
	put(uint64(len(snaps)))
	for _, s := range snaps {
		put(uint64(s.Generation))
		put(uint64(s.Evaluations))
		for _, w := range s.RNG {
			put(w)
		}
	}
}

// TestEngineOutcomeGolden runs the Engine over seeds × elitism 0–3 ×
// populations 10 and 11 (an odd offspring count included), one search
// cancelled in the middle of a generation's evaluation, and one resumed
// from a generation-3 snapshot, and compares the digest of every outcome
// with the recorded one.
func TestEngineOutcomeGolden(t *testing.T) {
	h := sha256.New()
	run := func(p Params, batch BatchFitness, seed uint64, ctx context.Context) {
		t.Helper()
		eng, err := NewBatch(p, batch, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		var snaps []Snapshot
		eng.OnSnapshot = func(s Snapshot) { snaps = append(snaps, s) }
		res, err := eng.RunContext(ctx, RandomBitPopulation(p.PopulationSize, 40,
			xrand.New(seed+1000)))
		if err != nil {
			t.Fatal(err)
		}
		digestOutcome(h, res, eng.Evaluations, snaps)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for elites := 0; elites <= 3; elites++ {
			for _, pop := range []int{10, 11} {
				run(goldenParams(pop, elites), SerialBatch(weightedOnes), seed,
					context.Background())
			}
		}
	}

	// Cancelled while generation 4's offspring are being evaluated: the
	// half-evaluated brood is dropped and generation 3 stands.
	p := goldenParams(11, 1)
	p.ConvergenceSim = 1
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	run(p, SerialBatch(func(g Genome) (float64, error) {
		if calls++; calls == 11+2*10+4 {
			cancel()
		}
		return weightedOnes(g)
	}), 7, ctx)
	cancel()

	// Resumed from the snapshot of generation 3 on a fresh engine whose
	// seed the snapshot overwrites.
	p = goldenParams(11, 2)
	p.ConvergenceSim = 1
	eng, err := New(p, weightedOnes, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	eng.OnSnapshot = func(s Snapshot) {
		if s.Generation == 3 {
			snap = s
		}
	}
	if _, err := eng.Run(RandomBitPopulation(11, 40, xrand.New(1008))); err != nil {
		t.Fatal(err)
	}
	resumed, err := New(p, weightedOnes, xrand.New(9999))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	resumed.OnSnapshot = func(s Snapshot) { snaps = append(snaps, s) }
	res, err := resumed.Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	digestOutcome(h, res, resumed.Evaluations, snaps)

	if got := hex.EncodeToString(h.Sum(nil)); got != engineOutcomeGolden {
		t.Fatalf("engine outcome digest %s, want %s", got, engineOutcomeGolden)
	}
}

// engineOutcomeGolden24K is the digest TestEngineOutcomeGolden24K covers:
// block-virus-sized chromosomes, where mutation draws and the similarity
// pass take their bulk paths.
const engineOutcomeGolden24K = "cdbb4360869a940b4b82543984a370d8f1a9ff7caa76751817d37fcb6f746956"

// wordWeightedOnes scores a bit genome by its ones count per word, weighted
// by word position: cheap at 196,608 bits, and a change to any flip moves it.
func wordWeightedOnes(g Genome) (float64, error) {
	s := 0
	for i, w := range g.(*BitGenome).Bits.Words() {
		s += bits.OnesCount64(w) * (i%7 + 1)
	}
	return float64(s), nil
}

// TestEngineOutcomeGolden24K runs the Engine over 196,608-bit genomes
// (population 64, elitism 2, 3 generations) from two seeds, plus one search
// resumed from its generation-2 snapshot, and compares the digest of every
// outcome with the recorded one. It runs under -short too, so the race
// detector sees the bulk draw and similarity paths.
func TestEngineOutcomeGolden24K(t *testing.T) {
	const n = 196608
	p := DefaultParams()
	p.PopulationSize = 64
	p.ElitismCount = 2
	p.MaxGenerations = 3
	p.ConvergenceSim = 0.9
	h := sha256.New()
	for seed := uint64(1); seed <= 2; seed++ {
		eng, err := New(p, wordWeightedOnes, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		var snaps []Snapshot
		var snap2 Snapshot
		eng.OnSnapshot = func(s Snapshot) {
			snaps = append(snaps, Snapshot{Generation: s.Generation,
				Evaluations: s.Evaluations, RNG: s.RNG})
			if s.Generation == 2 {
				snap2 = s
			}
		}
		res, err := eng.Run(RandomBitPopulation(p.PopulationSize, n, xrand.New(seed+1000)))
		if err != nil {
			t.Fatal(err)
		}
		digestOutcome(h, res, eng.Evaluations, snaps)
		if seed != 2 {
			continue
		}
		resumed, err := New(p, wordWeightedOnes, xrand.New(9999))
		if err != nil {
			t.Fatal(err)
		}
		snaps = nil
		resumed.OnSnapshot = func(s Snapshot) {
			snaps = append(snaps, Snapshot{Generation: s.Generation,
				Evaluations: s.Evaluations, RNG: s.RNG})
		}
		res, err = resumed.Resume(snap2)
		if err != nil {
			t.Fatal(err)
		}
		digestOutcome(h, res, resumed.Evaluations, snaps)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != engineOutcomeGolden24K {
		t.Fatalf("24K engine outcome digest %s, want %s", got, engineOutcomeGolden24K)
	}
}
