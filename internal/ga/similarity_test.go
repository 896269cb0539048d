package ga

import (
	"math"
	"runtime"
	"testing"

	"dstress/internal/xrand"
)

// naiveMeanPairwise is the per-pair loop meanPairwiseSimilarity must match
// bit for bit: SimilarityTo over the pairs (i, j), i < j, summed in order.
func naiveMeanPairwise(pop []Genome) float64 {
	var sum float64
	var n int
	for i := 0; i < len(pop); i++ {
		for j := i + 1; j < len(pop); j++ {
			sum += pop[i].SimilarityTo(pop[j])
			n++
		}
	}
	return sum / float64(n)
}

// TestMeanPairwiseMatchesNaive pins the blocked, split similarity pass over
// bit genomes to the naive per-pair sum in every bit of the float, across
// lengths around a word and at 24 KB, and population sizes around the
// kernel's block of four. GOMAXPROCS is raised so the 24 KB populations
// take the split path even on a machine with fewer CPUs. Half of each
// population is a mutated copy of one parent, so the pairs' counts differ
// in their low bits as in a converging search.
func TestMeanPairwiseMatchesNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := xrand.New(26)
	for _, n := range []int{1, 63, 64, 65, 196608} {
		for _, size := range []int{2, 3, 5, 63, 64, 65} {
			pop := RandomBitPopulation(size, n, rng)
			for i := 1; i < size; i += 2 {
				pop[i] = pop[0].Clone()
				pop[i].Mutate(rng, 4/float64(n))
			}
			got, want := meanPairwiseSimilarity(pop), naiveMeanPairwise(pop)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d size=%d: similarity %v (%#x), naive sum %v (%#x)",
					n, size, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestMeanPairwiseIntsConvergenceSignal checks the similarity signal over
// integer genomes: a converged population of near-identical coefficient
// vectors scores high, a random one low.
func TestMeanPairwiseIntsConvergenceSignal(t *testing.T) {
	rng := xrand.New(5)
	converged := make([]Genome, 10)
	for i := range converged {
		v := make([]int, 32)
		for j := range v {
			v[j] = 10
			if rng.Bool(0.05) {
				v[j] = 11
			}
		}
		converged[i] = &IntGenome{Vals: v, Lo: 0, Hi: 20}
	}
	random := make([]Genome, 10)
	for i := range random {
		random[i] = RandomIntGenome(32, 0, 20, rng)
	}
	mc := meanPairwiseSimilarity(converged)
	mr := meanPairwiseSimilarity(random)
	if mc < 0.9 {
		t.Fatalf("converged population similarity %v < 0.9", mc)
	}
	if mr > 0.7 {
		t.Fatalf("random population similarity %v > 0.7", mr)
	}
	if mc <= mr {
		t.Fatal("converged not more similar than random")
	}
}
