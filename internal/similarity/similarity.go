// Package similarity implements the chromosome-similarity functions DStress
// uses as its GA convergence criteria: the Sokal & Michener simple matching
// function for binary chromosomes, built on Operational Taxonomic Unit
// (OTU) contingency tables, and the weighted Jaccard similarity for
// chromosomes of real/integer features (the memory-access coefficient
// vectors). The search stops when the mean pairwise similarity of the final
// population exceeds a threshold (0.85 in the paper).
package similarity

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"dstress/internal/bitvec"
)

// OTU is the 2x2 contingency table of two binary feature vectors:
//
//	           y_i = 1   y_i = 0
//	x_i = 1       A         C
//	x_i = 0       B         D
//
// A counts positions where both features are 1, D where both are 0, and B/C
// the mismatches.
type OTU struct {
	A, B, C, D int
}

// OTUOf builds the contingency table of two equal-length bit vectors.
func OTUOf(x, y *bitvec.Vec) (OTU, error) {
	if x.Len() != y.Len() {
		return OTU{}, fmt.Errorf("similarity: length mismatch %d vs %d",
			x.Len(), y.Len())
	}
	var o OTU
	for i := 0; i < x.Len(); i++ {
		switch {
		case x.Get(i) && y.Get(i):
			o.A++
		case !x.Get(i) && y.Get(i):
			o.B++
		case x.Get(i) && !y.Get(i):
			o.C++
		default:
			o.D++
		}
	}
	return o, nil
}

// N returns the total number of features.
func (o OTU) N() int { return o.A + o.B + o.C + o.D }

// SokalMichener returns (A+D)/(A+B+C+D): the fraction of matching binary
// features. It is 1 for identical vectors and 0 for complements.
func (o OTU) SokalMichener() float64 {
	n := o.N()
	if n == 0 {
		return 1 // two empty vectors match trivially
	}
	return float64(o.A+o.D) / float64(n)
}

// SokalMichener computes the simple matching similarity of two bit vectors
// directly from their packed words, avoiding the per-bit OTU walk.
func SokalMichener(x, y *bitvec.Vec) (float64, error) {
	if x.Len() != y.Len() {
		return 0, fmt.Errorf("similarity: length mismatch %d vs %d",
			x.Len(), y.Len())
	}
	if x.Len() == 0 {
		return 1, nil
	}
	return float64(x.MatchCount(y)) / float64(x.Len()), nil
}

// WeightedJaccard returns Σ min(x_i,y_i) / Σ max(x_i,y_i) for two
// non-negative real vectors. Two identical vectors score 1; the score
// decreases as the vectors diverge. A pair of all-zero vectors scores 1.
func WeightedJaccard(x, y []float64) (float64, error) { return weightedJaccard(x, y) }

// WeightedJaccardInts is WeightedJaccard over integer features, as used for
// the access-coefficient chromosomes.
func WeightedJaccardInts(x, y []int) (float64, error) { return weightedJaccard(x, y) }

// weightedJaccard converts each feature to float64 as it reads it, so both
// element types take the same float operations in the same order.
func weightedJaccard[T int | float64](x, y []T) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("similarity: length mismatch %d vs %d",
			len(x), len(y))
	}
	var num, den float64
	for i := range x {
		xi, yi := float64(x[i]), float64(y[i])
		if xi < 0 || yi < 0 {
			return 0, fmt.Errorf("similarity: negative feature at %d", i)
		}
		if xi < yi {
			num += xi
			den += yi
		} else {
			num += yi
			den += xi
		}
	}
	if den == 0 {
		return 1, nil
	}
	return num / den, nil
}

// MeanPairwiseBits returns the average Sokal–Michener similarity over all
// unordered pairs of the given population. A population of fewer than two
// members is trivially converged (similarity 1).
//
// The float result is bit-identical to summing SokalMichener over the pairs
// (i, j), i < j, in order: the pairs' match counts are integers, counted in
// any order and on any goroutine, and only the sum of their quotients keeps
// that order. The counts come from a blocked kernel that reads each word of
// one member once for four others. When the work (pairs × words) is large
// and the genomes are long enough that a count per pair takes less memory
// than the population itself, the rows are split across up to GOMAXPROCS
// goroutines into one triangle of counts; otherwise the rows are counted
// one at a time on the calling goroutine.
func MeanPairwiseBits(pop []*bitvec.Vec) (float64, error) {
	m := len(pop)
	if m < 2 {
		return 1, nil
	}
	n := pop[0].Len()
	for _, v := range pop[1:] {
		if v.Len() != n {
			return 0, fmt.Errorf("similarity: length mismatch %d vs %d", n, v.Len())
		}
	}
	pairs := m * (m - 1) / 2
	if n == 0 {
		return 1, nil // every pair of empty vectors matches trivially
	}
	var sum float64
	add := func(diffs []int) {
		for _, d := range diffs {
			sum += float64(n-d) / float64(n)
		}
	}
	words := (n + 63) / 64
	if parts := min(runtime.GOMAXPROCS(0), pairs*words/pairSplitWork); parts >= 2 && words >= m {
		tri := make([]int, pairs)
		var wg sync.WaitGroup
		lo := 0
		for p := 1; p <= parts; p++ {
			// Rows [lo, hi) hold about a parts-th of the pairs.
			hi := lo
			for hi < m-1 && pairsBefore(m, hi) < pairs*p/parts {
				hi++
			}
			if p == parts {
				hi = m - 1
			}
			if hi == lo {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				countRows(pop, lo, hi, tri[pairsBefore(m, lo):pairsBefore(m, hi)])
			}(lo, hi)
			lo = hi
		}
		wg.Wait()
		add(tri)
	} else {
		row := make([]int, m-1)
		for i := 0; i < m-1; i++ {
			r := row[:m-1-i]
			countRows(pop, i, i+1, r)
			add(r)
		}
	}
	return sum / float64(pairs), nil
}

// pairSplitWork is the word comparisons (pairs × words) that make one
// goroutine's share of a split similarity pass: about a millisecond. A
// generation of 64 chromosomes of 24 KB (2,016 pairs × 3,072 words) splits;
// every population of 64-bit chromosomes stays serial.
const pairSplitWork = 1 << 20

// pairsBefore returns how many pairs (i, j), i < j < m, have i below row.
func pairsBefore(m, row int) int { return row*(m-1) - row*(row-1)/2 }

// countRows writes, for each row i in [lo, hi) and each j > i in order, the
// number of bits in which pop[i] and pop[j] differ into out.
func countRows(pop []*bitvec.Vec, lo, hi int, out []int) {
	k := 0
	for i := lo; i < hi; i++ {
		a := pop[i].Words()
		j := i + 1
		for ; j+4 <= len(pop); j += 4 {
			out[k], out[k+1], out[k+2], out[k+3] = diff4(a, pop[j].Words(),
				pop[j+1].Words(), pop[j+2].Words(), pop[j+3].Words())
			k += 4
		}
		for ; j < len(pop); j++ {
			out[k] = pop[i].Len() - pop[i].MatchCount(pop[j])
			k++
		}
	}
}

// diff4 returns the bits in which a differs from each of b0..b3, reading
// each word of a once for the four and two words per step: the popcount
// falls back to a call on CPUs without the instruction, which keeps the
// loop's values in memory, and the longer step halves that traffic.
func diff4(a, b0, b1, b2, b3 []uint64) (d0, d1, d2, d3 int) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	w := 0
	for ; w+2 <= n; w += 2 {
		x, y := a[w], a[w+1]
		d0 += bits.OnesCount64(x^b0[w]) + bits.OnesCount64(y^b0[w+1])
		d1 += bits.OnesCount64(x^b1[w]) + bits.OnesCount64(y^b1[w+1])
		d2 += bits.OnesCount64(x^b2[w]) + bits.OnesCount64(y^b2[w+1])
		d3 += bits.OnesCount64(x^b3[w]) + bits.OnesCount64(y^b3[w+1])
	}
	if w < n {
		x := a[w]
		d0 += bits.OnesCount64(x ^ b0[w])
		d1 += bits.OnesCount64(x ^ b1[w])
		d2 += bits.OnesCount64(x ^ b2[w])
		d3 += bits.OnesCount64(x ^ b3[w])
	}
	return d0, d1, d2, d3
}
