// Package ga implements the genetic-algorithm search engine of DStress.
// Chromosomes encode data patterns (binary genomes, 64 bits up to 512
// KBytes) or memory-access coefficients (bounded integer genomes). The
// engine follows the paper's configuration: population 40, crossover
// probability 0.9, mutation probability 0.5, fitness-proportional selection
// with elitism, and convergence declared when the mean pairwise similarity
// of the population — Sokal–Michener for binary genomes, weighted Jaccard
// for integer genomes — exceeds a threshold (0.85).
package ga

import (
	"fmt"

	"dstress/internal/bitvec"
	"dstress/internal/similarity"
	"dstress/internal/xrand"
)

// Genome is one chromosome. Implementations must be self-contained values:
// Clone yields an independent copy, and the genetic operators never mutate
// their receivers' arguments.
type Genome interface {
	// Clone returns a deep copy.
	Clone() Genome
	// Mutate flips/perturbs genes in place; each gene changes with
	// probability perGene, and at least one gene always changes.
	Mutate(rng *xrand.Rand, perGene float64)
	// Crossover combines the receiver and other into two offspring using
	// two-point crossover. It panics if the genomes are incompatible.
	Crossover(other Genome, rng *xrand.Rand) (Genome, Genome)
	// SimilarityTo returns the chromosome-similarity in [0,1].
	SimilarityTo(other Genome) float64
	// Len returns the number of genes.
	Len() int
}

// BitGenome is a binary chromosome backed by a bit vector.
type BitGenome struct {
	Bits *bitvec.Vec
}

// NewBitGenome wraps a bit vector.
func NewBitGenome(v *bitvec.Vec) *BitGenome { return &BitGenome{Bits: v} }

// RandomBitGenome samples a uniform random chromosome of n bits, as the
// paper does for the first generation.
func RandomBitGenome(n int, rng *xrand.Rand) *BitGenome {
	return &BitGenome{Bits: bitvec.Random(n, 0.5, rng)}
}

// Clone implements Genome.
func (g *BitGenome) Clone() Genome { return &BitGenome{Bits: g.Bits.Clone()} }

// Len implements Genome.
func (g *BitGenome) Len() int { return g.Bits.Len() }

// Mutate implements Genome.
func (g *BitGenome) Mutate(rng *xrand.Rand, perGene float64) {
	n := g.Bits.Len()
	if n == 0 {
		return
	}
	// One Bool(perGene) draw per bit, flipped in the packed words.
	if rng.FlipBools(g.Bits.Words(), n, perGene) == 0 {
		g.Bits.Flip(rng.Intn(n))
	}
}

// Crossover implements Genome (two-point).
func (g *BitGenome) Crossover(other Genome, rng *xrand.Rand) (Genome, Genome) {
	o, ok := other.(*BitGenome)
	if !ok || o.Bits.Len() != g.Bits.Len() {
		panic("ga: incompatible genomes in crossover")
	}
	n := g.Bits.Len()
	a, b := g.Bits.Clone(), o.Bits.Clone()
	if n < 2 {
		return &BitGenome{Bits: a}, &BitGenome{Bits: b}
	}
	p1, p2 := rng.Intn(n), rng.Intn(n)
	if p1 > p2 {
		p1, p2 = p2, p1
	}
	a.SwapRange(b, p1, p2) // swap the middle segment [p1, p2)
	return &BitGenome{Bits: a}, &BitGenome{Bits: b}
}

// SimilarityTo implements Genome using the Sokal–Michener function.
func (g *BitGenome) SimilarityTo(other Genome) float64 {
	o, ok := other.(*BitGenome)
	if !ok {
		panic("ga: incompatible genomes in similarity")
	}
	s, err := similarity.SokalMichener(g.Bits, o.Bits)
	if err != nil {
		panic(err)
	}
	return s
}

// String renders short genomes as bit strings.
func (g *BitGenome) String() string { return g.Bits.String() }

// IntGenome is a chromosome of bounded integers, used for the access-
// coefficient template (a_i, b_i ∈ [0, 20]).
type IntGenome struct {
	Vals   []int
	Lo, Hi int // inclusive bounds of every gene
}

// NewIntGenome builds a bounded integer genome, validating the bounds.
func NewIntGenome(vals []int, lo, hi int) (*IntGenome, error) {
	if hi < lo {
		return nil, fmt.Errorf("ga: bounds [%d,%d]", lo, hi)
	}
	for i, v := range vals {
		if v < lo || v > hi {
			return nil, fmt.Errorf("ga: gene %d = %d outside [%d,%d]",
				i, v, lo, hi)
		}
	}
	return &IntGenome{Vals: vals, Lo: lo, Hi: hi}, nil
}

// RandomIntGenome samples n uniform genes in [lo, hi].
func RandomIntGenome(n, lo, hi int, rng *xrand.Rand) *IntGenome {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = rng.IntRange(lo, hi)
	}
	return &IntGenome{Vals: vals, Lo: lo, Hi: hi}
}

// Clone implements Genome.
func (g *IntGenome) Clone() Genome {
	return &IntGenome{Vals: append([]int(nil), g.Vals...), Lo: g.Lo, Hi: g.Hi}
}

// Len implements Genome.
func (g *IntGenome) Len() int { return len(g.Vals) }

// Mutate implements Genome: mutated genes are re-sampled uniformly.
func (g *IntGenome) Mutate(rng *xrand.Rand, perGene float64) {
	if len(g.Vals) == 0 {
		return
	}
	changed := false
	for i := range g.Vals {
		if rng.Bool(perGene) {
			g.Vals[i] = rng.IntRange(g.Lo, g.Hi)
			changed = true
		}
	}
	if !changed {
		g.Vals[rng.Intn(len(g.Vals))] = rng.IntRange(g.Lo, g.Hi)
	}
}

// Crossover implements Genome (two-point).
func (g *IntGenome) Crossover(other Genome, rng *xrand.Rand) (Genome, Genome) {
	o, ok := other.(*IntGenome)
	if !ok || len(o.Vals) != len(g.Vals) {
		panic("ga: incompatible genomes in crossover")
	}
	a := g.Clone().(*IntGenome)
	b := o.Clone().(*IntGenome)
	n := len(g.Vals)
	if n < 2 {
		return a, b
	}
	p1, p2 := rng.Intn(n), rng.Intn(n)
	if p1 > p2 {
		p1, p2 = p2, p1
	}
	for i := p1; i < p2; i++ {
		a.Vals[i], b.Vals[i] = b.Vals[i], a.Vals[i]
	}
	return a, b
}

// SimilarityTo implements Genome using the weighted Jaccard similarity.
func (g *IntGenome) SimilarityTo(other Genome) float64 {
	o, ok := other.(*IntGenome)
	if !ok {
		panic("ga: incompatible genomes in similarity")
	}
	s, err := similarity.WeightedJaccardInts(g.Vals, o.Vals)
	if err != nil {
		panic(err)
	}
	return s
}

// meanPairwiseSimilarity is the mean SimilarityTo over the pairs (i, j),
// i < j, summed in that order. A population of bit genomes goes to
// similarity.MeanPairwiseBits, which gives the same float.
func meanPairwiseSimilarity(pop []Genome) float64 {
	if len(pop) < 2 {
		return 1
	}
	if vs := bitVecs(pop); vs != nil {
		s, err := similarity.MeanPairwiseBits(vs)
		if err != nil {
			panic(err)
		}
		return s
	}
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

// bitVecs returns the bit vectors of a population of bit genomes, or nil if
// any member is another kind.
func bitVecs(pop []Genome) []*bitvec.Vec {
	vs := make([]*bitvec.Vec, len(pop))
	for i, g := range pop {
		b, ok := g.(*BitGenome)
		if !ok {
			return nil
		}
		vs[i] = b.Bits
	}
	return vs
}
