package ga

import (
	"context"
	"fmt"

	"dstress/internal/xrand"
)

// Stepper runs one genetic search a generation at a time under external
// control. It exists for orchestrators — the island model in
// internal/islands — that need to interleave several searches in lockstep,
// inject migrants between generations, and screen offspring before paying
// for real evaluation. The Engine is a driver over a Stepper: breeding
// Need() offspring per generation, as the Engine does, reproduces an Engine
// run draw for draw, and the Engine's result differs only in leaving the
// extra final generation out of its history. Determinism holds within the
// Stepper protocol itself: the same params, RNG seed and fitness stream
// reproduce the same search bit-for-bit, and a Stepper restored from its
// Snapshot continues the exact stream.
//
// The call sequence per generation is:
//
//	children := st.Breed(n)            // n >= st.Need(), consumes RNG
//	fits, err := st.Evaluate(ctx, sub) // any subset, in order
//	st.Advance(sub, fits)              // elites + offspring, gen++
//
// Inject (migration) and Converged consume no randomness, so orchestrators
// may call them at any generation boundary without perturbing the stream.
type Stepper struct {
	params  Params
	batch   BatchFitness
	rng     *xrand.Rand
	perGene float64

	pop     []Genome
	fits    []float64
	gen     int
	evals   int
	history []GenStats

	// Generation scratch, recycled by capacity-preserving truncation so the
	// steady-state loop stops allocating: weights depend only on the
	// population size, childBuf backs the slice Breed returns, and
	// popBuf/fitsBuf ping-pong with pop/fits across Advance calls. None of
	// this touches the RNG, so recycling cannot perturb the stream.
	weights  []float64
	childBuf []Genome
	popBuf   []Genome
	fitsBuf  []float64
}

// NewStepper builds a stepped engine. Like NewBatch, the batch evaluator and
// RNG are mandatory and params are validated up front.
func NewStepper(params Params, batch BatchFitness, rng *xrand.Rand) (*Stepper, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if batch == nil {
		return nil, fmt.Errorf("ga: nil batch fitness")
	}
	if rng == nil {
		return nil, fmt.Errorf("ga: nil rng")
	}
	return &Stepper{params: params, batch: batch, rng: rng}, nil
}

// Start evaluates the initial population and records generation 1. It must
// be called exactly once, before any other stepping call, unless the stepper
// is restored from a Snapshot instead.
func (s *Stepper) Start(ctx context.Context, initial []Genome) (GenStats, error) {
	if s.gen != 0 {
		return GenStats{}, fmt.Errorf("ga: stepper already started")
	}
	if len(initial) != s.params.PopulationSize {
		return GenStats{}, fmt.Errorf("ga: initial population %d, want %d",
			len(initial), s.params.PopulationSize)
	}
	pop := make([]Genome, len(initial))
	for i, g := range initial {
		if g == nil {
			return GenStats{}, fmt.Errorf("ga: nil genome at %d", i)
		}
		pop[i] = g.Clone()
	}
	fits, err := s.batch(ctx, pop)
	if err != nil {
		return GenStats{}, err
	}
	s.evals += len(pop)
	s.pop, s.fits = pop, fits
	s.perGene = s.params.MutationPerGene
	if s.perGene == 0 {
		s.perGene = 1.5 / float64(pop[0].Len())
	}
	s.gen = 1
	return s.record(), nil
}

// Restore rebuilds the stepper from a Snapshot captured at a generation
// boundary, overwriting the RNG with the recorded position so the remaining
// generations replay the exact deterministic stream.
func (s *Stepper) Restore(snap Snapshot) error {
	if s.gen != 0 {
		return fmt.Errorf("ga: stepper already started")
	}
	pop, err := snap.validate(s.params)
	if err != nil {
		return err
	}
	if err := s.rng.Restore(snap.RNG); err != nil {
		return fmt.Errorf("ga: restoring: %w", err)
	}
	s.pop = pop
	s.fits = append([]float64(nil), snap.Fitnesses...)
	s.gen = snap.Generation
	s.evals = snap.Evaluations
	s.history = append([]GenStats(nil), snap.History...)
	s.perGene = s.params.MutationPerGene
	if s.perGene == 0 {
		s.perGene = 1.5 / float64(pop[0].Len())
	}
	sortByFitness(s.pop, s.fits)
	return nil
}

// Need returns how many offspring a generation consumes: the population size
// minus the elites carried over unchanged.
func (s *Stepper) Need() int { return s.params.PopulationSize - s.params.ElitismCount }

// Breed draws n offspring from the current population, consuming the RNG.
// Parents are selected by rank roulette over the sorted population; pairs
// are crossed with CrossoverProb and each child mutated with MutationProb.
// When n is odd the second child of the final pair is discarded before its
// mutation draw. n may exceed Need() (surrogate overbreeding); the caller
// chooses which offspring to evaluate.
//
// The returned slice aliases the stepper's internal brood buffer: it is
// valid until the next Breed call, which recycles the backing array. Callers
// that need the brood beyond that must copy the slice (the genomes
// themselves are never recycled).
func (s *Stepper) Breed(n int) []Genome {
	p := s.params
	if len(s.weights) != len(s.pop) {
		s.weights = selectionWeights(len(s.pop))
	}
	children := s.childBuf[:0]
	for len(children) < n {
		a := s.pop[roulette(s.rng, s.weights)]
		b := s.pop[roulette(s.rng, s.weights)]
		var c1, c2 Genome
		if s.rng.Bool(p.CrossoverProb) {
			c1, c2 = a.Crossover(b, s.rng)
		} else {
			c1, c2 = a.Clone(), b.Clone()
		}
		for _, child := range []Genome{c1, c2} {
			if len(children) >= n {
				break
			}
			if s.rng.Bool(p.MutationProb) {
				child.Mutate(s.rng, s.perGene)
			}
			children = append(children, child)
		}
	}
	s.childBuf = children
	return children
}

// Evaluate runs the batch evaluator over the given offspring, in order, and
// accounts the evaluations. It consumes no stepper RNG — evaluation noise
// comes from the farm's own split protocol.
func (s *Stepper) Evaluate(ctx context.Context, children []Genome) ([]float64, error) {
	fits, err := s.batch(ctx, children)
	if err != nil {
		return nil, err
	}
	s.evals += len(children)
	return fits, nil
}

// Advance closes the generation: the next population is the elites plus the
// evaluated offspring (which must number exactly Need()), sorted by
// descending fitness, and the new generation's statistics are recorded.
func (s *Stepper) Advance(children []Genome, fits []float64) (GenStats, error) {
	if err := s.advance(children, fits); err != nil {
		return GenStats{}, err
	}
	return s.record(), nil
}

// advance is Advance without the statistics: the population it leaves is
// unsorted.
func (s *Stepper) advance(children []Genome, fits []float64) error {
	if s.gen == 0 {
		return fmt.Errorf("ga: stepper not started")
	}
	if len(children) != s.Need() || len(fits) != len(children) {
		return fmt.Errorf("ga: advance with %d offspring / %d fitnesses, need %d",
			len(children), len(fits), s.Need())
	}
	next := s.popBuf[:0]
	nextFits := s.fitsBuf[:0]
	for i := 0; i < s.params.ElitismCount; i++ {
		next = append(next, s.pop[i].Clone())
		nextFits = append(nextFits, s.fits[i])
	}
	next = append(next, children...)
	nextFits = append(nextFits, fits...)
	// Ping-pong: the outgoing population's arrays become next generation's
	// scratch. Safe because every external view of the old population
	// (Emigrants, Snapshot, finalizers) clones or copies before this point.
	s.popBuf, s.fitsBuf = s.pop[:0], s.fits[:0]
	s.pop, s.fits = next, nextFits
	s.gen++
	return nil
}

// record sorts the population and appends the current generation's stats.
func (s *Stepper) record() GenStats {
	sortByFitness(s.pop, s.fits)
	st := GenStats{
		Generation: s.gen,
		Best:       s.fits[0],
		Mean:       mean(s.fits),
		Similarity: meanPairwiseSimilarity(s.pop),
	}
	s.history = append(s.history, st)
	return st
}

// Emigrants returns clones of the current top n genomes with their
// fitnesses — the elite migrants shipped to a neighbour island. It consumes
// no randomness.
func (s *Stepper) Emigrants(n int) ([]Genome, []float64) {
	if n > len(s.pop) {
		n = len(s.pop)
	}
	gs := make([]Genome, n)
	fs := make([]float64, n)
	for i := 0; i < n; i++ {
		gs[i] = s.pop[i].Clone()
		fs[i] = s.fits[i]
	}
	return gs, fs
}

// Inject replaces the worst len(gs) individuals with the given (already
// evaluated) genomes and re-sorts. Incoming genomes are cloned, so the
// sender and receiver never alias. It consumes no randomness, which keeps
// migration schedulable at any generation boundary without perturbing the
// RNG stream.
func (s *Stepper) Inject(gs []Genome, fits []float64) {
	n := len(gs)
	if n > len(s.pop) {
		n = len(s.pop)
	}
	base := len(s.pop) - n
	for i := 0; i < n; i++ {
		s.pop[base+i] = gs[i].Clone()
		s.fits[base+i] = fits[i]
	}
	sortByFitness(s.pop, s.fits)
}

// Converged reports whether the similarity stop criterion holds for the
// CURRENT population — including any migrants injected after the last
// Advance. Computing it lazily (rather than storing a flag at Advance time)
// makes the check identical when a search is resumed from a checkpoint
// taken after migration.
func (s *Stepper) Converged() bool {
	if s.gen == 0 {
		return false
	}
	return s.convergedAt(meanPairwiseSimilarity(s.pop))
}

// convergedAt is the stop criterion for the current population, given its
// similarity.
func (s *Stepper) convergedAt(sim float64) bool {
	return sim >= s.params.ConvergenceSim &&
		(!s.params.UseConvergeMinBest || s.fits[0] >= s.params.ConvergeMinBest)
}

// Snapshot captures the stepper at the current generation boundary,
// including any injected migrants. Restore on a fresh stepper with the same
// params and fitness stream continues bit-identically.
func (s *Stepper) Snapshot() (Snapshot, error) {
	if s.gen == 0 {
		return Snapshot{}, fmt.Errorf("ga: stepper not started")
	}
	snap := Snapshot{
		Generation:  s.gen,
		Population:  make([]GenomeRecord, len(s.pop)),
		Fitnesses:   append([]float64(nil), s.fits...),
		RNG:         s.rng.State(),
		Evaluations: s.evals,
		History:     append([]GenStats(nil), s.history...),
	}
	for i, g := range s.pop {
		rec, err := EncodeGenome(g)
		if err != nil {
			return Snapshot{}, err
		}
		snap.Population[i] = rec
	}
	return snap, nil
}

// Generation returns the index of the last completed generation (0 before
// Start).
func (s *Stepper) Generation() int { return s.gen }

// Evaluations returns the number of fitness calls so far.
func (s *Stepper) Evaluations() int { return s.evals }

// History returns the recorded per-generation statistics. The slice is the
// stepper's own; callers must not modify it.
func (s *Stepper) History() []GenStats { return s.history }

// Current returns the sorted population and fitnesses. Both slices are the
// stepper's own backing arrays; callers must not modify them.
func (s *Stepper) Current() ([]Genome, []float64) { return s.pop, s.fits }

// Best returns the current best genome and fitness.
func (s *Stepper) Best() (Genome, float64) { return s.pop[0], s.fits[0] }

// Similarity returns the mean pairwise similarity of the current
// population.
func (s *Stepper) Similarity() float64 { return meanPairwiseSimilarity(s.pop) }

// SortByFitness sorts a population and its fitnesses in place by descending
// fitness, with the engine's stable insertion order. Exported for
// orchestrators that merge populations across searches.
func SortByFitness(pop []Genome, fits []float64) { sortByFitness(pop, fits) }
