package ga

import (
	"context"
	"fmt"
	"time"

	"dstress/internal/xrand"
)

// Params configures a search. The defaults are the ones the paper selected
// by simulating the search on a bit-counting fitness function: population
// 40, mutation probability 0.5, crossover probability 0.9.
type Params struct {
	PopulationSize int
	CrossoverProb  float64 // probability a parent pair is recombined
	MutationProb   float64 // probability an offspring is mutated
	// MutationPerGene is the per-gene change rate inside a mutated
	// offspring. Zero means 1/len(genome).
	MutationPerGene float64
	ElitismCount    int // best genomes copied unchanged each generation

	// ConvergenceSim stops the search when the mean pairwise population
	// similarity reaches this threshold (paper: 0.85).
	ConvergenceSim float64
	// ConvergeMinBest inhibits the similarity stop while the best fitness
	// is below this value: a population that homogenized without meeting
	// the objective keeps searching. Zero means no requirement; set it
	// below any achievable fitness to disable.
	ConvergeMinBest float64
	// UseConvergeMinBest enables the ConvergeMinBest gate (needed because
	// the zero value is a legitimate threshold).
	UseConvergeMinBest bool
	// MaxGenerations bounds the search length.
	MaxGenerations int
	// MaxDuration bounds wall-clock time, standing in for the paper's
	// two-week budget. Zero means unlimited. It is enforced through context
	// cancellation: a search that hits the budget stops and returns its
	// partial result with Result.Canceled set, exactly as an externally
	// cancelled context does.
	MaxDuration time.Duration
}

// DefaultParams returns the paper's GA configuration.
func DefaultParams() Params {
	return Params{
		PopulationSize: 40,
		CrossoverProb:  0.9,
		MutationProb:   0.5,
		ElitismCount:   2,
		ConvergenceSim: 0.85,
		MaxGenerations: 200,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.PopulationSize < 2:
		return fmt.Errorf("ga: PopulationSize = %d", p.PopulationSize)
	case p.CrossoverProb < 0 || p.CrossoverProb > 1:
		return fmt.Errorf("ga: CrossoverProb = %v", p.CrossoverProb)
	case p.MutationProb < 0 || p.MutationProb > 1:
		return fmt.Errorf("ga: MutationProb = %v", p.MutationProb)
	case p.ElitismCount < 0 || p.ElitismCount >= p.PopulationSize:
		return fmt.Errorf("ga: ElitismCount = %d", p.ElitismCount)
	case p.ConvergenceSim < 0 || p.ConvergenceSim > 1:
		return fmt.Errorf("ga: ConvergenceSim = %v", p.ConvergenceSim)
	case p.MaxGenerations < 1:
		return fmt.Errorf("ga: MaxGenerations = %d", p.MaxGenerations)
	}
	return nil
}

// Fitness evaluates one chromosome. Higher is better; to minimize a
// quantity, return its negation. Implementations are expected to average
// over repeated runs themselves when the underlying measurement is noisy
// (the paper uses ten runs per virus).
type Fitness func(g Genome) (float64, error)

// BatchFitness evaluates a whole generation at once and returns one fitness
// per genome, in order. It is the pluggable evaluation point: a serial
// adapter wraps a plain Fitness, and the farm package provides a worker-pool
// implementation that evaluates the batch in parallel on cloned servers.
// Implementations must honour ctx and return ctx.Err() when cancelled.
type BatchFitness func(ctx context.Context, gs []Genome) ([]float64, error)

// SerialBatch adapts a per-genome fitness function to the batch interface,
// evaluating in index order and checking for cancellation between genomes.
func SerialBatch(fitness Fitness) BatchFitness {
	return func(ctx context.Context, gs []Genome) ([]float64, error) {
		out := make([]float64, len(gs))
		for i, g := range gs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			f, err := fitness(g)
			if err != nil {
				return nil, err
			}
			out[i] = f
		}
		return out, nil
	}
}

// GenStats records one generation for convergence analysis.
type GenStats struct {
	Generation int
	Best       float64
	Mean       float64
	Similarity float64
}

// Result is the outcome of a search.
type Result struct {
	Best        Genome
	BestFitness float64
	// Population and Fitnesses hold the final generation, sorted by
	// descending fitness — the "40 worst-case patterns" of the paper's
	// figures.
	Population []Genome
	Fitnesses  []float64

	Generations     int
	Converged       bool
	FinalSimilarity float64
	// Canceled reports that the search was stopped early — context
	// cancellation or the MaxDuration budget — and the result holds the
	// best-so-far population rather than a finished search.
	Canceled bool
	History  []GenStats
}

// Engine runs one genetic search.
type Engine struct {
	params Params
	batch  BatchFitness
	rng    *xrand.Rand

	// OnGeneration, when non-nil, observes every generation's statistics as
	// they are recorded — progress reporting for long-running campaigns.
	// A search that runs to MaxGenerations without converging breeds and
	// evaluates one more offspring generation after the last OnGeneration
	// (and OnSnapshot): the final population the Result holds is that
	// generation, which no hook observes. With MaxGenerations G the batch
	// evaluator is called G+1 times, the initial population included.
	OnGeneration func(GenStats)

	// OnSnapshot, when non-nil, receives a resumable Snapshot at every
	// generation boundary, right after OnGeneration. The snapshot is an
	// independent copy; the receiver may retain or persist it. Capturing it
	// costs one population clone per generation, so the hook is only paid
	// for when set.
	OnSnapshot func(Snapshot)

	// Evaluations counts fitness calls, for the efficiency analysis.
	Evaluations int
}

// New builds an engine over a per-genome fitness function, evaluated
// serially.
func New(params Params, fitness Fitness, rng *xrand.Rand) (*Engine, error) {
	if fitness == nil {
		return nil, fmt.Errorf("ga: nil fitness")
	}
	return NewBatch(params, SerialBatch(fitness), rng)
}

// NewBatch builds an engine over a batch evaluator: each generation's
// offspring are handed to batch as one slice, enabling parallel evaluation.
func NewBatch(params Params, batch BatchFitness, rng *xrand.Rand) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if batch == nil {
		return nil, fmt.Errorf("ga: nil batch fitness")
	}
	if rng == nil {
		return nil, fmt.Errorf("ga: nil rng")
	}
	return &Engine{params: params, batch: batch, rng: rng}, nil
}

// Run executes the search from the given initial population (random
// chromosomes in the paper; a recorded population when resuming an
// interrupted search from the virus database). The slice must have exactly
// PopulationSize genomes.
func (e *Engine) Run(initial []Genome) (Result, error) {
	return e.RunContext(context.Background(), initial)
}

// RunContext is Run under a context. Cancellation — external or via the
// MaxDuration budget — does not discard the run: the search stops at the
// last fully evaluated generation and returns its best-so-far population
// and history with Result.Canceled set and a nil error. Only a cancellation
// that arrives before the initial population is evaluated, or a fitness
// error, yields an error.
func (e *Engine) RunContext(ctx context.Context, initial []Genome) (Result, error) {
	p := e.params
	if p.MaxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.MaxDuration)
		defer cancel()
	}
	if len(initial) != p.PopulationSize {
		return Result{}, fmt.Errorf("ga: initial population %d, want %d",
			len(initial), p.PopulationSize)
	}
	pop := make([]Genome, len(initial))
	for i, g := range initial {
		if g == nil {
			return Result{}, fmt.Errorf("ga: nil genome at %d", i)
		}
		pop[i] = g.Clone()
	}

	fits, err := e.batch(ctx, pop)
	if err != nil {
		return Result{}, err
	}
	e.Evaluations += len(pop)
	return e.evolve(ctx, pop, fits, 1, Result{}, false)
}

// Resume is ResumeContext under context.Background.
func (e *Engine) Resume(snap Snapshot) (Result, error) {
	return e.ResumeContext(context.Background(), snap)
}

// ResumeContext continues a search from a Snapshot captured by a previous
// engine's OnSnapshot hook. The engine must be configured with the same
// Params and fitness function as the original; its RNG is overwritten with
// the snapshot's recorded position, so the remaining generations replay the
// exact deterministic stream and the final Result is bit-identical to the
// uninterrupted run's.
func (e *Engine) ResumeContext(ctx context.Context, snap Snapshot) (Result, error) {
	p := e.params
	if p.MaxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.MaxDuration)
		defer cancel()
	}
	pop, err := snap.validate(p)
	if err != nil {
		return Result{}, err
	}
	fits := append([]float64(nil), snap.Fitnesses...)
	if err := e.rng.Restore(snap.RNG); err != nil {
		return Result{}, fmt.Errorf("ga: resuming: %w", err)
	}
	e.Evaluations = snap.Evaluations
	res := Result{History: append([]GenStats(nil), snap.History...)}
	return e.evolve(ctx, pop, fits, snap.Generation, res, true)
}

// evolve runs the generation loop from startGen over an already evaluated
// population. When resumed, the first iteration's statistics were already
// recorded by the original run (they ride in via res.History), so stats
// recording and the hooks are skipped for it; the convergence check, which
// consumes no randomness, is deterministically redone.
func (e *Engine) evolve(ctx context.Context, pop []Genome, fits []float64,
	startGen int, res Result, resumed bool) (Result, error) {
	p := e.params
	perGene := p.MutationPerGene
	if perGene == 0 {
		perGene = 1.5 / float64(pop[0].Len())
	}

	// Generation scratch, allocated once and recycled by capacity-preserving
	// truncation: populations are fixed-size, so after the first generation
	// the breeding loop allocates nothing but the genomes themselves. The
	// incoming slices are copied first so the ping-pong between pop and the
	// scratch arrays never clobbers a caller-owned backing array.
	n := len(pop)
	pop = append(make([]Genome, 0, n), pop...)
	fits = append(make([]float64, 0, n), fits...)
	popBuf := make([]Genome, 0, n)
	fitsBuf := make([]float64, 0, n)
	childBuf := make([]Genome, 0, n)
	weights := selectionWeights(n)

	for gen := startGen; gen <= p.MaxGenerations; gen++ {
		sortByFitness(pop, fits)
		sim := meanPairwiseSimilarity(pop)
		if !(resumed && gen == startGen) {
			st := GenStats{
				Generation: gen,
				Best:       fits[0],
				Mean:       mean(fits),
				Similarity: sim,
			}
			res.History = append(res.History, st)
			if e.OnGeneration != nil {
				e.OnGeneration(st)
			}
			if e.OnSnapshot != nil {
				snap, err := e.snapshot(gen, pop, fits, res.History)
				if err != nil {
					return Result{}, err
				}
				e.OnSnapshot(snap)
			}
		}
		res.Generations = gen
		res.FinalSimilarity = sim
		if sim >= p.ConvergenceSim &&
			(!p.UseConvergeMinBest || fits[0] >= p.ConvergeMinBest) {
			res.Converged = true
			break
		}
		if ctx.Err() != nil {
			res.Canceled = true
			break
		}

		next := popBuf[:0]
		nextFits := fitsBuf[:0]
		for i := 0; i < p.ElitismCount; i++ {
			next = append(next, pop[i].Clone())
			nextFits = append(nextFits, fits[i])
		}

		// Breed the full offspring set first, then evaluate it as one
		// batch. The genetic operators draw from e.rng in exactly the order
		// the serial engine did, so results are unchanged; only the fitness
		// calls move into the batch, where a farm can spread them over
		// workers.
		children := childBuf[:0]
		for len(next)+len(children) < len(pop) {
			a := pop[roulette(e.rng, weights)]
			b := pop[roulette(e.rng, weights)]
			var c1, c2 Genome
			if e.rng.Bool(p.CrossoverProb) {
				c1, c2 = a.Crossover(b, e.rng)
			} else {
				c1, c2 = a.Clone(), b.Clone()
			}
			for _, child := range []Genome{c1, c2} {
				if len(next)+len(children) >= len(pop) {
					break
				}
				if e.rng.Bool(p.MutationProb) {
					child.Mutate(e.rng, perGene)
				}
				children = append(children, child)
			}
		}
		cfits, err := e.batch(ctx, children)
		if err != nil {
			if ctx.Err() != nil {
				// Cancelled mid-generation: the half-evaluated offspring
				// are discarded and the last complete generation stands.
				res.Canceled = true
				break
			}
			return Result{}, err
		}
		e.Evaluations += len(children)
		childBuf = children
		// Ping-pong: the new population lives in the scratch arrays; the old
		// one's arrays become next generation's scratch.
		popBuf, fitsBuf = pop[:0], fits[:0]
		pop = append(next, children...)
		fits = append(nextFits, cfits...)
	}

	sortByFitness(pop, fits)
	res.Population = pop
	res.Fitnesses = fits
	res.Best = pop[0]
	res.BestFitness = fits[0]
	if res.FinalSimilarity == 0 && len(res.History) > 0 {
		res.FinalSimilarity = res.History[len(res.History)-1].Similarity
	}
	return res, nil
}

// selectionWeights returns rank-based roulette weights for a population
// already sorted by descending fitness: the best individual is selected
// roughly twice as often as the worst. Rank-based selection keeps the
// pressure independent of the fitness scale (raw CE counts span orders of
// magnitude across temperatures) and preserves diversity long enough for
// the similarity-based convergence criterion to be meaningful.
func selectionWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(2*n-i) / float64(n)
	}
	return w
}

func roulette(rng *xrand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

func sortByFitness(pop []Genome, fits []float64) {
	// Insertion sort: populations are small (40) and mostly sorted after
	// the first generations.
	for i := 1; i < len(pop); i++ {
		g, f := pop[i], fits[i]
		j := i - 1
		for j >= 0 && fits[j] < f {
			pop[j+1], fits[j+1] = pop[j], fits[j]
			j--
		}
		pop[j+1], fits[j+1] = g, f
	}
}

func meanPairwiseSimilarity(pop []Genome) float64 {
	if len(pop) < 2 {
		return 1
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

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RandomBitPopulation builds a first generation of uniform random bit
// genomes.
func RandomBitPopulation(size, bits int, rng *xrand.Rand) []Genome {
	pop := make([]Genome, size)
	for i := range pop {
		pop[i] = RandomBitGenome(bits, rng)
	}
	return pop
}

// RandomIntPopulation builds a first generation of uniform random integer
// genomes.
func RandomIntPopulation(size, genes, lo, hi int, rng *xrand.Rand) []Genome {
	pop := make([]Genome, size)
	for i := range pop {
		pop[i] = RandomIntGenome(genes, lo, hi, rng)
	}
	return pop
}
