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

// Engine runs one genetic search to its end, driving a Stepper a generation
// at a time.
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
	return e.run(ctx, initial, nil)
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
	return e.run(ctx, nil, &snap)
}

// run drives a Stepper over the engine's RNG and evaluator: started from
// initial, or restored from snap when it is non-nil. A restored generation's
// statistics were recorded by the original run (they ride in the snapshot's
// history), so the hooks do not fire for it again; the convergence check,
// which consumes no randomness, is deterministically redone.
func (e *Engine) run(ctx context.Context, initial []Genome, snap *Snapshot) (Result, error) {
	p := e.params
	if p.MaxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.MaxDuration)
		defer cancel()
	}
	s := &Stepper{params: p, batch: e.batch, rng: e.rng, evals: e.Evaluations}
	defer func() { e.Evaluations = s.evals }()
	var sim float64
	if snap != nil {
		if err := s.Restore(*snap); err != nil {
			return Result{}, err
		}
		sim = s.Similarity()
	} else {
		st, err := s.Start(ctx, initial)
		if err != nil {
			return Result{}, err
		}
		if err := e.observe(s, st); err != nil {
			return Result{}, err
		}
		sim = st.Similarity
	}

	var res Result
	for {
		res.Generations = s.gen
		res.FinalSimilarity = sim
		if s.convergedAt(sim) {
			res.Converged = true
			break
		}
		if ctx.Err() != nil {
			res.Canceled = true
			break
		}
		children := s.Breed()
		fits, err := s.Evaluate(ctx, children)
		if err != nil {
			if ctx.Err() != nil {
				// Cancelled mid-generation: the half-evaluated offspring
				// are discarded and the last complete generation stands.
				res.Canceled = true
				break
			}
			return Result{}, err
		}
		if s.gen == p.MaxGenerations {
			// The final offspring generation becomes the result without
			// statistics of its own (see OnGeneration).
			if err := s.advance(children, fits); err != nil {
				return Result{}, err
			}
			sortByFitness(s.pop, s.fits)
			break
		}
		st, err := s.Advance(children, fits)
		if err != nil {
			return Result{}, err
		}
		if err := e.observe(s, st); err != nil {
			return Result{}, err
		}
		sim = st.Similarity
	}

	res.Population, res.Fitnesses = s.pop, s.fits
	res.Best, res.BestFitness = s.pop[0], s.fits[0]
	res.History = s.history
	if res.FinalSimilarity == 0 && len(res.History) > 0 {
		res.FinalSimilarity = res.History[len(res.History)-1].Similarity
	}
	return res, nil
}

// observe fires the hooks for a newly recorded generation.
func (e *Engine) observe(s *Stepper, st GenStats) error {
	if e.OnGeneration != nil {
		e.OnGeneration(st)
	}
	if e.OnSnapshot != nil {
		snap, err := s.Snapshot()
		if err != nil {
			return err
		}
		e.OnSnapshot(snap)
	}
	return nil
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
