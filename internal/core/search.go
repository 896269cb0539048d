package core

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"dstress/internal/bitvec"

	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/fleet"
	"dstress/internal/ga"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

// SearchConfig describes one synthesis run: one GA population searching
// one spec under one criterion at one operating point (DESIGN.md §11 says
// why one population).
type SearchConfig struct {
	Spec      Spec
	Criterion Criterion
	Point     OperatingPoint
	// Determinism selects the dram evaluation contract every measurement of
	// the search runs under (zero = v1). It reaches the framework's server,
	// every farm worker clone and every fleet worker, and is recorded in
	// checkpoints, which are authoritative on resume — exactly like Point.
	Determinism dram.DeterminismVersion
	// GA holds the engine parameters; zero value means the paper defaults.
	GA ga.Params
	// Resume seeds the initial population with the strongest recorded
	// viruses of this experiment, continuing an interrupted search.
	Resume bool
	// MaxDuration caps wall-clock time (the paper's two-week budget). The
	// budget cancels the search; the partial result is returned (and
	// recorded in the database) with Canceled set.
	MaxDuration time.Duration

	// Workers >= 1 evaluates every generation on a farm of that many
	// workers, each owning a clone of the framework's server. Farm results
	// are bit-identical at any worker count (including 1) but follow a
	// different — equally deterministic — noise-stream assignment than the
	// legacy serial path, which Workers == 0 preserves.
	Workers int
	// Cache memoizes fitness values across generations and jobs (farm mode
	// only). Safe to share between concurrent searches: entries are keyed
	// by chromosome, spec, criterion and operating conditions.
	Cache *farm.Cache
	// Metrics, when non-nil, accumulates farm throughput counters.
	Metrics *farm.Metrics
	// Fleet, when non-nil (farm mode only, Workers >= 1), distributes each
	// generation's post-cache evaluations across the fleet's registered
	// remote workers, degrading to the local pool while none are live.
	// Results stay bit-identical to the purely local farm path: the fleet
	// session reuses the pool's serial prologue and only replaces dispatch.
	Fleet *fleet.Coordinator
	// FleetContext is the opaque evaluation-environment description shipped
	// to remote workers with every shard (the daemon ships its job request);
	// required when Fleet is set.
	FleetContext json.RawMessage
	// OnGeneration observes each generation's statistics as the search
	// runs (progress reporting).
	OnGeneration func(ga.GenStats)

	// OnCheckpoint receives a resumable Checkpoint every CheckpointEvery
	// generations (and, regardless of the interval, the final state of a
	// cancelled search, so a graceful drain never loses generations). The
	// checkpoint is an independent copy the receiver may persist.
	OnCheckpoint func(*Checkpoint)
	// CheckpointEvery is the emission interval in generations; <= 0 means
	// every generation.
	CheckpointEvery int
}

// experimentKey identifies the search in the virus database.
func (c SearchConfig) experimentKey() string {
	return fmt.Sprintf("%s/%s/%.0fC", c.Spec.Name(), c.Criterion, c.Point.TempC)
}

// SearchResult is the outcome of a synthesis run.
type SearchResult struct {
	ga.Result
	Experiment string
	// BestMeasurement re-measures the winning virus.
	BestMeasurement Measurement
	// Evaluations is the number of virus deployments performed.
	Evaluations int
}

// RunSearch executes the synthesis phase: it applies the operating point,
// prepares the experiment, runs the GA with the paper's parameters, records
// every final-population virus in the database, and returns the discovered
// population. This is the end-to-end DStress loop of Fig 4.
func (f *Framework) RunSearch(cfg SearchConfig) (*SearchResult, error) {
	return f.RunSearchContext(context.Background(), cfg)
}

// RunSearchContext is RunSearch under a context. Cancelling the context
// stops the search at the last fully evaluated generation; the partial
// population is still measured, recorded in the database (so a later run
// can resume from it, the paper's interrupted-search mechanism) and
// returned with Result.Canceled set.
func (f *Framework) RunSearchContext(ctx context.Context, cfg SearchConfig) (*SearchResult, error) {
	return f.runSearch(ctx, cfg, nil)
}

// RunSearchFrom continues a checkpointed search to completion. The spec,
// criterion and database come from cfg exactly as in RunSearchContext; the
// engine parameters, operating point, determinism contract, population and
// every RNG stream come from the checkpoint, so the remaining generations
// replay the exact deterministic stream of the interrupted run. cfg.Workers
// may differ from the checkpoint's — farm results are bit-identical at any
// worker count — but a serial-protocol checkpoint (Workers 0) must stay
// serial.
func (f *Framework) RunSearchFrom(ctx context.Context, cfg SearchConfig,
	cp *Checkpoint) (*SearchResult, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	return f.runSearch(ctx, cfg, cp)
}

// runSearch is the one search driver: a nil cp starts a fresh search, any
// other continues the search cp holds. Either way one ga.Engine runs the
// population, its streams come from splitStreams and its checkpoints go
// through one ckptEmitter.
func (f *Framework) runSearch(ctx context.Context, cfg SearchConfig,
	cp *Checkpoint) (*SearchResult, error) {
	params, err := f.prologue(&cfg, cp)
	if err != nil {
		return nil, err
	}
	engRNG, initial, root, err := f.splitStreams(cfg, params.PopulationSize, cp)
	if err != nil {
		return nil, err
	}
	if cp == nil {
		if err := f.seedFromDB(cfg, initial); err != nil {
			return nil, err
		}
	}
	batch, noise, err := f.searchBatch(cfg, root)
	if err != nil {
		return nil, err
	}
	eng, err := ga.NewBatch(params, batch, engRNG)
	if err != nil {
		return nil, err
	}
	eng.OnGeneration = cfg.OnGeneration
	em := newCkptEmitter(cfg)
	if em != nil {
		base := Checkpoint{
			Experiment:  cfg.experimentKey(),
			Params:      params,
			Point:       cfg.Point,
			Determinism: cfg.Determinism,
			Workers:     cfg.Workers,
		}
		eng.OnSnapshot = func(s ga.Snapshot) {
			c := base
			c.NoiseRNG, c.Engine = noise(), s
			em.take(&c)
		}
	}
	var res ga.Result
	if cp == nil {
		res, err = eng.RunContext(ctx, initial)
	} else {
		res, err = eng.ResumeContext(ctx, cp.Engine)
	}
	em.finish(res.Canceled, err)
	if err != nil {
		return nil, err
	}
	return f.recordResult(cfg, res, eng.Evaluations)
}

// prologue settles cfg and the engine parameters, then programs the
// framework for the search. A checkpoint is authoritative for the operating
// point, the determinism contract and the parameters: the remaining
// generations must run under the exact configuration that produced it. It also settles the noise protocol into cfg.Workers.
func (f *Framework) prologue(cfg *SearchConfig, cp *Checkpoint) (ga.Params, error) {
	if cfg.Spec == nil {
		return ga.Params{}, fmt.Errorf("core: nil spec")
	}
	params := cfg.GA
	if cp == nil {
		if params.PopulationSize == 0 {
			params = ga.DefaultParams()
		}
		if cfg.Criterion == MaxUE && !params.UseConvergeMinBest {
			// A UE search must not stop on a population that merely agreed
			// on a strong CE pattern without ever triggering an
			// uncorrectable error.
			params.UseConvergeMinBest = true
			params.ConvergeMinBest = ueScale * 0.5
		}
	} else {
		params = cp.Params
		cfg.Point, cfg.Determinism = cp.Point, cp.Determinism
		if key := cfg.experimentKey(); key != cp.Experiment {
			return ga.Params{}, fmt.Errorf("core: checkpoint is for %q, config describes %q",
				cp.Experiment, key)
		}
		if cp.Workers >= 1 && cfg.Workers < 1 {
			cfg.Workers = cp.Workers
		}
		if cp.Workers < 1 && cfg.Workers >= 1 {
			return ga.Params{}, fmt.Errorf("core: %s was checkpointed under the serial "+
				"noise protocol; resume with Workers 0", cp.Experiment)
		}
	}
	if cfg.MaxDuration > 0 {
		params.MaxDuration = cfg.MaxDuration // a resumed leg gets a fresh budget
	}
	if err := f.Srv.SetDeterminism(cfg.Determinism); err != nil {
		return ga.Params{}, err
	}
	if err := f.Apply(cfg.Point); err != nil {
		return ga.Params{}, err
	}
	if err := cfg.Spec.Prepare(f); err != nil {
		return ga.Params{}, err
	}
	return params, nil
}

// splitStreams takes a search's streams off the framework RNG. The split
// order is part of the reproducible protocol: the engine stream, then the
// initial population, then — under the farm noise protocol — the pool
// noise root.
//
//	f.RNG ─┬─ split 1 → engine RNG
//	       ├─ split 2 → initial population
//	       └─ split 3 → pool noise root (Workers >= 1)
//
// The serial protocol (Workers 0) splits no root: it draws measurement
// noise from f.RNG itself. A resumed search takes the same splits, so the
// framework RNG ends where the uninterrupted run left it (the winner's
// re-measurement draws from it); its population rides in the checkpoint
// instead, and the noise stream is rewound to its recorded position. The
// engine stream is rewound by the engine's own restore.
func (f *Framework) splitStreams(cfg SearchConfig, size int, cp *Checkpoint) (
	engRNG *xrand.Rand, initial []ga.Genome, root *xrand.Rand, err error) {
	engRNG = f.RNG.Split()
	popRNG := f.RNG.Split()
	if cp == nil {
		initial = cfg.Spec.NewPopulation(f, size, popRNG)
	}
	noise := f.RNG // the serial protocol draws noise from f.RNG itself
	if cfg.Workers >= 1 {
		root = f.RNG.Split()
		noise = root
	}
	if cp != nil {
		if err := noise.Restore(cp.NoiseRNG); err != nil {
			return nil, nil, nil, fmt.Errorf("core: resuming %s: %w", cp.Experiment, err)
		}
	}
	return engRNG, initial, root, nil
}

// seedFromDB replaces the first individuals of pop with the strongest
// recorded viruses of the experiment when cfg.Resume asks for it.
func (f *Framework) seedFromDB(cfg SearchConfig, pop []ga.Genome) error {
	if !cfg.Resume || f.DB == nil {
		return nil
	}
	recs, err := f.DB.TopN(cfg.experimentKey(), len(pop))
	if err != nil {
		return fmt.Errorf("core: resuming %s: %w", cfg.experimentKey(), err)
	}
	for i, rec := range recs {
		g, err := cfg.Spec.Decode(rec)
		if err != nil {
			return fmt.Errorf("core: resuming %s: %w", cfg.experimentKey(), err)
		}
		pop[i] = g
	}
	return nil
}

// searchBatch builds the generation evaluator: a farm pool of cfg.Workers
// workers over the noise root, wrapped in a fleet session when cfg asks for
// one. Without a root it builds the legacy serial loop. The returned noise
// function reads the noise stream's position: the pool root in farm mode,
// the framework RNG in serial mode.
func (f *Framework) searchBatch(cfg SearchConfig, root *xrand.Rand) (
	ga.BatchFitness, func() [4]uint64, error) {
	if root == nil {
		batch := ga.SerialBatch(func(g ga.Genome) (float64, error) {
			if err := cfg.Spec.Deploy(f, g); err != nil {
				return 0, err
			}
			m, err := f.Measure()
			if err != nil {
				return 0, err
			}
			return cfg.Criterion.Fitness(m), nil
		})
		return batch, f.RNG.State, nil
	}
	pool, err := f.NewEvalPool(cfg, cfg.Workers, root)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Fleet == nil {
		return pool.Batch(), pool.RootState, nil
	}
	if len(cfg.FleetContext) == 0 {
		return nil, nil, fmt.Errorf("core: Fleet set without FleetContext")
	}
	// The session's root state is the pool's, so checkpoints are unaffected.
	sess := cfg.Fleet.NewSession(cfg.FleetContext, pool)
	return sess.Batch(), sess.RootState, nil
}

// recordResult re-measures the winner and records the final population in
// the database.
func (f *Framework) recordResult(cfg SearchConfig, res ga.Result,
	evals int) (*SearchResult, error) {
	out := &SearchResult{
		Result:      res,
		Experiment:  cfg.experimentKey(),
		Evaluations: evals,
	}

	// Re-deploy and re-measure the winner for the full measurement record.
	if err := cfg.Spec.Deploy(f, res.Best); err != nil {
		return nil, err
	}
	best, err := f.Measure()
	if err != nil {
		return nil, err
	}
	out.BestMeasurement = best

	if f.DB != nil {
		recs := make([]virusdb.Record, 0, len(res.Population))
		for i, g := range res.Population {
			rec := virusdb.Record{
				Experiment: cfg.experimentKey(),
				Fitness:    res.Fitnesses[i],
				Generation: res.Generations,
				TempC:      cfg.Point.TempC,
				TREFP:      cfg.Point.TREFP,
				VDD:        cfg.Point.VDD,
			}
			switch cfg.Criterion {
			case MaxUE:
				rec.UEFrac = UEFracOf(res.Fitnesses[i])
			default:
				rec.MeanCE = res.Fitnesses[i]
			}
			cfg.Spec.Encode(g, &rec)
			recs = append(recs, rec)
		}
		if err := f.DB.Append(recs...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PopulationBits exposes the final population as bit vectors (for the
// figure-style per-bit reports); it returns nil for integer genomes.
func (r *SearchResult) PopulationBits() []string {
	var out []string
	for _, g := range r.Population {
		bg, ok := g.(*ga.BitGenome)
		if !ok {
			return nil
		}
		out = append(out, bg.Bits.BitString())
	}
	return out
}

// ConsensusBits returns the per-position majority vote of a bit-genome
// population — the stable core of the discovered patterns, with the
// unconstrained drifting bits voted out. The paper's cross-temperature
// comparison (Fig 8b) is a population-level statement; the consensus is
// the right object to compare across searches. Returns nil for integer
// genomes or an empty population.
func (r *SearchResult) ConsensusBits() *bitvec.Vec {
	if len(r.Population) == 0 {
		return nil
	}
	first, ok := r.Population[0].(*ga.BitGenome)
	if !ok {
		return nil
	}
	n := first.Bits.Len()
	ones := make([]int, n)
	for _, g := range r.Population {
		bg := g.(*ga.BitGenome)
		for i := 0; i < n; i++ {
			if bg.Bits.Get(i) {
				ones[i]++
			}
		}
	}
	out := bitvec.New(n)
	for i, c := range ones {
		if 2*c >= len(r.Population) {
			out.Set(i, true)
		}
	}
	return out
}
