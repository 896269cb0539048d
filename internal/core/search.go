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
	"dstress/internal/islands"
	"dstress/internal/virusdb"
)

// SearchConfig describes one synthesis run.
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

	// Islands selects the island-model search path (internal/islands): K
	// subpopulations in lockstep with deterministic ring migration and,
	// optionally, surrogate-assisted offspring screening. The zero value
	// keeps the classic single-population path untouched. Island searches
	// require Workers >= 1 (the farm noise protocol); Workers is the total
	// budget, split evenly across islands with at least one worker each.
	// The shared fitness Cache is not consulted in island mode — cache hits
	// would not survive kill-and-resume bit-identically; the checkpointed
	// surrogate takes over the memoization role. See DESIGN.md §11.
	Islands islands.Config
	// IslandMetrics, when non-nil, accumulates island/migration/surrogate
	// counters across searches — the daemon's /metrics islands section.
	IslandMetrics *islands.Metrics

	// OnCheckpoint receives a resumable Checkpoint every CheckpointEvery
	// generations (and, regardless of the interval, the final state of a
	// cancelled search, so a graceful drain never loses generations). The
	// checkpoint is an independent copy the receiver may persist.
	OnCheckpoint func(*Checkpoint)
	// CheckpointEvery is the emission interval in generations; <= 0 means
	// every generation.
	CheckpointEvery int
	// CheckpointPath, when non-empty, persists each emitted checkpoint to
	// this file with the crash-safe internal/checkpoint discipline and
	// removes the file when the search finishes uninterrupted. A failed
	// checkpoint write aborts the search: silently running on without
	// durability would defeat the point of asking for it.
	CheckpointPath string
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
	if cfg.Spec == nil {
		return nil, fmt.Errorf("core: nil spec")
	}
	params := cfg.GA
	if params.PopulationSize == 0 {
		params = ga.DefaultParams()
	}
	if cfg.MaxDuration > 0 {
		params.MaxDuration = cfg.MaxDuration
	}
	if cfg.Criterion == MaxUE && !params.UseConvergeMinBest {
		// A UE search must not stop on a population that merely agreed on
		// a strong CE pattern without ever triggering an uncorrectable
		// error.
		params.UseConvergeMinBest = true
		params.ConvergeMinBest = ueScale * 0.5
	}
	if err := f.Srv.SetDeterminism(cfg.Determinism); err != nil {
		return nil, err
	}
	if err := f.Apply(cfg.Point); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Prepare(f); err != nil {
		return nil, err
	}
	if cfg.Islands.Enabled() {
		return f.runIslandSearch(ctx, cfg, params)
	}

	// The RNG split order is part of the reproducible protocol: engine
	// stream, then initial population, then (farm mode only) the pool's
	// noise root. The legacy serial path consumes exactly the splits it
	// always did.
	engRNG := f.RNG.Split()
	initial := cfg.Spec.NewPopulation(f, params.PopulationSize, f.RNG.Split())
	if cfg.Resume && f.DB != nil {
		recs, err := f.DB.TopN(cfg.experimentKey(), params.PopulationSize)
		if err != nil {
			return nil, fmt.Errorf("core: resuming %s: %w", cfg.experimentKey(), err)
		}
		seeded := 0
		for _, rec := range recs {
			g, err := cfg.Spec.Decode(rec)
			if err != nil {
				return nil, fmt.Errorf("core: resuming %s: %w",
					cfg.experimentKey(), err)
			}
			initial[seeded] = g
			seeded++
		}
	}

	batch, noise, err := f.newBatch(cfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	eng, err := ga.NewBatch(params, batch, engRNG)
	if err != nil {
		return nil, err
	}
	eng.OnGeneration = cfg.OnGeneration

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	em, err := newCkptEmitter(cfg, params, cfg.Workers, noise, cancel)
	if err != nil {
		return nil, err
	}
	em.install(eng)

	res, err := eng.RunContext(ctx, initial)
	return f.finishSearch(cfg, eng, em, res, err)
}

// newBatch builds the generation evaluator for cfg: a worker farm over
// cloned servers for workers >= 1, the legacy serial loop otherwise. The
// second return reads the noise-stream position a checkpoint must record —
// the pool's root in farm mode, the framework RNG in serial mode.
func (f *Framework) newBatch(cfg SearchConfig, workers int) (
	ga.BatchFitness, func() [4]uint64, error) {
	if workers >= 1 {
		pool, err := f.NewEvalPool(cfg, workers, f.RNG.Split())
		if err != nil {
			return nil, nil, err
		}
		return f.fleetOrPool(cfg, pool)
	}
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

// fleetOrPool wraps the pool in a fleet session when cfg asks for one; the
// session's root state is the pool's, so checkpoints are unaffected.
func (f *Framework) fleetOrPool(cfg SearchConfig, pool *farm.Pool) (
	ga.BatchFitness, func() [4]uint64, error) {
	if cfg.Fleet == nil {
		return pool.Batch(), pool.RootState, nil
	}
	if len(cfg.FleetContext) == 0 {
		return nil, nil, fmt.Errorf("core: Fleet set without FleetContext")
	}
	sess := cfg.Fleet.NewSession(cfg.FleetContext, pool)
	return sess.Batch(), sess.RootState, nil
}

// finishSearch is the common tail of a fresh and a resumed search: flush or
// retire the checkpoint, re-measure the winner, record the population.
func (f *Framework) finishSearch(cfg SearchConfig, eng *ga.Engine,
	em *ckptEmitter, res ga.Result, runErr error) (*SearchResult, error) {
	if err := em.finish(res, runErr); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return f.recordResult(cfg, res, eng.Evaluations)
}

// recordResult re-measures the winner and records the final population in
// the database — the shared tail of the single-population and island paths.
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
