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
	"dstress/internal/xrand"
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
// engine parameters, operating point, determinism contract, island topology,
// population and every RNG stream come from the checkpoint, so the
// remaining generations replay the exact deterministic stream of the
// interrupted run. cfg.Workers may differ from the checkpoint's — farm
// results are bit-identical at any worker count — but a serial-protocol
// checkpoint (Workers 0) must stay serial.
func (f *Framework) RunSearchFrom(ctx context.Context, cfg SearchConfig,
	cp *Checkpoint) (*SearchResult, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	return f.runSearch(ctx, cfg, cp)
}

// runSearch is the one search driver: a nil cp starts a fresh search, any
// other continues the search cp holds. A classic search runs one ga.Engine;
// an island search (cfg.Islands, DESIGN.md §11) runs the islands model over
// K steppers. Both take their streams through splitStreams and emit their
// checkpoints through one ckptEmitter.
func (f *Framework) runSearch(ctx context.Context, cfg SearchConfig,
	cp *Checkpoint) (*SearchResult, error) {
	params, err := f.prologue(&cfg, cp)
	if err != nil {
		return nil, err
	}
	k := 1
	if cfg.Islands.Enabled() {
		k = cfg.Islands.Count
	}
	engRNGs, initial, roots, err := f.splitStreams(cfg, params.PopulationSize, k, cp)
	if err != nil {
		return nil, err
	}
	if cp == nil {
		// Database seeding replaces the first population's random
		// individuals; other islands stay random so the archipelago keeps
		// its diversity.
		if err := f.seedFromDB(cfg, initial[0]); err != nil {
			return nil, err
		}
	}
	batches, noise, err := f.searchBatches(cfg, roots)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	em := newCkptEmitter(cfg, cancel)
	base := Checkpoint{
		Experiment:  cfg.experimentKey(),
		Params:      params,
		Point:       cfg.Point,
		Determinism: cfg.Determinism,
		Workers:     cfg.Workers,
	}

	if !cfg.Islands.Enabled() {
		eng, err := ga.NewBatch(params, batches[0], engRNGs[0])
		if err != nil {
			return nil, err
		}
		eng.OnGeneration = cfg.OnGeneration
		if em != nil {
			eng.OnSnapshot = func(s ga.Snapshot) {
				c := base
				c.NoiseRNG, c.Engine = noise()[0], s
				em.take(&c)
			}
		}
		var res ga.Result
		if cp == nil {
			res, err = eng.RunContext(ctx, initial[0])
		} else {
			res, err = eng.ResumeContext(ctx, cp.Engine)
		}
		return f.finishSearch(cfg, em, res, eng.Evaluations, err)
	}

	model, err := islands.New(params, cfg.Islands, batches, engRNGs)
	if err != nil {
		return nil, err
	}
	model.OnGeneration = cfg.OnGeneration
	model.SetMetrics(cfg.IslandMetrics)
	if em != nil {
		model.AfterGeneration = func() {
			s, err := model.Snapshot()
			if err != nil {
				em.fail(fmt.Errorf("core: snapshotting %s: %w", base.Experiment, err))
				return
			}
			c := base
			c.Islands, c.IslandNoise = &s, noise()
			em.take(&c)
		}
	}
	var res islands.Result
	if cp == nil {
		res, err = model.Run(ctx, initial)
	} else {
		res, err = model.Resume(ctx, *cp.Islands)
	}
	return f.finishSearch(cfg, em, res.Result, res.Evaluations, err)
}

// prologue settles cfg and the engine parameters, then programs the
// framework for the search. A checkpoint is authoritative for the operating
// point, the determinism contract, the island topology and the parameters:
// the remaining generations must run under the exact configuration that
// produced it. It also settles the noise protocol into cfg.Workers.
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
		cfg.Islands = islands.Config{}
		if cp.Islands != nil {
			cfg.Islands = cp.Islands.Config
		}
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
	cfg.Islands = cfg.Islands.Normalize()
	if cfg.Islands.Enabled() {
		if err := cfg.Islands.Validate(params); err != nil {
			return ga.Params{}, err
		}
		if cfg.Workers < 1 {
			return ga.Params{}, fmt.Errorf("core: island search runs the farm noise protocol; set Workers >= 1")
		}
		if cp != nil && (len(cp.Islands.Islands) != cfg.Islands.Count ||
			len(cp.IslandNoise) != cfg.Islands.Count) {
			return ga.Params{}, fmt.Errorf("core: island checkpoint for %q holds %d islands / %d roots, config says %d",
				cp.Experiment, len(cp.Islands.Islands), len(cp.IslandNoise), cfg.Islands.Count)
		}
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
// order is part of the reproducible protocol: K engine streams, then K
// initial populations, then — under the farm noise protocol — K pool noise
// roots, island order throughout; a classic search is K = 1.
//
//	f.RNG ─┬─ split 1..K    → engine RNGs
//	       ├─ split K+1..2K → initial populations
//	       └─ split 2K+1..3K→ pool noise roots (Workers >= 1)
//
// The serial protocol (Workers 0) splits no root: it draws measurement
// noise from f.RNG itself. A resumed search takes the same splits, so the
// framework RNG ends where the uninterrupted run left it (the winner's
// re-measurement draws from it); its populations ride in the checkpoint
// instead, and the noise streams are rewound to their recorded positions.
// The engine streams are rewound by the engine's own restore.
func (f *Framework) splitStreams(cfg SearchConfig, size, k int, cp *Checkpoint) (
	engRNGs []*xrand.Rand, initial [][]ga.Genome, roots []*xrand.Rand, err error) {
	engRNGs = make([]*xrand.Rand, k)
	for i := range engRNGs {
		engRNGs[i] = f.RNG.Split()
	}
	initial = make([][]ga.Genome, k)
	for i := range initial {
		rng := f.RNG.Split()
		if cp == nil {
			initial[i] = cfg.Spec.NewPopulation(f, size, rng)
		}
	}
	var noise [][4]uint64
	if cp != nil {
		noise = cp.IslandNoise
		if cp.Islands == nil {
			noise = [][4]uint64{cp.NoiseRNG}
		}
	}
	if cfg.Workers < 1 {
		if cp != nil {
			if err := f.RNG.Restore(noise[0]); err != nil {
				return nil, nil, nil, fmt.Errorf("core: resuming %s: %w", cp.Experiment, err)
			}
		}
		return engRNGs, initial, nil, nil
	}
	roots = make([]*xrand.Rand, k)
	for i := range roots {
		roots[i] = f.RNG.Split()
		if cp != nil {
			if err := roots[i].Restore(noise[i]); err != nil {
				return nil, nil, nil, fmt.Errorf("core: resuming %s: %w", cp.Experiment, err)
			}
		}
	}
	return engRNGs, initial, roots, nil
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

// searchBatches builds one generation evaluator per noise root: a farm pool
// over cfg.Workers/K workers (at least one), wrapped in a fleet session when
// cfg asks for one. Without roots it builds the legacy serial loop. The
// returned noise function reads every noise stream's position, in island
// order — the pool roots in farm mode, the framework RNG in serial mode.
//
// Island searches do not consult the shared fitness cache: cache hits
// depend on what concurrent searches evaluated earlier and do not survive a
// restart, so cache-dependent results could not be bit-identical across
// kill-and-resume. The surrogate training window — which IS checkpointed —
// takes over the memoization role.
func (f *Framework) searchBatches(cfg SearchConfig, roots []*xrand.Rand) (
	[]ga.BatchFitness, func() [][4]uint64, error) {
	if roots == nil {
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
		noise := func() [][4]uint64 { return [][4]uint64{f.RNG.State()} }
		return []ga.BatchFitness{batch}, noise, nil
	}
	if cfg.Islands.Enabled() {
		cfg.Cache = nil
	}
	per := max(cfg.Workers/len(roots), 1)
	batches := make([]ga.BatchFitness, len(roots))
	states := make([]func() [4]uint64, len(roots))
	for i, root := range roots {
		pool, err := f.NewEvalPool(cfg, per, root)
		if err != nil {
			return nil, nil, err
		}
		batches[i], states[i] = pool.Batch(), pool.RootState
		if cfg.Fleet != nil {
			if len(cfg.FleetContext) == 0 {
				return nil, nil, fmt.Errorf("core: Fleet set without FleetContext")
			}
			// The session's root state is the pool's, so checkpoints are
			// unaffected.
			sess := cfg.Fleet.NewSession(cfg.FleetContext, pool)
			batches[i], states[i] = sess.Batch(), sess.RootState
		}
	}
	noise := func() [][4]uint64 {
		out := make([][4]uint64, len(states))
		for i, st := range states {
			out[i] = st()
		}
		return out
	}
	return batches, noise, nil
}

// finishSearch is the common tail of every search: settle the checkpoint
// emitter, re-measure the winner, record the population.
func (f *Framework) finishSearch(cfg SearchConfig, em *ckptEmitter,
	res ga.Result, evals int, runErr error) (*SearchResult, error) {
	if err := em.finish(res.Canceled, runErr); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return f.recordResult(cfg, res, evals)
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
