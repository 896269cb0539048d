package core

import (
	"context"
	"fmt"

	"dstress/internal/checkpoint"
	"dstress/internal/ga"
	"dstress/internal/islands"
	"dstress/internal/xrand"
)

// This file runs searches through the island-model orchestrator
// (internal/islands) when SearchConfig.Islands asks for it.
//
// RNG split tree. The island path derives all streams from the framework
// RNG in a fixed order — K engine streams, then K initial populations, then
// K farm noise roots, island-index order throughout:
//
//	f.RNG ─┬─ split 1..K    → island engine RNGs
//	       ├─ split K+1..2K → island initial populations
//	       └─ split 2K+1..3K→ island pool noise roots
//
// The order differs from the single-population protocol (engine, initial,
// root) by design: island searches are their own deterministic protocol,
// reproducible against themselves at any worker or fleet node count and
// across kill-and-resume, not draw-compatible with a single-population run.
//
// Cache. Island searches do not consult the shared fitness cache: cache
// hits depend on what concurrent searches evaluated earlier and do not
// survive a restart, so cache-dependent results could not be bit-identical
// across kill-and-resume. The surrogate training window — which IS
// checkpointed — takes over the memoization role.
func (f *Framework) runIslandSearch(ctx context.Context, cfg SearchConfig,
	params ga.Params) (*SearchResult, error) {
	icfg := cfg.Islands.Normalize()
	if err := icfg.Validate(params); err != nil {
		return nil, err
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("core: island search runs the farm noise protocol; set Workers >= 1")
	}
	k := icfg.Count

	engRNGs := make([]*xrand.Rand, k)
	for i := range engRNGs {
		engRNGs[i] = f.RNG.Split()
	}
	initial := make([][]ga.Genome, k)
	for i := range initial {
		initial[i] = cfg.Spec.NewPopulation(f, params.PopulationSize, f.RNG.Split())
	}
	if cfg.Resume && f.DB != nil {
		// Database seeding replaces island 0's random individuals; the other
		// islands stay random so the archipelago keeps its diversity.
		recs, err := f.DB.TopN(cfg.experimentKey(), params.PopulationSize)
		if err != nil {
			return nil, fmt.Errorf("core: resuming %s: %w", cfg.experimentKey(), err)
		}
		seeded := 0
		for _, rec := range recs {
			g, err := cfg.Spec.Decode(rec)
			if err != nil {
				return nil, fmt.Errorf("core: resuming %s: %w", cfg.experimentKey(), err)
			}
			initial[0][seeded] = g
			seeded++
		}
	}
	roots := make([]*xrand.Rand, k)
	for i := range roots {
		roots[i] = f.RNG.Split()
	}

	batches, noise, err := f.islandBatches(cfg, k, roots)
	if err != nil {
		return nil, err
	}
	model, err := islands.New(params, icfg, batches, engRNGs)
	if err != nil {
		return nil, err
	}
	model.OnGeneration = cfg.OnGeneration
	model.SetMetrics(cfg.IslandMetrics)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	em, err := newIslandEmitter(cfg, params, cfg.Workers, noise, cancel, model)
	if err != nil {
		return nil, err
	}

	res, err := model.Run(ctx, initial)
	return f.finishIslands(cfg, em, res, err)
}

// resumeIslandSearch continues a checkpointed island search. The archipelago
// config, engine params, operating point, determinism contract, every
// island's population/RNG and every noise root come from the checkpoint.
func (f *Framework) resumeIslandSearch(ctx context.Context, cfg SearchConfig,
	cp *Checkpoint) (*SearchResult, error) {
	snap := cp.Islands
	icfg := snap.Config.Normalize()
	cfg.Islands = icfg
	cfg.Point = cp.Point
	cfg.Determinism = cp.Determinism
	if key := cfg.experimentKey(); key != cp.Experiment {
		return nil, fmt.Errorf("core: checkpoint is for %q, config describes %q",
			cp.Experiment, key)
	}
	params := cp.Params
	if cfg.MaxDuration > 0 {
		params.MaxDuration = cfg.MaxDuration
	}
	k := icfg.Count
	if len(snap.Islands) != k || len(cp.IslandNoise) != k {
		return nil, fmt.Errorf("core: island checkpoint for %q holds %d islands / %d roots, config says %d",
			cp.Experiment, len(snap.Islands), len(cp.IslandNoise), k)
	}
	if err := f.Srv.SetDeterminism(cfg.Determinism); err != nil {
		return nil, err
	}
	if err := f.Apply(cp.Point); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Prepare(f); err != nil {
		return nil, err
	}

	// Mirror the fresh run's split tree so the framework RNG ends where the
	// uninterrupted run would have it; engine and noise streams are then
	// rewound to their checkpointed positions.
	engRNGs := make([]*xrand.Rand, k)
	for i := range engRNGs {
		engRNGs[i] = f.RNG.Split() // position restored by stepper Restore
	}
	for i := 0; i < k; i++ {
		_ = f.RNG.Split() // initial populations, carried by the checkpoint
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = cp.Workers
	}
	if workers < 1 {
		workers = 1
	}
	cfg.Workers = workers
	roots := make([]*xrand.Rand, k)
	for i := range roots {
		roots[i] = f.RNG.Split()
		if err := roots[i].Restore(cp.IslandNoise[i]); err != nil {
			return nil, fmt.Errorf("core: resuming %s island %d: %w", cp.Experiment, i, err)
		}
	}

	batches, noise, err := f.islandBatches(cfg, k, roots)
	if err != nil {
		return nil, err
	}
	model, err := islands.New(params, icfg, batches, engRNGs)
	if err != nil {
		return nil, err
	}
	model.OnGeneration = cfg.OnGeneration
	model.SetMetrics(cfg.IslandMetrics)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	em, err := newIslandEmitter(cfg, params, workers, noise, cancel, model)
	if err != nil {
		return nil, err
	}

	res, err := model.Resume(ctx, *snap)
	return f.finishIslands(cfg, em, res, err)
}

// islandBatches builds one evaluator per island: a farm pool (wrapped in a
// fleet session when configured) over cfg.Workers/K workers each, at least
// one. The shared fitness cache is stripped — see the cache note above. The
// returned noise function reads every island root, in island order.
func (f *Framework) islandBatches(cfg SearchConfig, k int, roots []*xrand.Rand) (
	[]ga.BatchFitness, func() [][4]uint64, error) {
	per := cfg.Workers / k
	if per < 1 {
		per = 1
	}
	poolCfg := cfg
	poolCfg.Cache = nil
	batches := make([]ga.BatchFitness, k)
	states := make([]func() [4]uint64, k)
	for i := 0; i < k; i++ {
		pool, err := f.NewEvalPool(poolCfg, per, roots[i])
		if err != nil {
			return nil, nil, err
		}
		batch, state, err := f.fleetOrPool(poolCfg, pool)
		if err != nil {
			return nil, nil, err
		}
		batches[i], states[i] = batch, state
	}
	noise := func() [][4]uint64 {
		out := make([][4]uint64, k)
		for i, st := range states {
			out[i] = st()
		}
		return out
	}
	return batches, noise, nil
}

// islandEmitter is the ckptEmitter counterpart for island searches: it
// builds a Checkpoint carrying the archipelago snapshot and all island
// noise roots after every closed generation, persists/forwards it on the
// configured interval, and keeps the same failure and graceful-drain
// semantics.
type islandEmitter struct {
	cfg        SearchConfig
	params     ga.Params
	workers    int
	noise      func() [][4]uint64
	file       *checkpoint.File
	every      int
	cancel     context.CancelFunc
	model      *islands.Model
	last       *Checkpoint
	emittedGen int
	err        error
}

// newIslandEmitter returns nil when cfg requests no checkpointing, and
// installs itself as the model's AfterGeneration hook otherwise.
func newIslandEmitter(cfg SearchConfig, params ga.Params, workers int,
	noise func() [][4]uint64, cancel context.CancelFunc,
	model *islands.Model) (*islandEmitter, error) {
	if cfg.OnCheckpoint == nil && cfg.CheckpointPath == "" {
		return nil, nil
	}
	em := &islandEmitter{
		cfg:     cfg,
		params:  params,
		workers: workers,
		noise:   noise,
		every:   cfg.CheckpointEvery,
		cancel:  cancel,
		model:   model,
	}
	if em.every <= 0 {
		em.every = 1
	}
	if cfg.CheckpointPath != "" {
		file, err := checkpoint.Open(cfg.CheckpointPath, checkpoint.DefaultKeep)
		if err != nil {
			return nil, err
		}
		em.file = file
	}
	model.AfterGeneration = em.afterGeneration
	return em, nil
}

func (em *islandEmitter) afterGeneration() {
	if em.err != nil {
		return
	}
	snap, err := em.model.Snapshot()
	if err != nil {
		em.err = fmt.Errorf("core: snapshotting %s: %w", em.cfg.experimentKey(), err)
		em.cancel()
		return
	}
	cp := &Checkpoint{
		Experiment:  em.cfg.experimentKey(),
		Params:      em.params,
		Point:       em.cfg.Point,
		Determinism: em.cfg.Determinism,
		Workers:     em.workers,
		Islands:     &snap,
		IslandNoise: em.noise(),
	}
	em.last = cp
	if snap.Generation%em.every == 0 {
		em.emit(cp)
	}
}

func (em *islandEmitter) emit(cp *Checkpoint) {
	if em.file != nil {
		if err := em.file.Save(cp); err != nil {
			em.err = fmt.Errorf("core: checkpointing %s: %w", cp.Experiment, err)
			em.cancel()
			return
		}
	}
	if em.cfg.OnCheckpoint != nil {
		em.cfg.OnCheckpoint(cp)
	}
	em.emittedGen = cp.Islands.Generation
}

// finish mirrors ckptEmitter.finish for the island result.
func (em *islandEmitter) finish(res islands.Result, runErr error) error {
	if em == nil {
		return nil
	}
	if em.err != nil {
		return em.err
	}
	if runErr != nil {
		return nil
	}
	if res.Canceled {
		if em.last != nil && em.last.Islands.Generation > em.emittedGen {
			if em.emit(em.last); em.err != nil {
				return em.err
			}
		}
		return nil
	}
	if em.file != nil {
		return em.file.Remove()
	}
	return nil
}

// finishIslands settles the emitter and records the merged result exactly
// like a single-population search.
func (f *Framework) finishIslands(cfg SearchConfig, em *islandEmitter,
	res islands.Result, runErr error) (*SearchResult, error) {
	if err := em.finish(res, runErr); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return f.recordResult(cfg, res.Result, res.Evaluations)
}
