package core

import (
	"fmt"
	"sync"

	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/xrand"
)

// workerPrepSeed seeds every evaluation worker's framework RNG. The seed is
// shared on purpose: a spec that ever consumed preparation randomness would
// still leave every worker in the same state, which is what determinism
// across worker counts requires. (Today's specs consume none.)
const workerPrepSeed = 0xD57E55

// condKey identifies the operating conditions a fitness value was measured
// under, scoping memoized entries in a shared cache. Everything the
// measurement depends on beyond the chromosome goes in: spec, criterion,
// operating point, averaging count, target MCU, the device geometry seed
// material (via the server config's per-MCU seeds) and the determinism
// contract — v1 and v2 draw different noise for the same chromosome.
func (f *Framework) condKey(cfg SearchConfig) string {
	scfg := f.Srv.Config()
	return fmt.Sprintf("%s|%s|t%.3f|p%.6f|v%.4f|n%d|m%d|s%d|r%d|d%s",
		cfg.Spec.Name(), cfg.Criterion, cfg.Point.TempC, cfg.Point.TREFP,
		cfg.Point.VDD, f.Runs, f.MCU, scfg.Seeds[f.MCU], scfg.RowsPerBank,
		cfg.Determinism.Normalize())
}

// NewEvalPool builds the fitness-evaluation farm for cfg: every worker gets
// a clone of the framework's server (bit-identical simulated hardware),
// programmed to the operating point and prepared for the spec, plus an
// evaluator that deploys a chromosome on the clone and measures it with the
// supplied per-chromosome noise stream. root seeds the pool's deterministic
// stream assignment; pass a split of the experiment's RNG.
//
// The clones are built on the pool's first local evaluation, not here: a
// search whose batches the fleet serves never evaluates locally and never
// pays for them. The pool's prepare hook builds every clone, under one
// sync.Once, before any worker evaluates, because the clones share cfg.Spec
// and Spec.Prepare writes state that Deploy reads; the build stays out of
// the farm's busy time.
func (f *Framework) NewEvalPool(cfg SearchConfig, workers int,
	root *xrand.Rand) (*farm.Pool, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("core: nil spec")
	}
	var (
		once     sync.Once
		buildErr error
		singles  = make([]farm.EvalFunc, workers)
		chunks   = make([]farm.ChunkEvalFunc, workers)
	)
	build := func() error {
		once.Do(func() {
			for w := range singles {
				srv, err := f.Srv.Clone()
				if err == nil {
					singles[w], chunks[w], err = NewWorkerEvaluators(srv, cfg.Spec,
						cfg.Criterion, cfg.Point, f.MCU, f.Runs, cfg.Determinism)
				}
				if err != nil {
					buildErr = fmt.Errorf("core: worker %d: %w", w, err)
					return
				}
			}
		})
		return buildErr
	}
	// The pool only runs its evaluators after the prepare hook built them.
	factory := func(w int) (farm.EvalFunc, error) {
		return func(g ga.Genome, rng *xrand.Rand) (float64, error) {
			return singles[w](g, rng)
		}, nil
	}
	opts := []farm.PoolOption{farm.WithPrepare(build), farm.WithChunkFactory(
		func(w int) (farm.ChunkEvalFunc, error) {
			return func(tasks []farm.Assigned, out []float64) error {
				return chunks[w](tasks, out)
			}, nil
		})}
	if cfg.Cache != nil {
		opts = append(opts, farm.WithCache(cfg.Cache, f.condKey(cfg)))
	}
	if cfg.Metrics != nil {
		opts = append(opts, farm.WithMetrics(cfg.Metrics))
	}
	return farm.NewPool(workers, root, factory, opts...)
}

// NewWorkerEvaluators programs srv to the operating point, prepares the spec
// on it and returns the deploy-and-measure evaluators every farm worker
// runs: the per-genome evaluator and its chunked companion. It is shared
// between the local pool factory (which hands it a server clone) and a
// fleet worker process (which hands it a server freshly built from the
// shipped configuration — identical by construction, since a server.Clone
// is the server New builds from the same configuration: it shares the
// frozen defect maps that New samples from the config seeds, and carries
// none of the parent's data, wear or settings): both paths produce the
// same value for the same (genome, rng), which is the fleet's determinism
// contract. det is set
// explicitly rather than inherited because the fleet path's server is built
// from a shipped config that predates the search's contract choice.
//
// Both evaluators run on the same prepared server and are never nil. Under
// determinism v2 a worker holding a chunk of the population deploys and
// measures it in one batched pass while staying bit-identical to evaluating
// each (genome, rng) through the single path. Under v1, whose
// sequential-draw contract the batch engine cannot honour, the chunk
// evaluator is farm.Sequential over the single one.
func NewWorkerEvaluators(srv *server.Server, spec Spec, crit Criterion,
	point OperatingPoint, mcu, runs int,
	det dram.DeterminismVersion) (farm.EvalFunc, farm.ChunkEvalFunc, error) {
	if spec == nil {
		return nil, nil, fmt.Errorf("core: nil spec")
	}
	wf := &Framework{Srv: srv, RNG: xrand.New(workerPrepSeed), MCU: mcu, Runs: runs}
	if err := srv.SetDeterminism(det); err != nil {
		return nil, nil, err
	}
	if err := wf.Apply(point); err != nil {
		return nil, nil, err
	}
	if err := spec.Prepare(wf); err != nil {
		return nil, nil, err
	}
	single := func(g ga.Genome, rng *xrand.Rand) (float64, error) {
		if err := spec.Deploy(wf, g); err != nil {
			return 0, err
		}
		res, err := wf.Srv.Evaluate(wf.MCU, wf.Runs, rng)
		if err != nil {
			return 0, err
		}
		m := Measurement{MeanCE: res.MeanCE, MeanSDC: res.MeanSDC,
			UEFrac: res.UEFrac}
		return crit.Fitness(m), nil
	}
	if det.Normalize() != dram.DeterminismV2 {
		return single, farm.Sequential(single), nil
	}
	chunk := func(tasks []farm.Assigned, out []float64) error {
		deploys := make([]func() error, len(tasks))
		rngs := make([]*xrand.Rand, len(tasks))
		for i, t := range tasks {
			g := t.G
			deploys[i] = func() error { return spec.Deploy(wf, g) }
			rngs[i] = t.RNG
		}
		res, err := wf.Srv.EvaluateBatch(wf.MCU, wf.Runs, deploys, rngs)
		if err != nil {
			return err
		}
		for i, t := range tasks {
			m := Measurement{MeanCE: res[i].MeanCE, MeanSDC: res[i].MeanSDC,
				UEFrac: res[i].UEFrac}
			out[t.Idx] = crit.Fitness(m)
		}
		return nil
	}
	return single, chunk, nil
}
