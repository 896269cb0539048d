package fleet

import (
	"context"
	"encoding/json"
	"time"

	"dstress/internal/farm"
	"dstress/internal/ga"
)

// Session is one search's view of the fleet. It wraps the search's own
// farm.Pool and reuses the pool's serial prologue wholesale — stream
// splitting, cache resolution and root-stream advancement are byte-for-byte
// the pool's — replacing only the dispatch step, so checkpoints, cache
// behaviour and results are identical whether a batch ran locally, remotely,
// or ended up split between the two by a mid-batch failure.
type Session struct {
	c       *Coordinator
	pool    *farm.Pool
	evalCtx json.RawMessage
}

// NewSession binds a search to the fleet. evalCtx is the opaque description
// of the evaluation environment shipped to workers with every shard (the
// daemon uses its job request); the fleet never interprets it.
func (c *Coordinator) NewSession(evalCtx json.RawMessage, pool *farm.Pool) *Session {
	return &Session{c: c, pool: pool, evalCtx: evalCtx}
}

// Batch exposes the session as a pluggable engine evaluator.
func (s *Session) Batch() ga.BatchFitness { return s.EvaluateBatch }

// RootState captures the noise-root position, exactly as the pool's: the
// fleet never advances the root, so fleet checkpoints are pool checkpoints.
func (s *Session) RootState() [4]uint64 { return s.pool.RootState() }

// EvaluateBatch measures every genome, distributing the post-cache work over
// the fleet's live workers; with none registered it degrades to the local
// pool. The result is bit-identical to pool.EvaluateBatch in all cases.
func (s *Session) EvaluateBatch(ctx context.Context, gs []ga.Genome) ([]float64, error) {
	return s.pool.EvaluateBatchVia(ctx, gs, s.dispatch)
}

// dispatch is the Session's farm.Dispatcher: shard across live workers, wait
// with failure sweeps, reclaim orphaned shards for local evaluation when the
// fleet empties out mid-batch.
func (s *Session) dispatch(ctx context.Context, tasks []farm.Assigned,
	out []float64) error {
	if len(tasks) == 0 {
		return nil
	}
	if s.c == nil || s.c.LiveWorkers() == 0 {
		return s.runLocal(ctx, tasks, out)
	}
	b, err := s.c.submitBatch(s.evalCtx, tasks, out)
	if err != nil {
		// Un-shippable genome encoding: the local path needs no encoding, so
		// degrade rather than fail the search.
		return s.runLocal(ctx, tasks, out)
	}
	defer s.c.abandon(b)

	tick := time.NewTicker(s.c.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-b.done:
			return b.err
		case <-tick.C:
			orphans := s.c.reclaimOrphans(b)
			if len(orphans) == 0 {
				continue
			}
			var local []farm.Assigned
			for _, sh := range orphans {
				local = append(local, sh.tasks...)
			}
			if err := s.pool.RunAssigned(ctx, local, out); err != nil {
				return err
			}
			s.c.completeLocal(orphans, int64(len(local)))
		}
	}
}

func (s *Session) runLocal(ctx context.Context, tasks []farm.Assigned,
	out []float64) error {
	if s.c != nil {
		s.c.met.localBatches.Add(1)
		s.c.met.localTasks.Add(int64(len(tasks)))
	}
	return s.pool.RunAssigned(ctx, tasks, out)
}
