package dram

import "sync/atomic"

// Package-level evaluation counters, surfaced by the daemon's /metrics eval
// section. They are monotonic process-lifetime totals: cheap atomic adds on
// the hot path, read with a consistent-enough snapshot by EvalSnapshot. The
// counters deliberately live here rather than per Device — a campaign clones
// one server per farm worker, and the interesting signal (how much work the
// batch path amortized away) is the process-wide aggregate.
type evalMetrics struct {
	singleRuns     atomic.Uint64 // v1 kernel runs (Run, and AverageRuns through it)
	batchRuns      atomic.Uint64 // v2 kernel runs; every v2 run is a batch run
	batchItems     atomic.Uint64 // genomes evaluated through RunBatch/AverageRunsBatch
	batchCalls     atomic.Uint64 // RunBatch/AverageRunsBatch calls (≈ generations)
	planCompiles   atomic.Uint64 // full plan compiles (cache misses)
	planSplices    atomic.Uint64 // incremental batch-plan splices (amortized hits)
	rowsCopied     atomic.Uint64 // clean rows carried over during a splice
	rowsRecompiled atomic.Uint64 // dirty rows re-resolved during a splice
	condRebuilds   atomic.Uint64 // splice: clean rows whose conditions were re-derived
	condHits       atomic.Uint64 // splice: clean rows whose conditions were copied
	poolGets       atomic.Uint64 // batch scratch sessions served from the pool
	poolMisses     atomic.Uint64 // batch scratch sessions freshly allocated
}

var evalMet evalMetrics

// EvalStats is a JSON-friendly snapshot of the process-wide evaluation
// counters.
type EvalStats struct {
	SingleRuns     uint64  `json:"single_runs"`
	BatchRuns      uint64  `json:"batch_runs"`
	BatchItems     uint64  `json:"batch_items"`
	BatchCalls     uint64  `json:"batch_calls"`
	PlanCompiles   uint64  `json:"plan_compiles"`
	PlanSplices    uint64  `json:"plan_splices"`
	RowsCopied     uint64  `json:"rows_copied"`
	RowsRecompiled uint64  `json:"rows_recompiled"`
	CondRebuilds   uint64  `json:"cond_rebuilds"`
	CondHits       uint64  `json:"cond_hits"`
	PoolGets       uint64  `json:"pool_gets"`
	PoolMisses     uint64  `json:"pool_misses"`
	PoolHitRate    float64 `json:"pool_hit_rate"`
}

// EvalSnapshot returns the current process-wide evaluation counters.
func EvalSnapshot() EvalStats {
	s := EvalStats{
		SingleRuns:     evalMet.singleRuns.Load(),
		BatchRuns:      evalMet.batchRuns.Load(),
		BatchItems:     evalMet.batchItems.Load(),
		BatchCalls:     evalMet.batchCalls.Load(),
		PlanCompiles:   evalMet.planCompiles.Load(),
		PlanSplices:    evalMet.planSplices.Load(),
		RowsCopied:     evalMet.rowsCopied.Load(),
		RowsRecompiled: evalMet.rowsRecompiled.Load(),
		CondRebuilds:   evalMet.condRebuilds.Load(),
		CondHits:       evalMet.condHits.Load(),
		PoolGets:       evalMet.poolGets.Load(),
		PoolMisses:     evalMet.poolMisses.Load(),
	}
	if total := s.PoolGets + s.PoolMisses; total > 0 {
		s.PoolHitRate = float64(s.PoolGets) / float64(total)
	}
	return s
}
