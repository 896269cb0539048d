package core

import (
	"context"
	"reflect"
	"testing"

	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/xrand"
)

// The population-batched dispatch differential suite: a pool whose workers
// evaluate whole chunks through server.EvaluateBatch must reproduce the
// per-task dispatch bit for bit, at every worker count, because the batch
// engine only changes how the arithmetic is amortized — never which noise
// stream measures which genome. Named TestBatchDetV2* so both the 'Batch'
// and 'DetV2' test filters (make batch-test, make detv2-test) pick it up.

// plainPool builds a v2 pool with chunked dispatch NOT wired — the
// per-genome reference the batch engine is measured against.
func plainPool(t *testing.T, f *Framework, cfg SearchConfig, workers int,
	root *xrand.Rand) *farm.Pool {
	t.Helper()
	factory := func(w int) (farm.EvalFunc, error) {
		srv, err := f.Srv.Clone()
		if err != nil {
			return nil, err
		}
		single, _, err := NewWorkerEvaluators(srv, cfg.Spec, cfg.Criterion,
			cfg.Point, f.MCU, f.Runs, cfg.Determinism)
		return single, err
	}
	pool, err := farm.NewPool(workers, root, factory)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestBatchDetV2ChunkedMatchesPerTask: the same genome batch, the same root
// stream — chunked dispatch at 1, 2, 4 and 8 workers against per-task
// dispatch. The existing farm-vs-farm suites compare chunked to chunked, so
// this is the one place a consistent batch-engine deviation would surface.
func TestBatchDetV2ChunkedMatchesPerTask(t *testing.T) {
	cfg := v2Config(1)
	ref := resumeFramework(t)
	gs := cfg.Spec.NewPopulation(ref, 24, xrand.New(11))

	want, err := plainPool(t, ref, cfg, 1, xrand.New(7)).
		EvaluateBatch(context.Background(), gs)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		f := resumeFramework(t)
		pool, err := f.NewEvalPool(cfg, workers, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.EvaluateBatch(context.Background(), gs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: chunked fitness vector differs\n got %v\nwant %v",
				workers, got, want)
		}
	}
}

// TestBatchDetV2SearchMatchesPerTask: a full v2 farm search through the
// chunked pools ends exactly where the pre-batch per-task search ends —
// population, fitness history, evaluation count, everything
// assertSameOutcome checks. The reference run flips the package's test-only
// per-task switch, exercising the exact dispatch the engine ran before the
// batch path existed.
func TestBatchDetV2SearchMatchesPerTask(t *testing.T) {
	testPerTaskDispatch = true
	want, err := resumeFramework(t).RunSearch(v2Config(2))
	testPerTaskDispatch = false
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumeFramework(t).RunSearch(v2Config(2))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "chunked vs per-task search", got, want)
}

// TestBatchDetV2V1PoolStaysPerTask: under the v1 contract the chunk
// evaluator must not be built — the batch engine is a v2-only contract and
// a v1 pool silently keeps per-task dispatch (and its exact v1 results,
// which TestFarmDeterminismAcrossWorkerCounts pins).
func TestBatchDetV2V1PoolStaysPerTask(t *testing.T) {
	cfg := resumeConfig(1) // default contract: v1
	f := resumeFramework(t)
	srv1, err := f.Srv.Clone()
	if err != nil {
		t.Fatal(err)
	}
	_, chunk, err := NewWorkerEvaluators(srv1, cfg.Spec, cfg.Criterion,
		cfg.Point, f.MCU, f.Runs, cfg.Determinism)
	if err != nil {
		t.Fatal(err)
	}
	if chunk != nil {
		t.Fatal("v1 worker construction yielded a chunk evaluator")
	}

	v2 := v2Config(1)
	srv, err := f.Srv.Clone()
	if err != nil {
		t.Fatal(err)
	}
	_, chunk, err = NewWorkerEvaluators(srv, v2.Spec, v2.Criterion, v2.Point,
		f.MCU, f.Runs, v2.Determinism)
	if err != nil {
		t.Fatal(err)
	}
	if chunk == nil {
		t.Fatal("v2 worker construction yielded no chunk evaluator")
	}
	if dram.DeterminismV2.Normalize() != dram.DeterminismV2 {
		t.Fatal("v2 does not normalize to itself")
	}
}
