package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"dstress/internal/farm"
	"dstress/internal/xrand"
)

// The population-batched dispatch differential suite: a pool whose workers
// evaluate whole chunks through server.EvaluateBatch must reproduce
// per-genome evaluation bit for bit, at every worker count, because the batch
// engine only changes how the arithmetic is amortized — never which noise
// stream measures which genome. Named TestBatchDetV2* so both the 'Batch'
// and 'DetV2' test filters (make batch-test, make detv2-test) pick it up.

// plainPool builds a pool over the workers' per-genome evaluators alone
// (farm.Sequential over each) — the reference the chunk evaluators are
// measured against.
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
// stream — v2 chunk evaluators at 1, 2, 4 and 8 workers against the
// per-genome evaluator. The farm-vs-farm suites compare chunked to chunked,
// so this is the one place a consistent batch-engine deviation would
// surface.
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

// TestBatchDetV2SearchMatchesPerTask: a full v2 farm search through
// two-worker pools ends exactly where a search with one genome per chunk
// ends — population, fitness history, evaluation count, everything
// assertSameOutcome checks. The reference runs 8 workers over a population
// of 8, so every chunk holds a single task.
func TestBatchDetV2SearchMatchesPerTask(t *testing.T) {
	want, err := resumeFramework(t).RunSearch(v2Config(8))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumeFramework(t).RunSearch(v2Config(2))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "two workers vs one genome per chunk", got, want)
}

// TestBatchV1ChunkMatchesPerGenome: under the v1 contract the chunk
// evaluator runs the per-genome evaluator over its tasks, so a v1 pool
// yields plainPool's fitness vector at 1, 2, 4 and 8 workers.
func TestBatchV1ChunkMatchesPerGenome(t *testing.T) {
	cfg := resumeConfig(1) // default contract: v1
	ref := resumeFramework(t)
	gs := cfg.Spec.NewPopulation(ref, 24, xrand.New(11))

	want, err := plainPool(t, ref, cfg, 1, xrand.New(7)).
		EvaluateBatch(context.Background(), gs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		pool, err := resumeFramework(t).NewEvalPool(cfg, workers, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.EvaluateBatch(context.Background(), gs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: v1 chunk fitness vector differs\n got %v\nwant %v",
				workers, got, want)
		}
	}
}

// v1DispatchGolden is the digest TestBatchV1DispatchGolden recorded when v1
// pools still fed workers one task at a time from a work queue. Chunked
// dispatch changes only which worker measures a genome, never the (genome,
// rng) pair, so the digest must not move.
const v1DispatchGolden = "b81be80d291d76e30607ae95f4d4b86a517478a69d3c0379bf22268389db71e8"

// TestBatchV1DispatchGolden pins the v1 farm results themselves, not just
// their agreement across worker counts: a change that shifted every v1
// value the same way would pass TestFarmDeterminismAcrossWorkerCounts but
// not this. It hashes the best fitness, the final fitness vector and the
// generation history of small v1 searches for a bit genome and an int
// genome at 1, 4 and 16 workers.
func TestBatchV1DispatchGolden(t *testing.T) {
	h := sha256.New()
	put := func(vals ...float64) {
		var b [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, spec := range []Spec{Data64Spec{}, NewAccessCoeffsSpec(0x3333)} {
		for _, workers := range []int{1, 4, 16} {
			res := runSmall(t, smallSearch(spec, workers))
			put(res.BestFitness, float64(len(res.Fitnesses)))
			put(res.Fitnesses...)
			put(float64(len(res.History)))
			for _, st := range res.History {
				put(float64(st.Generation), st.Best, st.Mean, st.Similarity)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != v1DispatchGolden {
		t.Fatalf("v1 search digest %s, want %s", got, v1DispatchGolden)
	}
}
