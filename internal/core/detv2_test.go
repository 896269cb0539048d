package core

import (
	"context"
	"runtime"
	"testing"

	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/xrand"
)

// The determinism-v2 differential suite: the counter-stream contract must be
// as reproducible as v1 across every execution shape — serial, farm at any
// worker count, kill-and-resume — while drawing its noise from keyed
// per-cell streams instead of the v1 sequential draw order. The v1 suites
// (parallel_test.go, resume_test.go) are untouched: v1 remains the default
// contract and its results must not move.

// v2Config is resumeConfig under the v2 contract.
func v2Config(workers int) SearchConfig {
	cfg := resumeConfig(workers)
	cfg.Determinism = dram.DeterminismV2
	return cfg
}

// TestDetV2SerialReproducible: two fresh frameworks running the same serial
// v2 search agree on everything assertSameOutcome checks.
func TestDetV2SerialReproducible(t *testing.T) {
	want, err := resumeFramework(t).RunSearch(v2Config(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumeFramework(t).RunSearch(v2Config(0))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "serial v2 rerun", got, want)
}

// TestDetV2FarmAcrossWorkerCounts: a v2 farm search is bit-identical at 1,
// 2, 4 and 8 workers.
func TestDetV2FarmAcrossWorkerCounts(t *testing.T) {
	var want *SearchResult
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := resumeFramework(t).RunSearch(v2Config(workers))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		assertSameOutcome(t, "workers="+string(rune('0'+workers)), got, want)
	}
}

// TestDetV2ResumeBitIdentical: a v2 search killed mid-way resumes from its
// checkpoint to the uninterrupted outcome, at the original worker count and
// a different one. The resuming config does not set Determinism — the
// checkpoint carries the contract and is authoritative, so a restarted
// daemon cannot silently finish a v2 search under v1 noise.
func TestDetV2ResumeBitIdentical(t *testing.T) {
	want, err := resumeFramework(t).RunSearch(v2Config(1))
	if err != nil {
		t.Fatal(err)
	}
	if want.Generations < 4 {
		t.Fatalf("reference run too short (%d generations) to kill mid-way",
			want.Generations)
	}
	for _, resumeWorkers := range []int{1, 8} {
		cp := killAt(t, v2Config(1), 2)
		if cp.Determinism.Normalize() != dram.DeterminismV2 {
			t.Fatalf("checkpoint records determinism %v, want v2", cp.Determinism)
		}

		cfg := resumeConfig(resumeWorkers) // deliberately no Determinism
		got, err := resumeFramework(t).RunSearchFrom(context.Background(), cfg, cp)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutcome(t, "v2 resume workers="+
			string(rune('0'+resumeWorkers)), got, want)
	}
}

// TestDetV2ResumeSerial: the serial noise protocol resumes bit-identically
// under v2 too.
func TestDetV2ResumeSerial(t *testing.T) {
	want, err := resumeFramework(t).RunSearch(v2Config(0))
	if err != nil {
		t.Fatal(err)
	}
	cp := killAt(t, v2Config(0), 2)
	got, err := resumeFramework(t).RunSearchFrom(context.Background(),
		resumeConfig(0), cp)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "serial v2 resume", got, want)
}

// TestDetV2ContractsAreDistinct: v1 and v2 are different noise protocols —
// the fitness cache must never serve one contract's value to the other, and
// an unknown version must be rejected before any measurement runs.
func TestDetV2ContractsAreDistinct(t *testing.T) {
	f := resumeFramework(t)
	v1Key := f.condKey(resumeConfig(1))
	v2Key := f.condKey(v2Config(1))
	if v1Key == v2Key {
		t.Fatalf("v1 and v2 share the cache condition key %q", v1Key)
	}
	// The default (zero) determinism is spelled exactly like explicit v1.
	explicit := resumeConfig(1)
	explicit.Determinism = dram.DeterminismV1
	if got := f.condKey(explicit); got != v1Key {
		t.Fatalf("explicit v1 cond key %q != default %q", got, v1Key)
	}

	bad := resumeConfig(0)
	bad.Determinism = dram.DeterminismVersion(9)
	if _, err := resumeFramework(t).RunSearch(bad); err == nil {
		t.Fatal("search accepted determinism version 9")
	}
}

// TestDetV2SerialAccessMatchesChunk evaluates seeded access-rows genomes one
// at a time through the per-genome worker evaluator, collecting garbage
// between genomes, and requires the chunk evaluator's values. Access
// deploys write no data, so the written state survives from genome to
// genome while every genome brings fresh activation maps: a fitness must
// not depend on whether a dead genome's map shared an address with a live
// one.
func TestDetV2SerialAccessMatchesChunk(t *testing.T) {
	const seed, pop, runs = 1, 48, 4
	evaluators := func() (farm.EvalFunc, farm.ChunkEvalFunc) {
		srv, err := server.New(server.DefaultConfig(16, seed))
		if err != nil {
			t.Fatal(err)
		}
		single, chunk, err := NewWorkerEvaluators(srv,
			NewAccessRowsSpec(0x3333333333333333), MaxCE, Relaxed(55),
			server.MCU2, runs, dram.DeterminismV2)
		if err != nil {
			t.Fatal(err)
		}
		return single, chunk
	}
	gs := ga.RandomBitPopulation(pop, 64, xrand.New(seed))

	_, chunk := evaluators()
	want := make([]float64, pop)
	root := xrand.New(seed)
	tasks := make([]farm.Assigned, pop)
	for i, g := range gs {
		tasks[i] = farm.Assigned{Idx: i, G: g, RNG: root.Split()}
	}
	if err := chunk(tasks, want); err != nil {
		t.Fatal(err)
	}

	single, _ := evaluators()
	root = xrand.New(seed)
	diverged := 0
	for i, g := range gs {
		got, err := single(g, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			diverged++
		}
		runtime.GC()
	}
	if diverged > 0 {
		t.Fatalf("%d of %d genomes scored differently one at a time than in a chunk",
			diverged, pop)
	}
}
