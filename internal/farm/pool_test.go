package farm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dstress/internal/dram"
	"dstress/internal/ga"
	"dstress/internal/xrand"
)

// noisyEval is the test stand-in for a DIMM measurement: a value determined
// by the chromosome plus noise drawn from the supplied stream. Any two
// workers built from it behave identically, as the pool contract requires.
func noisyEval(g ga.Genome, rng *xrand.Rand) (float64, error) {
	base := 0.0
	switch t := g.(type) {
	case *ga.IntGenome:
		for _, v := range t.Vals {
			base += float64(v)
		}
	case *ga.BitGenome:
		base = float64(t.Bits.OnesCount())
	default:
		return 0, fmt.Errorf("unexpected genome %T", g)
	}
	return base + rng.Float64(), nil
}

func noisyFactory(w int) (EvalFunc, error) { return noisyEval, nil }

func intPopulation(n int, seed uint64) []ga.Genome {
	rng := xrand.New(seed)
	gs := make([]ga.Genome, n)
	for i := range gs {
		gs[i] = ga.RandomIntGenome(6, 0, 20, rng)
	}
	return gs
}

func bitPopulation(n int, seed uint64) []ga.Genome {
	rng := xrand.New(seed)
	gs := make([]ga.Genome, n)
	for i := range gs {
		gs[i] = ga.RandomBitGenome(64, rng)
	}
	return gs
}

// serialReference evaluates the batches the way a plain serial loop would:
// one stream split off the root per genome, in order.
func serialReference(t *testing.T, rootSeed uint64, batches [][]ga.Genome) [][]float64 {
	t.Helper()
	root := xrand.New(rootSeed)
	out := make([][]float64, len(batches))
	for bi, gs := range batches {
		out[bi] = make([]float64, len(gs))
		for i, g := range gs {
			v, err := noisyEval(g, root.Split())
			if err != nil {
				t.Fatal(err)
			}
			out[bi][i] = v
		}
	}
	return out
}

func TestPoolDeterminismAcrossWorkerCounts(t *testing.T) {
	const rootSeed = 99
	cases := []struct {
		name    string
		batches [][]ga.Genome
	}{
		{"ints", [][]ga.Genome{intPopulation(12, 1), intPopulation(12, 2)}},
		{"bits", [][]ga.Genome{bitPopulation(12, 3), bitPopulation(12, 4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := serialReference(t, rootSeed, tc.batches)
			for _, workers := range []int{1, 4, 16} {
				pool, err := NewPool(workers, xrand.New(rootSeed), noisyFactory)
				if err != nil {
					t.Fatal(err)
				}
				for bi, gs := range tc.batches {
					got, err := pool.EvaluateBatch(context.Background(), gs)
					if err != nil {
						t.Fatal(err)
					}
					for i := range got {
						if got[i] != want[bi][i] {
							t.Fatalf("workers=%d batch %d genome %d: %v != %v",
								workers, bi, i, got[i], want[bi][i])
						}
					}
				}
			}
		})
	}
}

func TestPoolCacheHitsAndDedup(t *testing.T) {
	gs := intPopulation(6, 5)
	gs = append(gs, gs[2].Clone(), gs[4].Clone()) // in-batch duplicates

	var evals atomic.Int64
	counting := func(w int) (EvalFunc, error) {
		return func(g ga.Genome, rng *xrand.Rand) (float64, error) {
			evals.Add(1)
			return noisyEval(g, rng)
		}, nil
	}
	cache := NewCache()
	pool, err := NewPool(4, xrand.New(11), counting,
		WithCache(cache, "cond-a"), WithMetrics(NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}

	first, err := pool.EvaluateBatch(context.Background(), gs)
	if err != nil {
		t.Fatal(err)
	}
	if first[6] != first[2] || first[7] != first[4] {
		t.Fatalf("duplicates measured differently: %v", first)
	}
	if n := evals.Load(); n != 6 {
		t.Fatalf("%d evaluations for 6 unique genomes", n)
	}
	st := cache.Stats()
	if st.Misses != 6 || st.Hits != 2 || st.Entries != 6 {
		t.Fatalf("after batch 1: %+v", st)
	}

	// The whole second batch is memoized: no evaluations, same values.
	second, err := pool.EvaluateBatch(context.Background(), gs)
	if err != nil {
		t.Fatal(err)
	}
	if n := evals.Load(); n != 6 {
		t.Fatalf("cache did not absorb batch 2 (%d evals)", n)
	}
	for i := range second {
		if second[i] != first[i] {
			t.Fatalf("cached value drifted at %d", i)
		}
	}
	if st := cache.Stats(); st.Hits != 2+uint64(len(gs)) || st.HitRate <= 0.5 {
		t.Fatalf("after batch 2: %+v", st)
	}

	// A different condition key must not share entries.
	other, err := NewPool(2, xrand.New(11), counting, WithCache(cache, "cond-b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.EvaluateBatch(context.Background(), gs); err != nil {
		t.Fatal(err)
	}
	if n := evals.Load(); n != 12 {
		t.Fatalf("condition keys leaked across searches (%d evals)", n)
	}
}

func TestPoolCacheDeterminismAcrossWorkerCounts(t *testing.T) {
	gs := intPopulation(10, 21)
	gs = append(gs, gs[0].Clone(), gs[7].Clone())
	var want []float64
	for _, workers := range []int{1, 4, 16} {
		pool, err := NewPool(workers, xrand.New(33), noisyFactory,
			WithCache(NewCache(), "c"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.EvaluateBatch(context.Background(), gs)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d genome %d: %v != %v",
					workers, i, got[i], want[i])
			}
		}
	}
}

func TestPoolFIFOEviction(t *testing.T) {
	cache := NewCache()
	cache.SetLimit(3)
	for i := 0; i < 5; i++ {
		cache.put(fmt.Sprintf("k%d", i), float64(i))
	}
	if cache.Len() != 3 {
		t.Fatalf("len = %d", cache.Len())
	}
	if _, ok := cache.lookup("k0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := cache.lookup("k4"); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestPoolPanicBecomesError(t *testing.T) {
	bomb := func(w int) (EvalFunc, error) {
		return func(g ga.Genome, rng *xrand.Rand) (float64, error) {
			if g.(*ga.IntGenome).Vals[0] == 13 {
				panic("boom")
			}
			return noisyEval(g, rng)
		}, nil
	}
	pool, err := NewPool(3, xrand.New(1), bomb)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := ga.NewIntGenome([]int{13, 0}, 0, 20)
	gs := append(intPopulation(5, 9), bad)
	if _, err := pool.EvaluateBatch(context.Background(), gs); err == nil ||
		!strings.Contains(err.Error(), "panic") {
		t.Fatalf("panic not surfaced: %v", err)
	}
	// The pool survives a poisoned batch.
	if _, err := pool.EvaluateBatch(context.Background(), intPopulation(5, 9)); err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}
}

func TestPoolEvalErrorAborts(t *testing.T) {
	failing := func(w int) (EvalFunc, error) {
		return func(g ga.Genome, rng *xrand.Rand) (float64, error) {
			return 0, fmt.Errorf("deploy failed")
		}, nil
	}
	pool, err := NewPool(2, xrand.New(1), failing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.EvaluateBatch(context.Background(), intPopulation(4, 1)); err == nil {
		t.Fatal("worker error swallowed")
	}
}

func TestPoolContextCancel(t *testing.T) {
	slow := func(w int) (EvalFunc, error) {
		return func(g ga.Genome, rng *xrand.Rand) (float64, error) {
			time.Sleep(5 * time.Millisecond)
			return noisyEval(g, rng)
		}, nil
	}
	pool, err := NewPool(2, xrand.New(1), slow)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.EvaluateBatch(ctx, intPopulation(8, 1)); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 8*time.Millisecond)
	defer cancel2()
	if _, err := pool.EvaluateBatch(ctx2, intPopulation(64, 2)); err != context.DeadlineExceeded {
		t.Fatalf("err = %v", err)
	}
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(0, xrand.New(1), noisyFactory); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewPool(1, nil, noisyFactory); err == nil {
		t.Error("nil root accepted")
	}
	if _, err := NewPool(1, xrand.New(1), nil); err == nil {
		t.Error("nil factory accepted")
	}
	broken := func(w int) (EvalFunc, error) {
		if w == 1 {
			return nil, fmt.Errorf("no hardware")
		}
		return noisyEval, nil
	}
	if _, err := NewPool(2, xrand.New(1), broken); err == nil {
		t.Error("factory error swallowed")
	}
	nilChunk := WithChunkFactory(func(w int) (ChunkEvalFunc, error) {
		if w == 1 {
			return nil, nil
		}
		return Sequential(noisyEval), nil
	})
	if _, err := NewPool(2, xrand.New(1), noisyFactory, nilChunk); err == nil ||
		!strings.Contains(err.Error(), "chunk worker 1") {
		t.Errorf("nil chunk evaluator accepted: %v", err)
	}
	failChunk := WithChunkFactory(func(w int) (ChunkEvalFunc, error) {
		return nil, fmt.Errorf("no batch engine")
	})
	if _, err := NewPool(2, xrand.New(1), noisyFactory, failChunk); err == nil {
		t.Error("chunk factory error swallowed")
	}
}

// TestPoolChunkFactoryAfterWorkers: every worker's EvalFunc is built before
// the first chunk evaluator is asked for, so a chunk factory can hand out
// what the worker factory stashed.
func TestPoolChunkFactoryAfterWorkers(t *testing.T) {
	const workers = 3
	var order []string
	stash := make([]ChunkEvalFunc, workers)
	factory := func(w int) (EvalFunc, error) {
		order = append(order, fmt.Sprintf("eval%d", w))
		stash[w] = Sequential(noisyEval)
		return noisyEval, nil
	}
	pool, err := NewPool(workers, xrand.New(5), factory,
		WithChunkFactory(func(w int) (ChunkEvalFunc, error) {
			order = append(order, fmt.Sprintf("chunk%d", w))
			return stash[w], nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	want := "eval0 eval1 eval2 chunk0 chunk1 chunk2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("build order %q, want %q", got, want)
	}
	if _, err := pool.EvaluateBatch(context.Background(), intPopulation(6, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestPoolPrepareBeforeChunks: the prepare hook runs before any chunk of a
// dispatch, not for a batch with nothing to evaluate, and outside the busy
// time the metrics record; its error fails the batch before any chunk runs.
func TestPoolPrepareBeforeChunks(t *testing.T) {
	const pause = 100 * time.Millisecond
	var prepared, early atomic.Int64
	fail := false
	prepare := func() error {
		if fail {
			return fmt.Errorf("no servers")
		}
		time.Sleep(pause)
		prepared.Add(1)
		return nil
	}
	chunks := WithChunkFactory(func(w int) (ChunkEvalFunc, error) {
		return func(tasks []Assigned, out []float64) error {
			if prepared.Load() == 0 {
				early.Add(1)
			}
			return Sequential(noisyEval)(tasks, out)
		}, nil
	})
	met := NewMetrics()
	pool, err := NewPool(3, xrand.New(4), noisyFactory, chunks,
		WithPrepare(prepare), WithMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.EvaluateBatch(context.Background(), nil); err != nil ||
		prepared.Load() != 0 {
		t.Fatalf("an empty batch prepared %d times (err %v), want 0",
			prepared.Load(), err)
	}
	if _, err := pool.EvaluateBatch(context.Background(), intPopulation(6, 4)); err != nil {
		t.Fatal(err)
	}
	if early.Load() != 0 || prepared.Load() != 1 {
		t.Fatalf("%d chunks ran before prepare; prepared %d times, want 1",
			early.Load(), prepared.Load())
	}
	if busy := met.Snapshot(0).BusySeconds; busy >= pause.Seconds() {
		t.Fatalf("busy time %.3fs includes the %v prepare", busy, pause)
	}
	fail = true
	if _, err := pool.EvaluateBatch(context.Background(), intPopulation(6, 5)); err == nil ||
		!strings.Contains(err.Error(), "no servers") {
		t.Fatalf("a failed prepare did not fail the batch: %v", err)
	}
	if n := met.Snapshot(0).Chunks; n != 3 {
		t.Fatalf("%d chunks ran, want the first batch's 3 only", n)
	}
}

// TestPoolChunkPanicBecomesError: a panic inside a chunk evaluator comes
// back as an error naming the chunk's task range, and the pool keeps
// working afterwards.
func TestPoolChunkPanicBecomesError(t *testing.T) {
	bomb := WithChunkFactory(func(w int) (ChunkEvalFunc, error) {
		return func(tasks []Assigned, out []float64) error {
			for _, tk := range tasks {
				if tk.G.(*ga.IntGenome).Vals[0] == 13 {
					panic("boom")
				}
			}
			return Sequential(noisyEval)(tasks, out)
		}, nil
	})
	pool, err := NewPool(3, xrand.New(1), noisyFactory, bomb)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := ga.NewIntGenome([]int{13, 0}, 0, 20)
	gs := append(intPopulation(5, 9), bad) // chunks [0,2) [2,4) [4,6)
	_, err = pool.EvaluateBatch(context.Background(), gs)
	if err == nil || !strings.Contains(err.Error(), "chunk [4,6)") ||
		!strings.Contains(err.Error(), "panic: boom") {
		t.Fatalf("chunk panic not surfaced with its range: %v", err)
	}
	if _, err := pool.EvaluateBatch(context.Background(), intPopulation(6, 9)); err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}
}

func TestGenomeKey(t *testing.T) {
	a, _ := ga.NewIntGenome([]int{1, 2, 3}, 0, 20)
	b, _ := ga.NewIntGenome([]int{1, 2, 3}, 0, 20)
	c, _ := ga.NewIntGenome([]int{1, 2, 4}, 0, 20)
	if GenomeKey(a) != GenomeKey(b) {
		t.Error("equal int genomes got distinct keys")
	}
	if GenomeKey(a) == GenomeKey(c) {
		t.Error("distinct int genomes share a key")
	}
	rng := xrand.New(7)
	g1 := ga.RandomBitGenome(200, rng)
	g2 := g1.Clone()
	g3 := ga.RandomBitGenome(200, rng)
	if GenomeKey(g1) != GenomeKey(g2) {
		t.Error("equal bit genomes got distinct keys")
	}
	if GenomeKey(g1) == GenomeKey(g3) {
		t.Error("distinct bit genomes share a key")
	}
	if GenomeKey(a) == GenomeKey(g1) {
		t.Error("int and bit keys collide")
	}
}

// TestGenomeKeyDigestPinned pins the bit-genome key to the formula it has
// always had — SHA-256 over the length and Bits.Bytes() — across the
// lengths where the fixed hashing buffer fills, wraps and runs short: the
// fitness cache and its hit rates depend on keys never moving.
func TestGenomeKeyDigestPinned(t *testing.T) {
	rng := xrand.New(11)
	for _, n := range []int{1, 63, 64, 65, 200, 4095, 4096, 4097, 196608} {
		g := ga.RandomBitGenome(n, rng)
		h := sha256.New()
		var nb [8]byte
		binary.LittleEndian.PutUint64(nb[:], uint64(n))
		h.Write(nb[:])
		h.Write(g.Bits.Bytes())
		want := "b" + strconv.Itoa(n) + ":" + hex.EncodeToString(h.Sum(nil)[:16])
		if got := GenomeKey(g); got != want {
			t.Fatalf("n=%d: key %s, the old formula gives %s", n, got, want)
		}
	}
}

// BenchmarkFarmSpeedup contrasts a serial evaluation of one 40-virus
// generation with the 8-worker farm, in two regimes:
//
//   - "dwell" models the paper's measurement latency (a real testbed holds
//     the DIMM for the refresh windows being tested, it does not saturate a
//     CPU), so the farm's win is overlap, not parallel arithmetic;
//   - "sim" is the real thing: each worker owns a cloned quick-scale device
//     (the cloned-server pattern of core.NewEvalPool) and every evaluation
//     deploys the chromosome as a uniform fill and runs the ten-run
//     averaging batch through the dram fast path. This is the number the
//     evaluation-plan work multiplies.
//
// Run it with:
//
//	go test -bench FarmSpeedup -benchtime 5x ./internal/farm/
func BenchmarkFarmSpeedup(b *testing.B) {
	const dwell = 2 * time.Millisecond
	slow := func(w int) (EvalFunc, error) {
		return func(g ga.Genome, rng *xrand.Rand) (float64, error) {
			time.Sleep(dwell)
			return noisyEval(g, rng)
		}, nil
	}
	sim := func(w int) (EvalFunc, error) {
		dev, err := dram.NewDevice(dram.DefaultConfig(16, 7))
		if err != nil {
			return nil, err
		}
		p := dram.RunParams{TREFP: 2.283, TempC: 60, VDD: 1.428}
		return func(g ga.Genome, rng *xrand.Rand) (float64, error) {
			word := g.(*ga.BitGenome).Bits.Uint64()
			dev.FillAllUniform(word)
			ce, _, _, err := dev.AverageRuns(p, 10, rng)
			return ce, err
		}, nil
	}
	for _, bench := range []struct {
		name    string
		factory WorkerFactory
		gs      []ga.Genome
	}{
		{"dwell", slow, intPopulation(40, 1)},
		{"sim", sim, bitPopulation(40, 1)},
	} {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", bench.name, workers), func(b *testing.B) {
				pool, err := NewPool(workers, xrand.New(1), bench.factory)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pool.EvaluateBatch(context.Background(), bench.gs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestFarmSpeedup is the benchmark's acceptance criterion in test form: with
// a latency-bound evaluation, eight workers must cut a generation's
// wall-clock time at least in half versus serial.
func TestFarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const dwell = 2 * time.Millisecond
	slow := func(w int) (EvalFunc, error) {
		return func(g ga.Genome, rng *xrand.Rand) (float64, error) {
			time.Sleep(dwell)
			return noisyEval(g, rng)
		}, nil
	}
	gs := intPopulation(40, 1)
	elapsed := func(workers int) time.Duration {
		pool, err := NewPool(workers, xrand.New(1), slow)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := pool.EvaluateBatch(context.Background(), gs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := elapsed(1)
	farm := elapsed(8)
	if farm*2 > serial {
		t.Fatalf("8 workers took %v vs %v serial (< 2x speedup)", farm, serial)
	}
	t.Logf("serial %v, 8 workers %v (%.1fx)", serial, farm,
		float64(serial)/float64(farm))
}
