package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/xrand"
)

// testEval is the deterministic fake measurement every test worker runs:
// fitness depends on the chromosome and on its assigned noise stream, so any
// mis-shipped RNG state or mis-indexed result breaks bit-identity loudly.
func testEval(g ga.Genome, rng *xrand.Rand) (float64, error) {
	ig := g.(*ga.IntGenome)
	sum := 0
	for _, v := range ig.Vals {
		sum += v
	}
	return float64(sum) + rng.Float64(), nil
}

func testFactory(int) (farm.EvalFunc, error) { return testEval, nil }

// testBuild is the per-task worker-side BatchBuildFunc: same evaluator, built
// from the opaque context exactly once per digest, no chunked companion.
func testBuild(json.RawMessage) (farm.EvalFunc, farm.ChunkEvalFunc, error) {
	return testEval, nil, nil
}

func testGenomes(t *testing.T, n int) []ga.Genome {
	t.Helper()
	gs := make([]ga.Genome, n)
	for i := range gs {
		g, err := ga.NewIntGenome([]int{i, 2 * i, 7}, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	return gs
}

func testPool(t *testing.T, seed uint64) *farm.Pool {
	t.Helper()
	pool, err := farm.NewPool(2, xrand.New(seed), testFactory)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// reference evaluates the batch on a plain local pool with the same seed —
// the value every fleet configuration must reproduce bit-identically.
func reference(t *testing.T, seed uint64, gs []ga.Genome) []float64 {
	t.Helper()
	want, err := testPool(t, seed).EvaluateBatch(context.Background(), gs)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func fastConfig() Config {
	return Config{
		LeaseTTL:   2 * time.Second,
		WorkerTTL:  time.Second,
		SweepEvery: 5 * time.Millisecond,
	}
}

// startWorkers runs n real Worker clients against url and returns a stop
// function that waits them out.
func startWorkers(t *testing.T, url string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := NewWorker(url, fmt.Sprintf("tw%d", i), testBuild,
			WithLeaseWait(200*time.Millisecond),
			WithBackoff(5*time.Millisecond, 50*time.Millisecond, 2))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

func serve(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	c.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestZeroWorkersFallsBackLocal: with nobody registered the session is the
// pool, bit for bit, and the fallback is counted as local work.
func TestZeroWorkersFallsBackLocal(t *testing.T) {
	const seed = 41
	gs := testGenomes(t, 9)
	want := reference(t, seed, gs)

	c := NewCoordinator(fastConfig())
	sess := c.NewSession(json.RawMessage(`{}`), testPool(t, seed))
	got, err := sess.EvaluateBatch(context.Background(), gs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback diverged from local pool:\n got %v\nwant %v", got, want)
	}
	st := c.Snapshot()
	if st.LocalBatches == 0 || st.LocalTasks == 0 {
		t.Fatalf("local fallback not counted: %+v", st)
	}
	if st.RemoteBatches != 0 {
		t.Fatalf("no remote batch should exist: %+v", st)
	}
}

// TestBitIdenticalAcrossWorkerCounts is the fleet's core invariant: 1, 2 and
// 4 remote workers all reproduce the local pool's fitness vector exactly.
func TestBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const seed = 2020
	gs := testGenomes(t, 12)
	want := reference(t, seed, gs)

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := NewCoordinator(fastConfig())
			ts := serve(t, c)
			stop := startWorkers(t, ts.URL, workers)
			defer stop()
			waitLive(t, c, workers)

			sess := c.NewSession(json.RawMessage(`{"env":1}`), testPool(t, seed))
			got, err := sess.EvaluateBatch(context.Background(), gs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d workers diverged from local pool:\n got %v\nwant %v",
					workers, got, want)
			}
			if st := c.Snapshot(); st.RemoteTasks == 0 {
				t.Fatalf("no tasks ran remotely: %+v", st)
			}
		})
	}
}

func waitLive(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers joined", c.LiveWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadWorkerShardRequeues kills a leased shard's holder (it simply never
// reports and stops heartbeating) and checks the shard re-queues onto the
// surviving real worker with the result still bit-identical.
func TestDeadWorkerShardRequeues(t *testing.T) {
	const seed = 7
	gs := testGenomes(t, 8)
	want := reference(t, seed, gs)

	c := NewCoordinator(Config{
		LeaseTTL:   300 * time.Millisecond,
		WorkerTTL:  150 * time.Millisecond,
		SweepEvery: 5 * time.Millisecond,
	})

	// The zombie joins and leases directly through the coordinator API, then
	// vanishes without reporting.
	zombieID, _ := c.Join("zombie")

	sess := c.NewSession(json.RawMessage(`{}`), testPool(t, seed))
	var (
		got     []float64
		evalErr error
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		got, evalErr = sess.EvaluateBatch(context.Background(), gs)
	}()

	// Steal a shard, never report it.
	leaseCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sh, err := c.Lease(leaseCtx, zombieID, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sh == nil {
		t.Fatal("zombie got no shard to sit on")
	}

	// A live worker appears and absorbs everything, including the re-queued
	// zombie shard once its lease (or the zombie's liveness) expires.
	ts := serve(t, c)
	stop := startWorkers(t, ts.URL, 1)
	defer stop()

	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("batch never completed after worker death")
	}
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-queued shard diverged:\n got %v\nwant %v", got, want)
	}
	st := c.Snapshot()
	if st.Requeues == 0 {
		t.Fatalf("expected a re-queue after the zombie died: %+v", st)
	}
}

// TestWorkerRejoinsAfterCoordinatorRestart swaps in a fresh coordinator —
// everything it knew is gone, as after a crash — and checks the worker's 404
// triggers a re-join and the new coordinator's batches still complete.
func TestWorkerRejoinsAfterCoordinatorRestart(t *testing.T) {
	const seed = 99
	gs := testGenomes(t, 6)
	want := reference(t, seed, gs)

	var cur atomic.Pointer[http.ServeMux]
	c1 := NewCoordinator(fastConfig())
	mux1 := http.NewServeMux()
	c1.Mount(mux1)
	cur.Store(mux1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	defer ts.Close()

	stop := startWorkers(t, ts.URL, 1)
	defer stop()
	waitLive(t, c1, 1)

	// "Restart": a brand-new coordinator behind the same address.
	c2 := NewCoordinator(fastConfig())
	mux2 := http.NewServeMux()
	c2.Mount(mux2)
	cur.Store(mux2)

	waitLive(t, c2, 1) // the worker re-joined on its own

	sess := c2.NewSession(json.RawMessage(`{}`), testPool(t, seed))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, err := sess.EvaluateBatch(ctx, gs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-restart batch diverged:\n got %v\nwant %v", got, want)
	}
}

// TestWorkerSurvivesDownCoordinator points a worker at a dead address: it
// must keep retrying (counting its retries) without ever returning until the
// context ends, and its backoff must respect the configured ceiling.
func TestWorkerSurvivesDownCoordinator(t *testing.T) {
	w := NewWorker("http://127.0.0.1:1", "lost", testBuild,
		WithBackoff(time.Millisecond, 10*time.Millisecond, 2))
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	err := w.Run(ctx)
	if err == nil || ctx.Err() == nil {
		t.Fatalf("worker returned %v before its context ended", err)
	}
	// With a 10ms ceiling a 400ms window must fit well over a dozen
	// attempts; a broken (uncapped) ramp would manage only a handful.
	if w.Retries() < 10 {
		t.Fatalf("only %d retries in 400ms with a 10ms backoff ceiling", w.Retries())
	}
}

// TestBackoffCeiling checks the ramp and its cap directly.
func TestBackoffCeiling(t *testing.T) {
	bo := NewBackoff(100*time.Millisecond, time.Second, 2, xrand.New(1))
	max := time.Duration(0)
	for i := 0; i < 20; i++ {
		d := bo.Next()
		if d > time.Second {
			t.Fatalf("delay %v exceeds the 1s ceiling", d)
		}
		if d > max {
			max = d
		}
	}
	// After the ramp saturates, delays must actually live near the ceiling
	// (within the jitter's lower half), not collapse.
	if max < 500*time.Millisecond {
		t.Fatalf("max delay %v never approached the ceiling", max)
	}
	bo.Reset()
	if d := bo.Next(); d > 100*time.Millisecond {
		t.Fatalf("post-reset delay %v exceeds the 100ms floor", d)
	}
}

// TestEvalErrorFailsBatch: an evaluation failure on a worker fails the batch
// (exactly as a local worker error would), rather than hanging the session.
func TestEvalErrorFailsBatch(t *testing.T) {
	const seed = 3
	gs := testGenomes(t, 4)

	c := NewCoordinator(fastConfig())
	ts := serve(t, c)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(ts.URL, "bad", func(json.RawMessage) (farm.EvalFunc, farm.ChunkEvalFunc, error) {
		return func(ga.Genome, *xrand.Rand) (float64, error) {
			return 0, fmt.Errorf("synthetic meltdown")
		}, nil, nil
	}, WithLeaseWait(100*time.Millisecond),
		WithBackoff(5*time.Millisecond, 50*time.Millisecond, 2))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = w.Run(ctx) }()
	defer wg.Wait()
	defer cancel()
	waitLive(t, c, 1)

	sess := c.NewSession(json.RawMessage(`{}`), testPool(t, seed))
	bctx, bcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer bcancel()
	if _, err := sess.EvaluateBatch(bctx, gs); err == nil {
		t.Fatal("evaluation failure on the worker did not fail the batch")
	}
	if st := c.Snapshot(); st.EvalFailures == 0 {
		t.Fatalf("evaluation failure not counted: %+v", st)
	}
}

// TestReportUnknownWorker: results from an unregistered id are absorbed but
// the worker is told to re-join.
func TestReportUnknownWorker(t *testing.T) {
	c := NewCoordinator(fastConfig())
	err := c.Report("w999", "s1", nil, "")
	if err == nil {
		t.Fatal("unknown worker's report returned nil")
	}
}

// TestJoinRefusesOtherWireVersion: a worker built before packed genomes
// joins without a wire version and would misread every bit genome it
// leases, so the coordinator refuses it instead of handing it work.
func TestJoinRefusesOtherWireVersion(t *testing.T) {
	ts := serve(t, NewCoordinator(fastConfig()))
	for body, want := range map[string]int{
		`{"name":"old"}`:          http.StatusConflict,
		`{"name":"odd","wire":2}`: http.StatusConflict,
		fmt.Sprintf(`{"name":"same","wire":%d}`, wireVersion): http.StatusOK,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/fleet/join", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("join %s: HTTP %d, want %d", body, resp.StatusCode, want)
		}
	}
}

// testBatchBuild is the chunked worker-side BatchBuildFunc: the same
// measurement as testBuild plus a chunked companion that evaluates its tasks in one pass —
// identical values, so chunked workers must be invisible in the results.
func testBatchBuild(json.RawMessage) (farm.EvalFunc, farm.ChunkEvalFunc, error) {
	chunk := func(tasks []farm.Assigned, out []float64) error {
		for _, tk := range tasks {
			v, err := testEval(tk.G, tk.RNG)
			if err != nil {
				return err
			}
			out[tk.Idx] = v
		}
		return nil
	}
	return testEval, chunk, nil
}

// TestBatchDetV2ChunkedWorkersBitIdentical: workers evaluating whole shards
// through their chunked evaluator reproduce the local pool's fitness vector
// exactly, at 1 and 2 nodes.
func TestBatchDetV2ChunkedWorkersBitIdentical(t *testing.T) {
	const seed = 909
	gs := testGenomes(t, 9)
	want := reference(t, seed, gs)

	for _, workers := range []int{1, 2} {
		c := NewCoordinator(fastConfig())
		ts := serve(t, c)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			w := NewWorker(ts.URL, fmt.Sprintf("bw%d", i), testBatchBuild,
				WithLeaseWait(200*time.Millisecond),
				WithBackoff(5*time.Millisecond, 50*time.Millisecond, 2))
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = w.Run(ctx)
			}()
		}
		waitLive(t, c, workers)

		sess := c.NewSession(json.RawMessage(`{"env":9}`), testPool(t, seed))
		got, err := sess.EvaluateBatch(context.Background(), gs)
		cancel()
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d chunked workers diverged from local pool:\n got %v\nwant %v",
				workers, got, want)
		}
		if st := c.Snapshot(); st.RemoteTasks == 0 {
			t.Fatalf("no tasks ran remotely: %+v", st)
		}
	}
}

// TestLeaseContextElision: a worker that advertises a cached context digest
// receives digest-only shards; one that advertises nothing still gets the
// full payload (older workers keep working).
func TestLeaseContextElision(t *testing.T) {
	c := NewCoordinator(fastConfig())
	id, _ := c.Join("tw0")
	evalCtx := json.RawMessage(`{"env":42}`)
	gs := testGenomes(t, 2)

	lease := func(cached ...string) *Shard {
		t.Helper()
		var tasks []farm.Assigned
		for i, g := range gs {
			tasks = append(tasks, farm.Assigned{Idx: i, G: g,
				RNG: xrand.New(uint64(i + 1))})
		}
		b, err := c.submitBatch(evalCtx, tasks, make([]float64, len(tasks)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.abandon(b)
		sh, err := c.Lease(context.Background(), id, time.Second, cached...)
		if err != nil {
			t.Fatal(err)
		}
		if sh == nil {
			t.Fatal("no shard leased")
		}
		if sh.ContextDigest != contextDigest(evalCtx) {
			t.Fatalf("shard digest %q != context digest %q",
				sh.ContextDigest, contextDigest(evalCtx))
		}
		return sh
	}

	if sh := lease(); len(sh.Context) == 0 {
		t.Fatal("first lease (no advertised digests) elided the context")
	}
	if sh := lease("deadbeef"); len(sh.Context) == 0 {
		t.Fatal("lease with a foreign digest elided the context")
	}
	if sh := lease(contextDigest(evalCtx)); len(sh.Context) != 0 {
		t.Fatal("lease with the matching digest still shipped the context")
	}
	if st := c.Snapshot(); st.ContextsElided != 1 {
		t.Fatalf("ContextsElided = %d, want 1", st.ContextsElided)
	}
}

// TestWorkerAdvertisesCachedContexts: a real worker's second shard for the
// same context arrives digest-only end to end over HTTP.
func TestWorkerAdvertisesCachedContexts(t *testing.T) {
	const seed = 313
	gs := testGenomes(t, 6)
	want := reference(t, seed, gs)

	c := NewCoordinator(fastConfig())
	ts := serve(t, c)
	stop := startWorkers(t, ts.URL, 1)
	defer stop()
	waitLive(t, c, 1)

	sess := c.NewSession(json.RawMessage(`{"env":7}`), testPool(t, seed))
	for i := 0; i < 3; i++ {
		got, err := sess.EvaluateBatch(context.Background(), gs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d results, want %d", i, len(got), len(want))
		}
	}
	if st := c.Snapshot(); st.ContextsElided == 0 {
		t.Fatal("repeated same-context shards never shipped digest-only")
	}
}
