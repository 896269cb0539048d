package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/xrand"
)

// BatchBuildFunc constructs one server clone's chunk evaluator for a
// shard's opaque evaluation context (see farm.ChunkEvalFunc). The worker
// calls it once per clone, so each call must build its own machine and
// state, sharing nothing with the evaluators earlier calls returned. It must
// build the same machine a coordinator-side farm worker would build for
// that context, and measure every (genome, rng) exactly as that worker does
// — the determinism contract rests on it. core.NewWorkerEvaluators' chunk
// evaluator provides exactly this.
type BatchBuildFunc func(evalCtx json.RawMessage) (farm.ChunkEvalFunc, error)

// workerEval is one context's cached evaluators, one per server clone.
type workerEval struct {
	chunks []farm.ChunkEvalFunc
	used   uint64 // Worker.uses at the last shard; LRU order
}

// maxWorkerContexts bounds the contexts a worker holds built servers for:
// every search job ships a new context, so an unbounded cache grows with the
// jobs served. Each held context keeps its server clones, at most one per
// CPU, so the worker holds at most four servers per CPU whatever its size.
// Up to four concurrent searches' shards interleave without a rebuild; a
// fifth context evicts the least recently used one. The lease
// advertises only what is held, so the coordinator ships an evicted context
// in full again.
const maxWorkerContexts = 4

// Worker is the remote side of the fleet: it joins a coordinator, heartbeats,
// pulls leased shards, evaluates them and reports results, retrying transport
// errors with capped exponential backoff and re-joining when the coordinator
// forgets it (restart, liveness expiry).
type Worker struct {
	base      string
	name      string
	authToken string
	client    *http.Client
	build     BatchBuildFunc
	logf      func(string, ...any)
	leaseWait time.Duration
	clones    int // most server clones per context: runtime.GOMAXPROCS at NewWorker
	boMin     time.Duration
	boMax     time.Duration
	boFactor  float64
	rng       *xrand.Rand
	retries   atomic.Int64

	mu      sync.Mutex
	evals   map[string]workerEval // context digest -> cached evaluators
	digests []string              // sorted cache keys, advertised on lease
	uses    uint64                // shards served; stamps workerEval.used
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// WithLogf routes the worker's progress lines.
func WithLogf(f func(string, ...any)) WorkerOption {
	return func(w *Worker) { w.logf = f }
}

// WithLeaseWait sets the lease long-poll budget.
func WithLeaseWait(d time.Duration) WorkerOption {
	return func(w *Worker) { w.leaseWait = d }
}

// WithBackoff sets the transport-retry ramp.
func WithBackoff(min, max time.Duration, factor float64) WorkerOption {
	return func(w *Worker) { w.boMin, w.boMax, w.boFactor = min, max, factor }
}

// WithAuthToken sends a bearer token with every protocol request — required
// when the coordinator runs with auth enabled, a no-op otherwise.
func WithAuthToken(token string) WorkerOption {
	return func(w *Worker) { w.authToken = token }
}

// NewWorker builds a worker client for the coordinator at base (e.g.
// "http://host:9753"). build turns a shard context into one server clone's
// chunk evaluator; the worker builds runtime.GOMAXPROCS(0) clones per
// context and splits every shard across them.
func NewWorker(base, name string, build BatchBuildFunc, opts ...WorkerOption) *Worker {
	w := &Worker{
		base:      base,
		name:      name,
		client:    &http.Client{},
		build:     build,
		logf:      func(string, ...any) {},
		leaseWait: 20 * time.Second,
		clones:    runtime.GOMAXPROCS(0),
		rng:       xrand.New(uint64(time.Now().UnixNano())),
		evals:     make(map[string]workerEval),
	}
	for _, o := range opts {
		o(w)
	}
	return w
}

// Retries returns the cumulative transport-retry count (also reported to the
// coordinator with every heartbeat).
func (w *Worker) Retries() int64 { return w.retries.Load() }

// Run joins the coordinator and serves leases until the context ends. It only
// returns the context's error: every transport failure is retried and every
// registration loss re-joined.
func (w *Worker) Run(ctx context.Context) error {
	for {
		id, hbEvery, err := w.join(ctx)
		if err != nil {
			return err
		}
		w.logf("fleet worker %s: joined %s as %s", w.name, w.base, id)

		hbCtx, stopHB := context.WithCancel(ctx)
		var hbWG sync.WaitGroup
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			w.heartbeatLoop(hbCtx, id, hbEvery)
		}()
		err = w.leaseLoop(ctx, id)
		stopHB()
		hbWG.Wait()
		if errors.Is(err, ErrUnknownWorker) {
			w.logf("fleet worker %s: registration lost, re-joining", id)
			continue
		}
		return err
	}
}

// join registers with the coordinator, retrying with backoff until it
// succeeds or the context ends.
func (w *Worker) join(ctx context.Context) (string, time.Duration, error) {
	bo := w.backoff()
	for {
		if err := ctx.Err(); err != nil {
			return "", 0, err
		}
		var resp joinResponse
		err := w.post(ctx, "join", joinRequest{Name: w.name, Wire: wireVersion}, &resp)
		if err == nil {
			hb := time.Duration(resp.HeartbeatS * float64(time.Second))
			if hb <= 0 {
				hb = 5 * time.Second
			}
			return resp.WorkerID, hb, nil
		}
		if ctx.Err() != nil {
			return "", 0, ctx.Err()
		}
		w.retries.Add(1)
		w.logf("fleet worker %s: join: %v", w.name, err)
		if err := bo.Sleep(ctx); err != nil {
			return "", 0, err
		}
	}
}

func (w *Worker) heartbeatLoop(ctx context.Context, id string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		req := heartbeatRequest{WorkerID: id, Retries: w.retries.Load()}
		if err := w.post(ctx, "heartbeat", req, nil); err != nil && ctx.Err() == nil {
			// Registration loss surfaces through the lease loop; transport
			// blips just count.
			if !errors.Is(err, ErrUnknownWorker) {
				w.retries.Add(1)
			}
		}
	}
}

// leaseLoop long-polls for shards, evaluates and reports. Returns
// ErrUnknownWorker when the coordinator forgot this registration (caller
// re-joins), otherwise only the context's error.
func (w *Worker) leaseLoop(ctx context.Context, id string) error {
	bo := w.backoff()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp leaseResponse
		req := leaseRequest{WorkerID: id, WaitS: w.leaseWait.Seconds(),
			Contexts: w.cachedDigests()}
		if err := w.post(ctx, "lease", req, &resp); err != nil {
			if errors.Is(err, ErrUnknownWorker) {
				return err
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.retries.Add(1)
			if err := bo.Sleep(ctx); err != nil {
				return err
			}
			continue
		}
		bo.Reset()
		if resp.Shard == nil {
			continue // wait budget passed with no work; poll again
		}
		results, evalErr := w.evaluate(ctx, resp.Shard)
		rep := reportRequest{WorkerID: id, ShardID: resp.Shard.ID, Results: results}
		if evalErr != nil {
			rep.Results, rep.Error = nil, evalErr.Error()
			w.logf("fleet worker %s: shard %s: %v", id, resp.Shard.ID, evalErr)
		}
		if err := w.report(ctx, bo, rep); err != nil {
			return err
		}
	}
}

// report delivers results, retrying transport errors: an evaluated shard is
// too expensive to drop over a network blip.
func (w *Worker) report(ctx context.Context, bo *Backoff, rep reportRequest) error {
	for {
		err := w.post(ctx, "report", rep, nil)
		if err == nil {
			bo.Reset()
			return nil
		}
		if errors.Is(err, ErrUnknownWorker) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.retries.Add(1)
		if err := bo.Sleep(ctx); err != nil {
			return err
		}
	}
}

// evaluate splits a shard's tasks across the context's server clones with
// farm.RunChunks, the partition the local pool uses. Any failure —
// undecodable genome, bad RNG state, evaluation error or panic — is
// reported as the shard's evaluation error.
func (w *Worker) evaluate(ctx context.Context, sh *Shard) ([]TaskResult, error) {
	ev, err := w.evaluator(sh)
	if err != nil {
		return nil, err
	}
	tasks := make([]farm.Assigned, len(sh.Tasks))
	for i, t := range sh.Tasks {
		g, err := ga.DecodeGenome(t.Genome)
		if err != nil {
			return nil, fmt.Errorf("task %d: %w", t.Index, err)
		}
		rng, err := xrand.FromState(t.RNG)
		if err != nil {
			return nil, fmt.Errorf("task %d: %w", t.Index, err)
		}
		tasks[i] = farm.Assigned{Idx: i, G: g, RNG: rng}
	}
	out := make([]float64, len(tasks))
	if err := farm.RunChunks(ctx, ev.chunks, tasks, out, nil); err != nil {
		return nil, fmt.Errorf("shard %s: %w", sh.ID, err)
	}
	results := make([]TaskResult, len(sh.Tasks))
	for i, t := range sh.Tasks {
		results[i] = TaskResult{Index: t.Index, Fitness: out[i]}
	}
	return results, nil
}

// evaluator builds (or reuses) the evaluators for a shard's context, keyed
// by the context digest the coordinator sets on every shard: a daemon
// serving several concurrent searches ships several contexts, and
// rebuilding the simulated servers per shard would dominate the shard
// itself. A digest-only shard (context elided because this worker
// advertised it) must hit the cache; a coordinator only elides what the
// worker claimed to hold. The cache holds at most maxWorkerContexts
// contexts; building one more evicts the least recently used.
func (w *Worker) evaluator(sh *Shard) (workerEval, error) {
	key := sh.ContextDigest
	if key == "" {
		return workerEval{}, fmt.Errorf("shard %s: no context digest", sh.ID)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.uses++
	if ev, ok := w.evals[key]; ok {
		ev.used = w.uses
		w.evals[key] = ev
		return ev, nil
	}
	if len(sh.Context) == 0 {
		return workerEval{}, fmt.Errorf(
			"shard %s: context %.12s… elided but not cached", sh.ID, key)
	}
	chunks, err := w.buildClones(sh)
	if err != nil {
		return workerEval{}, err
	}
	if len(w.evals) >= maxWorkerContexts {
		w.evictOldest()
	}
	ev := workerEval{chunks: chunks, used: w.uses}
	w.evals[key] = ev
	w.digests = append(w.digests, key)
	sort.Strings(w.digests)
	return ev, nil
}

// buildClones builds a context's server clones in parallel, each by its
// own build call: every clone parses the context into its own spec, since
// preparing a spec writes state its deploys read, and clones evaluating at
// the same time must not share it. The context's first shard sizes it: one
// clone per task, up to one per CPU, since RunChunks gives no clone more
// than one chunk per shard.
func (w *Worker) buildClones(sh *Shard) ([]farm.ChunkEvalFunc, error) {
	chunks := make([]farm.ChunkEvalFunc, max(1, min(w.clones, len(sh.Tasks))))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i := range chunks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunks[i], errs[i] = w.build(sh.Context)
			if errs[i] == nil && chunks[i] == nil {
				errs[i] = fmt.Errorf("shard %s: builder returned no evaluator", sh.ID)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return chunks, nil
}

// evictOldest drops the least recently used evaluator. Callers hold
// w.mu.
func (w *Worker) evictOldest() {
	oldest := ""
	for key, ev := range w.evals {
		if oldest == "" || ev.used < w.evals[oldest].used {
			oldest = key
		}
	}
	delete(w.evals, oldest)
	w.digests = slices.DeleteFunc(w.digests, func(d string) bool { return d == oldest })
}

// cachedDigests snapshots the context digests this worker holds, advertised
// with every lease so the coordinator can ship digest-only shards.
func (w *Worker) cachedDigests() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.digests) == 0 {
		return nil
	}
	out := make([]string, len(w.digests))
	copy(out, w.digests)
	return out
}

func (w *Worker) backoff() *Backoff {
	return NewBackoff(w.boMin, w.boMax, w.boFactor, w.rng.Split())
}

// post sends one protocol request. A 404 maps to ErrUnknownWorker; any other
// failure is a retryable transport error.
func (w *Worker) post(ctx context.Context, verb string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.base+"/api/v1/fleet/"+verb, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.authToken != "" {
		req.Header.Set("Authorization", "Bearer "+w.authToken)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: %w", verb, ErrUnknownWorker)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fleet: %s: http %d: %s", verb, resp.StatusCode,
			bytes.TrimSpace(b))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}
