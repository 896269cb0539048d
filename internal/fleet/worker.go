package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/xrand"
)

// BatchBuildFunc constructs the evaluators for a shard's opaque evaluation
// context over one shared environment: the per-task evaluator and its
// chunked companion, which evaluates a whole shard in one batched pass (see
// farm.ChunkEvalFunc). It must build the same machine a coordinator-side
// farm worker would build for that context — the determinism contract rests
// on it. A nil chunk evaluator (with nil error) means the context's
// determinism contract does not support batching; the worker evaluates that
// context's shards per task. The chunked pass must be bit-identical to the
// per-task one — core.NewWorkerEvaluators provides exactly this pair.
type BatchBuildFunc func(evalCtx json.RawMessage) (farm.EvalFunc, farm.ChunkEvalFunc, error)

// workerEval is one context's cached evaluator pair.
type workerEval struct {
	single farm.EvalFunc
	chunk  farm.ChunkEvalFunc // nil: evaluate per task
}

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
	boMin     time.Duration
	boMax     time.Duration
	boFactor  float64
	rng       *xrand.Rand
	retries   atomic.Int64

	mu      sync.Mutex
	evals   map[string]workerEval // context digest -> cached evaluator pair
	digests []string              // sorted cache keys, advertised on lease
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// WithHTTPClient replaces the transport (tests inject short timeouts).
func WithHTTPClient(c *http.Client) WorkerOption {
	return func(w *Worker) { w.client = c }
}

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
// "http://host:9753"). build turns shard contexts into evaluators, once per
// context; shards whose contract supports it are evaluated in one chunked
// pass instead of task by task.
func NewWorker(base, name string, build BatchBuildFunc, opts ...WorkerOption) *Worker {
	w := &Worker{
		base:      base,
		name:      name,
		client:    &http.Client{},
		build:     build,
		logf:      func(string, ...any) {},
		leaseWait: 20 * time.Second,
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
		results, evalErr := w.evaluate(resp.Shard)
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

// evaluate runs a shard's tasks on the context's evaluator — in one chunked
// pass when the context supports batching, task by task otherwise. Any
// failure — undecodable genome, bad RNG state, evaluation error or panic —
// is reported as the shard's evaluation error.
func (w *Worker) evaluate(sh *Shard) ([]TaskResult, error) {
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
	if ev.chunk != nil {
		if err := safeWorkerChunk(ev.chunk, tasks, out); err != nil {
			return nil, fmt.Errorf("shard chunk: %w", err)
		}
	} else {
		for i, t := range tasks {
			v, err := safeWorkerEval(ev.single, t.G, t.RNG)
			if err != nil {
				return nil, fmt.Errorf("task %d: %w", sh.Tasks[i].Index, err)
			}
			out[i] = v
		}
	}
	results := make([]TaskResult, len(sh.Tasks))
	for i, t := range sh.Tasks {
		results[i] = TaskResult{Index: t.Index, Fitness: out[i]}
	}
	return results, nil
}

func safeWorkerEval(ev farm.EvalFunc, g ga.Genome, rng *xrand.Rand) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("evaluation panic: %v", r)
		}
	}()
	return ev(g, rng)
}

func safeWorkerChunk(ev farm.ChunkEvalFunc, tasks []farm.Assigned,
	out []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("evaluation panic: %v", r)
		}
	}()
	return ev(tasks, out)
}

// evaluator builds (or reuses) the evaluator pair for a shard's context,
// keyed by the context digest: a daemon serving several concurrent searches
// ships several contexts, and rebuilding the simulated server per shard
// would dominate the shard itself. A digest-only shard (context elided
// because this worker advertised it) must hit the cache; a coordinator only
// elides what the worker claimed to hold.
func (w *Worker) evaluator(sh *Shard) (workerEval, error) {
	key := sh.ContextDigest
	if key == "" {
		// Pre-digest coordinator: ships the full context every time.
		key = contextDigest(sh.Context)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if ev, ok := w.evals[key]; ok {
		return ev, nil
	}
	if len(sh.Context) == 0 {
		return workerEval{}, fmt.Errorf(
			"shard %s: context %.12s… elided but not cached", sh.ID, key)
	}
	var ev workerEval
	var err error
	ev.single, ev.chunk, err = w.build(sh.Context)
	if err != nil {
		return workerEval{}, err
	}
	if ev.single == nil {
		return workerEval{}, fmt.Errorf("shard %s: builder returned no evaluator", sh.ID)
	}
	w.evals[key] = ev
	w.digests = append(w.digests, key)
	sort.Strings(w.digests)
	return ev, nil
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
