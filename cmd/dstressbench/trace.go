package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dstress/internal/core"
	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

// span is one call the benchmark timed at a layer boundary. Times are
// microseconds since the trace began; spans of one replayed job share Job.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Job    int     `json:"job,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// EvalMs is the farm's busy-time counter delta over the span divided by
	// the worker count. The pool dispatches inside the search, where the
	// benchmark cannot wrap it, so evaluation is read as a count at the
	// generation boundaries instead of as child spans.
	EvalMs float64 `json:"eval_busy_ms,omitempty"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1000 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the correctness replay and the traced replay share one path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

func (t *tracer) open(name string, parent, job int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: t.now()})
	return id
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

func (t *tracer) setEval(id int, ms float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EvalMs = ms
	t.mu.Unlock()
}

func (t *tracer) rename(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

func (t *tracer) write(path, workload string, seed uint64) error {
	data, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// replayed is one job's in-process outcome.
type replayed struct {
	result  jobResult
	elapsed time.Duration // SubmitDurable until the job is done
}

// replay runs each job in-process on a scheduler and journal like the
// daemon's, calling the public functions dstressd's runSearch calls.
// Generation spans run from one OnGeneration call to the next; the span
// still open when the search returns is the finish: re-measuring the winner
// and appending the population to virusdb.
func replay(ctx context.Context, sched *farm.Scheduler, db *virusdb.DB,
	jobs []jobRequest, tr *tracer) ([]replayed, error) {
	out := make([]replayed, 0, len(jobs))
	for idx, req := range jobs {
		jobID := idx + 1
		met := farm.NewMetrics()
		tw, err := newTwin(req, db, met)
		if err != nil {
			return nil, err
		}
		payload, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		busyMs := func() float64 {
			return met.Snapshot(0).BusySeconds * 1000 / float64(req.Workers)
		}
		var ckptErr error
		root := tr.open("job", 0, jobID)
		fn := func(ctx context.Context, j *farm.Job) (any, error) {
			search := tr.open("core.search", root, jobID)
			gen := tr.open("core.first_generation", search, jobID)
			busy := busyMs()
			tw.cfg.OnGeneration = func(st ga.GenStats) {
				b := busyMs()
				tr.setEval(gen, b-busy)
				busy = b
				tr.close(gen)
				gen = tr.open("ga.generation", search, jobID)
				j.Progress(st.Generation, req.Generations, st.Best)
			}
			tw.cfg.OnCheckpoint = func(c *core.Checkpoint) {
				m := tr.open("core.ckpt_marshal", gen, jobID)
				raw, err := json.Marshal(c)
				tr.close(m)
				if err == nil {
					a := tr.open("farm.journal_append", gen, jobID)
					err = j.Checkpoint(raw)
					tr.close(a)
				}
				if err != nil && ckptErr == nil {
					ckptErr = err
				}
			}
			res, err := tw.run(ctx)
			tr.setEval(gen, busyMs()-busy)
			tr.rename(gen, "core.finish")
			tr.close(gen)
			tr.close(search)
			return res, err
		}
		sub := tr.open("farm.sched_submit", root, jobID)
		t0 := time.Now()
		j, err := sched.SubmitDurable(farm.JobSpec{Name: req.Name,
			Workers: req.Workers, Payload: payload}, fn)
		tr.close(sub)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", req.Name, err)
		}
		select {
		case <-j.Done():
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		elapsed := time.Since(t0)
		tr.close(root)
		res, err := j.Result()
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", req.Name, err)
		}
		if ckptErr != nil {
			return nil, fmt.Errorf("replaying %s: checkpoint: %w", req.Name, ckptErr)
		}
		out = append(out, replayed{result: res.(jobResult), elapsed: elapsed})
	}
	return out, nil
}

const ladderReps = 3

// ladder measures one workload's initial population down the evaluation
// stack: Spec.Deploy alone (as children of the batch), Server.EvaluateBatch
// (the dram kernel is its self time), and Pool.EvaluateBatch over two
// workers (dispatch is its time outside the workers' chunk calls).
func ladder(ctx context.Context, req jobRequest, tr *tracer) error {
	tw, err := newTwin(req, nil, nil)
	if err != nil {
		return err
	}
	f, spec, cfg := tw.f, tw.spec, tw.cfg
	if err := f.Srv.SetDeterminism(dram.DeterminismV2); err != nil {
		return err
	}
	if err := f.Apply(cfg.Point); err != nil {
		return err
	}
	if err := spec.Prepare(f); err != nil {
		return err
	}
	pop := spec.NewPopulation(f, req.Population, xrand.New(req.Seed))
	root := tr.open("ladder", 0, 0)

	for rep := 0; rep < ladderReps; rep++ {
		noise := xrand.New(req.Seed + uint64(rep))
		deploys := make([]func() error, len(pop))
		rngs := make([]*xrand.Rand, len(pop))
		eb := tr.open("server.evaluate_batch", root, 0)
		for i, g := range pop {
			g := g
			rngs[i] = noise.Split()
			deploys[i] = func() error {
				d := tr.open("core.deploy", eb, 0)
				defer tr.close(d)
				return spec.Deploy(f, g)
			}
		}
		_, err := f.Srv.EvaluateBatch(f.MCU, f.Runs, deploys, rngs)
		tr.close(eb)
		if err != nil {
			return err
		}
	}

	const workers = 2
	var poolSpan int
	chunks := make([]farm.ChunkEvalFunc, workers)
	factory := func(w int) (farm.EvalFunc, error) {
		srv, err := server.New(f.Srv.Config())
		if err != nil {
			return nil, err
		}
		single, chunk, err := core.NewWorkerEvaluators(srv, spec, cfg.Criterion,
			cfg.Point, f.MCU, f.Runs, dram.DeterminismV2)
		if err != nil {
			return nil, err
		}
		chunks[w] = func(tasks []farm.Assigned, out []float64) error {
			c := tr.open("farm.chunk", poolSpan, 0)
			defer tr.close(c)
			return chunk(tasks, out)
		}
		return single, nil
	}
	pool, err := farm.NewPool(workers, xrand.New(req.Seed), factory,
		farm.WithChunkFactory(func(w int) (farm.ChunkEvalFunc, error) {
			return chunks[w], nil
		}))
	if err != nil {
		return err
	}
	for rep := 0; rep < ladderReps; rep++ {
		poolSpan = tr.open("farm.pool_batch", root, 0)
		_, err := pool.EvaluateBatch(ctx, pop)
		tr.close(poolSpan)
		if err != nil {
			return err
		}
	}
	tr.close(root)
	return nil
}

const serviceReps = 20

// serviceLayers times the calls a storm job makes outside the search: the
// durable admission (Scheduler.SubmitDurable with its journal fsync), the
// experiment read behind a virusdb page (DB.Records) and a population append
// (DB.Append).
func serviceLayers(sched *farm.Scheduler, db *virusdb.DB, exp string,
	pop int, tr *tracer) error {
	root := tr.open("service", 0, 0)
	defer tr.close(root)
	noop := func(context.Context, *farm.Job) (any, error) { return nil, nil }
	for i := 0; i < serviceReps; i++ {
		s := tr.open("farm.sched_submit", root, 0)
		j, err := sched.SubmitDurable(farm.JobSpec{Name: "noop", Workers: 1,
			Payload: json.RawMessage(`{}`)}, noop)
		tr.close(s)
		if err != nil {
			return err
		}
		<-j.Done()
	}
	var recs []virusdb.Record
	for i := 0; i < serviceReps; i++ {
		s := tr.open("virusdb.records", root, 0)
		recs = db.Records(exp)
		tr.close(s)
	}
	if len(recs) == 0 {
		return fmt.Errorf("virusdb holds no %s records", exp)
	}
	if len(recs) > pop {
		recs = recs[:pop]
	}
	for i := 0; i < serviceReps; i++ {
		s := tr.open("virusdb.append", root, 0)
		err := db.Append(recs...)
		tr.close(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// traceMetrics derives the per-layer numbers from the spans. A span's self
// time is its duration minus its children and its evaluation count; the
// self time left on the search, first-generation and generation spans is
// what no measurement accounts for (breeding, snapshot encoding, dispatch
// imbalance, preparation).
func traceMetrics(tr *tracer, httpJobMs float64) (map[string]float64, error) {
	kids := map[int][]span{}
	byName := map[string][]span{}
	for _, s := range tr.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
		byName[s.Name] = append(byName[s.Name], s)
	}
	self := func(s span) float64 {
		v := s.ms() - s.EvalMs
		for _, k := range kids[s.ID] {
			v -= k.ms()
		}
		return v
	}
	collect := func(name string, f func(span) float64) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, f(s))
		}
		return xs
	}
	dur := func(s span) float64 { return s.ms() }
	out := map[string]float64{}
	var missing []string
	put := func(name string, xs []float64, scale float64) {
		if len(xs) == 0 {
			missing = append(missing, name)
			return
		}
		out[name] = median(xs) * scale
	}

	put("trace.core.search_s", collect("core.search", dur), 1e-3)
	gens := byName["ga.generation"]
	if len(gens) == 0 {
		// A job that converges on its first generation has no gap between
		// two OnGeneration calls; its only generation is the first one.
		gens = byName["core.first_generation"]
	}
	var genMs, evalMs, genSelf []float64
	for _, g := range gens {
		genMs = append(genMs, g.ms())
		evalMs = append(evalMs, g.EvalMs)
		genSelf = append(genSelf, self(g))
	}
	put("trace.ga.gen_ms_p50", genMs, 1)
	put("trace.farm.eval_ms_per_gen", evalMs, 1)
	put("trace.ga.gen_self_ms_p50", genSelf, 1)
	put("trace.core.ckpt_marshal_ms_p50", collect("core.ckpt_marshal", dur), 1)
	put("trace.farm.journal_append_ms_p50", collect("farm.journal_append", dur), 1)
	put("trace.core.finish_ms", collect("core.finish", dur), 1)

	var searchMs, unattributed, jobMs float64
	for _, s := range byName["core.search"] {
		searchMs += s.ms()
		unattributed += self(s)
	}
	for _, name := range []string{"core.first_generation", "ga.generation"} {
		for _, s := range byName[name] {
			unattributed += self(s)
		}
	}
	for _, s := range byName["job"] {
		jobMs += s.ms()
	}
	if searchMs > 0 {
		out["trace.unattributed_frac"] = unattributed / searchMs
	}
	if httpJobMs > 0 {
		out["trace.gap_frac"] = (httpJobMs - jobMs) / httpJobMs
	}

	var deploy []float64
	for _, eb := range byName["server.evaluate_batch"] {
		var sum float64
		for _, k := range kids[eb.ID] {
			sum += k.ms()
		}
		deploy = append(deploy, sum)
	}
	put("trace.core.deploy_ms", deploy, 1)
	put("trace.server.evaluate_batch_ms", collect("server.evaluate_batch", dur), 1)
	put("trace.dram.kernel_self_ms", collect("server.evaluate_batch", self), 1)
	put("trace.farm.pool_batch_ms", collect("farm.pool_batch", dur), 1)
	put("trace.farm.dispatch_self_ms", collect("farm.pool_batch", func(s span) float64 {
		return s.ms() - unionMs(kids[s.ID])
	}), 1)
	put("trace.farm.sched_submit_ms", collect("farm.sched_submit", dur), 1)
	put("trace.virusdb.records_ms", collect("virusdb.records", dur), 1)
	put("trace.virusdb.append_ms", collect("virusdb.append", dur), 1)
	if len(missing) > 0 {
		return out, fmt.Errorf("trace has no spans for %v", missing)
	}
	return out, nil
}

// unionMs is the length of the union of the spans' intervals: two workers'
// chunks overlap, and dispatch is only the time neither covers.
func unionMs(ss []span) float64 {
	ss = append([]span(nil), ss...)
	sort.Slice(ss, func(i, k int) bool { return ss[i].Start < ss[k].Start })
	var total, end float64
	for i, s := range ss {
		switch {
		case i == 0 || s.Start > end:
			total += s.End - s.Start
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total / 1000
}
