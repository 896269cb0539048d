package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/fleet"
	"dstress/internal/virusdb"
)

// env is what every run shares: the daemon binary, where runs keep their
// files, the client and its connection count, and the golden digests.
type env struct {
	daemonBin string
	dataDir   string
	traceOut  string // span file of a traced run; "" picks one under dataDir
	scaleName string
	sc        scale
	clients   int
	conns     *connCounter
	hc        *http.Client
	golden    goldenFile
}

// report is one run of one workload.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Values    map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	PeakConns int64              `json:"peak_client_conns"`
	Clients   int                `json:"clients"`
	// Digest covers each client's first goldenJobs jobs (see digestOf).
	Digest string `json:"digest"`
}

func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// metricsView is the part of /api/v1/metrics the benchmark reads.
type metricsView struct {
	Farm  farm.MetricsSnapshot `json:"farm"`
	Cache farm.CacheStats      `json:"cache"`
	Fleet fleet.Status         `json:"fleet"`
	Eval  dram.EvalStats       `json:"eval"`
}

// daemon is one started dstressd, plus its fleet worker when it has one.
type daemon struct {
	main, worker *proc
	api          api
}

func (d *daemon) stop() {
	d.worker.stop()
	d.main.stop()
}

// cpuTime is the CPU time the daemon and its worker have used so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	m, err := d.main.cpuTime()
	if err != nil {
		return 0, err
	}
	w, err := d.worker.cpuTime()
	return m + w, err
}

// sampleRSS reads the resident sets of the daemon and of its worker (if
// any) every 100 ms until stop is closed. The median of the samples is
// steadier than the peak, which depends on where the garbage collector's
// cycles happened to fall.
func (d *daemon) sampleRSS(stop <-chan struct{}) (main, worker []float64) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		if mb, err := d.main.rssMB("VmRSS"); err == nil {
			main = append(main, mb)
		}
		if d.worker != nil {
			if mb, err := d.worker.rssMB("VmRSS"); err == nil {
				worker = append(worker, mb)
			}
		}
		select {
		case <-stop:
			return main, worker
		case <-tick.C:
		}
	}
}

// start launches dstressd and returns once /api/v1/metrics answers 200,
// with the time from exec to that first answer.
func (e *env) start(ctx context.Context, dir string, args []string,
	token string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	p, err := startProc(e.daemonBin, filepath.Join(dir, "dstressd.log"),
		append(args, "-addr", addr)...)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{main: p, api: api{hc: e.hc, base: "http://" + addr, token: token}}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var mv metricsView
		err := d.api.getJSON(ctx, "/api/v1/metrics", &mv)
		if err == nil {
			return d, time.Since(t0), nil
		}
		if p.exited() || time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, 0, fmt.Errorf("dstressd did not come up: %v\n%s", err, p.tail())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// startWorker joins one fleet worker to d and waits until the coordinator
// lists it.
func (e *env) startWorker(ctx context.Context, dir string, d *daemon) error {
	p, err := startProc(e.daemonBin, filepath.Join(dir, "worker.log"), "-worker",
		"-coordinator", d.api.base, "-worker-name", "dstressbench-w1")
	if err != nil {
		return err
	}
	d.worker = p
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !p.exited() {
		var mv metricsView
		if err := d.api.getJSON(ctx, "/api/v1/metrics", &mv); err == nil &&
			len(mv.Fleet.Workers) > 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("fleet worker did not join\n%s", p.tail())
}

// run measures one workload once: set up a store, time cold starts, run
// the closed loops for the given window, read the daemon's counters, stop
// it, then replay jobs in-process to check the results (traced when
// trace is set).
func (e *env) run(ctx context.Context, w workload, seed uint64, window time.Duration,
	trace bool) (*report, error) {
	dir, err := os.MkdirTemp(e.dataDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dbPath, jlPath := filepath.Join(dir, "virusdb"), filepath.Join(dir, "journal")
	if w.preseed > 0 {
		if err := preseedStore(dbPath, w.preseed, w.preseedExps, seed); err != nil {
			return nil, fmt.Errorf("pre-seeding the store: %w", err)
		}
	}
	args := []string{"-budget", "2", "-db", dbPath, "-journal", jlPath}
	tokens := []string{""}
	clients := 1
	if w.storm {
		clients = e.clients
		cfg, toks := authConfig(clients)
		authPath := filepath.Join(dir, "auth.json")
		if err := os.WriteFile(authPath, cfg, 0o600); err != nil {
			return nil, err
		}
		args = append(args, "-auth", authPath)
		tokens = toks
	}

	var setups []float64
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
		e.hc.CloseIdleConnections()
	}()
	for k := 0; k < e.sc.coldStarts; k++ {
		if d != nil {
			d.stop()
			e.hc.CloseIdleConnections()
		}
		var took time.Duration
		if d, took, err = e.start(ctx, dir, args, tokens[0]); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	if w.fleet {
		if err := e.startWorker(ctx, dir, d); err != nil {
			return nil, err
		}
	}

	rep := &report{Workload: w.name, Seed: seed, Clients: clients,
		Values: map[string]float64{}, Samples: map[string]int{}}
	// Each client's job 0 runs before the window: it pays the daemon's lazy
	// set-up (pools, scratch) once, as any long-lived daemon has already.
	loop := func(from int, until time.Time) [][]jobSample {
		out := make([][]jobSample, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cli := d.api
				cli.token = tokens[c]
				for i := from; i == from || time.Now().Before(until); i++ {
					s := cli.cycle(ctx, w.job(seed, c, i))
					s.client, s.index = c, i
					out[c] = append(out[c], s)
					if from == 0 || ctx.Err() != nil {
						break
					}
				}
			}(c)
		}
		wg.Wait()
		return out
	}
	warm := loop(0, time.Time{})
	var before metricsView
	if err := d.api.getJSON(ctx, "/api/v1/metrics", &before); err != nil {
		return nil, err
	}
	db0, err := dirBytes(dbPath)
	if err != nil {
		return nil, err
	}
	var rss, workerRSS []float64
	rssDone := make(chan struct{})
	stopRSS := make(chan struct{})
	go func() {
		rss, workerRSS = d.sampleRSS(stopRSS)
		close(rssDone)
	}()
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	timed := loop(1, start.Add(window))
	wall := time.Since(start)
	close(stopRSS)
	<-rssDone
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	var after metricsView
	if err := d.api.getJSON(ctx, "/api/v1/metrics", &after); err != nil {
		return nil, err
	}
	peak, err := d.main.rssMB("VmHWM")
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil
	e.hc.CloseIdleConnections()
	dbBytes, err := dirBytes(dbPath)
	if err != nil {
		return nil, err
	}
	jlBytes, err := dirBytes(jlPath)
	if err != nil {
		return nil, err
	}

	byJob := map[[2]int]jobSample{}
	var all []jobSample
	for c := 0; c < clients; c++ {
		all = append(all, warm[c]...)
		all = append(all, timed[c]...)
	}
	for _, s := range all {
		byJob[[2]int{s.client, s.index}] = s
		rep.Attempted += s.attempted
		rep.Failed += s.failed
		if s.err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s client %d job %d: %v",
				w.name, s.client, s.index, s.err))
		}
	}

	// Window metrics, over the timed jobs that completed.
	var submit, turn, query, cycle, evalRate, gaps, admit, runMs, lag []float64
	var events, gens int
	for c := 0; c < clients; c++ {
		for _, s := range timed[c] {
			if s.err != nil {
				continue
			}
			submit = append(submit, ms(s.submit))
			turn = append(turn, ms(s.turnaround))
			query = append(query, ms(s.query))
			cycle = append(cycle, s.cycle.Seconds())
			evalRate = append(evalRate, float64(s.result.Evaluations)/s.cycle.Seconds())
			gaps = append(gaps, s.genGapsMs...)
			st := s.status
			if st.Started != nil && st.Finished != nil {
				admit = append(admit, ms(st.Started.Sub(st.Submitted)))
				runMs = append(runMs, ms(st.Finished.Sub(*st.Started)))
				lag = append(lag, ms(s.received.Sub(*st.Finished)))
			}
			events += s.events
			gens += s.result.Generations
		}
	}
	jobs := len(turn)
	rep.Samples["jobs"] = jobs
	rep.Samples["generation_gaps"] = len(gaps)
	if jobs == 0 || len(gaps) == 0 {
		rep.fail("%s: no completed job with two generations in the window", w.name)
		return rep, nil
	}
	// Closed-loop throughput from the median cycle: a few slow cycles, when
	// the machine is busy with something else, move it less than a total.
	v := rep.Values
	v["setup_s"] = median(setups)
	v["jobs_per_s"] = float64(clients) / median(cycle)
	v["evals_per_s"] = float64(clients) * median(evalRate)
	v["turnaround_ms_p50"] = median(turn)
	v["rss_mb_p50"] = median(rss)
	v["fleet.worker_rss_mb_p50"] = 0
	if len(workerRSS) > 0 {
		v["fleet.worker_rss_mb_p50"] = median(workerRSS)
	}
	v["store_kb_per_job"] = float64(dbBytes-db0) / 1024 / float64(jobs)

	v["dstressd.turnaround_ms_p99"] = percentile(turn, 0.99)
	v["dstressd.gen_ms_p50"] = median(gaps)
	v["dstressd.submit_ms_p50"] = median(submit)
	v["dstressd.submit_ms_p99"] = percentile(submit, 0.99)
	v["dstressd.query_ms_p50"] = median(query)
	v["dstressd.query_ms_p99"] = percentile(query, 0.99)
	v["dstressd.peak_rss_mb"] = peak
	v["dstressd.cpu_ms_per_job"] = ms(cpu1-cpu0) / float64(jobs)
	v["farm.admit_wait_ms_p50"] = median(admit)
	v["farm.admit_wait_ms_p99"] = percentile(admit, 0.99)
	v["farm.run_ms_p50"] = median(runMs)
	v["farm.run_ms_p99"] = percentile(runMs, 0.99)
	v["dstressd.result_lag_ms_p50"] = median(lag)
	v["dstressd.sse_events_per_gen"] = ratio(float64(events), float64(gens))
	v["farm.evals"] = float64(after.Farm.Evaluations - before.Farm.Evaluations)
	v["farm.utilization"] = (after.Farm.BusySeconds - before.Farm.BusySeconds) /
		(2 * wall.Seconds())
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	v["farm.cache_hit_rate"] = ratio(hits, hits+float64(after.Cache.Misses-before.Cache.Misses))
	ev := func(f func(dram.EvalStats) uint64) float64 { return float64(f(after.Eval) - f(before.Eval)) }
	v["dram.plan_compiles"] = ev(func(s dram.EvalStats) uint64 { return s.PlanCompiles })
	v["dram.plan_splices"] = ev(func(s dram.EvalStats) uint64 { return s.PlanSplices })
	v["dram.rows_recompiled"] = ev(func(s dram.EvalStats) uint64 { return s.RowsRecompiled })
	v["dram.rows_copied"] = ev(func(s dram.EvalStats) uint64 { return s.RowsCopied })
	gets := ev(func(s dram.EvalStats) uint64 { return s.PoolGets })
	v["dram.pool_hit_rate"] = ratio(gets, gets+ev(func(s dram.EvalStats) uint64 { return s.PoolMisses }))
	condHits := ev(func(s dram.EvalStats) uint64 { return s.CondHits })
	v["dram.cond_hit_rate"] = ratio(condHits,
		condHits+ev(func(s dram.EvalStats) uint64 { return s.CondRebuilds }))
	v["fleet.remote_tasks"] = float64(after.Fleet.RemoteTasks - before.Fleet.RemoteTasks)
	v["fleet.contexts_elided"] = float64(after.Fleet.ContextsElided - before.Fleet.ContextsElided)
	v["virusdb.store_mb"] = float64(dbBytes) / (1 << 20)
	v["journal.store_mb"] = float64(jlBytes) / (1 << 20)

	e.checkGolden(rep, w, seed, byJob, clients)
	if err := e.postRun(ctx, rep, w, seed, dir, byJob, clients, trace); err != nil {
		return nil, err
	}
	rep.PeakConns = e.conns.peak.Load()
	if rep.PeakConns > int64(e.clients) {
		rep.fail("client held %d connections at once, over its limit of %d",
			rep.PeakConns, e.clients)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// postRun replays jobs in-process against the run's own store and journal:
// their results must equal what the daemon reported. With trace set the
// replay records spans, and the evaluation ladder and service calls are
// timed on the same store.
func (e *env) postRun(ctx context.Context, rep *report, w workload, seed uint64,
	dir string, byJob map[[2]int]jobSample, clients int, trace bool) error {
	var jobs []jobRequest
	var viaHTTP []jobResult
	var httpMs float64
	perClient := 1
	if w.storm {
		perClient = e.sc.replays
	}
	for c := 0; c < clients && (w.storm || c == 0); c++ {
		for i := 0; i < perClient; i++ {
			s, ok := byJob[[2]int{c, i}]
			if !ok || s.err != nil {
				continue
			}
			jobs = append(jobs, w.job(seed, c, i))
			viaHTTP = append(viaHTTP, s.result)
			httpMs += ms(s.turnaround)
		}
	}
	if len(jobs) == 0 {
		rep.fail("%s: no completed job to replay", w.name)
		return nil
	}
	db, err := virusdb.Open(filepath.Join(dir, "virusdb"))
	if err != nil {
		return err
	}
	defer db.Close()
	jl, err := farm.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	defer jl.Close()
	sched, err := farm.NewScheduler(2)
	if err != nil {
		return err
	}
	sched.SetJournal(jl)
	defer func() {
		sched.Close()
		sched.Wait()
	}()

	var tr *tracer
	if trace {
		tr = newTracer()
	}
	got, err := replay(ctx, sched, db, jobs, tr)
	if err != nil {
		return err
	}
	for k, req := range jobs {
		if got[k].result != viaHTTP[k] {
			rep.fail("%s: job %s over HTTP %+v, in-process %+v", w.name, req.Name,
				viaHTTP[k], got[k].result)
		}
	}
	if !trace {
		return nil
	}
	if err := ladder(ctx, jobs[0], tr); err != nil {
		return fmt.Errorf("evaluation ladder: %w", err)
	}
	if err := serviceLayers(sched, db, got[0].result.Experiment,
		jobs[0].Population, tr); err != nil {
		return fmt.Errorf("service layers: %w", err)
	}
	vals, err := traceMetrics(tr, httpMs)
	for k, x := range vals {
		rep.Values[k] = x
	}
	if err != nil {
		rep.fail("%s: %v", w.name, err)
	}
	out := e.traceOut
	if out == "" {
		out = filepath.Join(e.dataDir, "trace-"+w.name+".json")
	}
	return tr.write(out, w.name, seed)
}

// checkGolden records the digest of the first jobs of every client and,
// at the golden seed, compares it with golden.json; other seeds rely on the
// in-process replay.
func (e *env) checkGolden(rep *report, w workload, seed uint64,
	byJob map[[2]int]jobSample, clients int) {
	got, err := digestOf(byJob, clients)
	if err != nil {
		rep.fail("%s: golden check: %v", w.name, err)
		return
	}
	rep.Digest = got
	g, ok := e.golden[e.scaleName][w.name]
	if ok && g.Seed == seed && g.Clients == clients && got != g.Digest {
		rep.fail("%s: results digest %s, golden %s", w.name, got, g.Digest)
	}
}

// digestOf hashes seed, best fitness, evaluations and mean CE of each
// client's first goldenJobs jobs.
func digestOf(byJob map[[2]int]jobSample, clients int) (string, error) {
	h := sha256.New()
	for c := 0; c < clients; c++ {
		for i := 0; i < goldenJobs; i++ {
			s, ok := byJob[[2]int{c, i}]
			if !ok || s.err != nil {
				return "", errors.New("a golden job did not complete")
			}
			h.Write([]byte(goldenLine(s.seed, s.result)))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
