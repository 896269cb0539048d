// Command dstressd is the campaign daemon: it keeps one evaluation farm —
// worker budget, shared fitness cache, shared virus database — and runs
// submitted synthesis searches concurrently on it, the way the paper's
// experimental campaign keeps the testbed busy around the clock. Jobs are
// submitted, watched and cancelled over HTTP.
//
// Usage:
//
//	dstressd -addr :8080 -budget 8 [-db viruses.json] [-journal jobs.journal]
//	         [-drain 30s] [-rows 16] [-seed 2020]
//	dstressd -worker -coordinator http://host:8080 [-worker-name n2]
//
// The second form joins another dstressd as a fleet worker: the daemon
// shards each generation's evaluations over whatever workers are registered
// (internal/fleet), with results bit-identical to the purely local run at
// any worker count — including zero, which degrades to the local farm.
//
// With -journal, jobs are durable: every submission is journaled before it
// runs and every search checkpoints each generation, so a daemon killed
// mid-campaign re-queues its interrupted jobs on the next start and resumes
// each from its last checkpointed generation, bit-identically. SIGTERM
// triggers a graceful drain: running searches are cancelled, flush their
// final checkpoint, and the daemon exits once they settle (or the -drain
// deadline passes — the journal still holds whatever was flushed).
//
// Endpoints (each registered once, under /api/v1):
//
//	POST /api/v1/jobs            submit a search (JSON body, see jobRequest)
//	GET  /api/v1/jobs            list all jobs
//	GET  /api/v1/jobs/{id}       one job's status and, when finished, result
//	GET  /api/v1/jobs/{id}/wait  the same, but blocks until the job finishes;
//	                             with Accept: text/event-stream, an SSE
//	                             progress stream instead (see serveSSE)
//	POST /api/v1/jobs/{id}/cancel
//	GET  /api/v1/virusdb         experiments; with ?experiment=... the
//	                             records, paged by limit/offset/min_fitness
//	GET  /api/v1/metrics         farm/cache/scheduler/fleet/eval counters
//	POST /api/v1/fleet/{join,heartbeat,lease,report}  fleet worker protocol
//
// /debug/pprof/ serves live profiles outside the API.
//
// With -auth, the API surface (the fleet worker verbs included) requires a
// bearer token; each token maps to a tenant whose scheduler quotas, priority
// weight and metrics are tracked separately (see authConfig). Without it,
// every client is the "anonymous" tenant. A submission rejected by its
// tenant's quota answers 429 quota_exceeded. Job visibility is scoped to
// the owning tenant: another tenant's job answers 404 exactly like a
// missing one (ids are sequential, so a 403 would leak liveness), and the
// job list and the scheduler section of the metrics show only the caller's
// own jobs — unless the tenant is listed under the config's "admins".
//
// Every error — unknown endpoints and unknown job ids included — answers
// with the uniform JSON envelope {"error":{"code","message"}}, so fleet
// clients can tell "gone" from a transport failure mechanically.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dstress/internal/core"
	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/fleet"
	"dstress/internal/ga"
	"dstress/internal/islands"
	"dstress/internal/predict"
	"dstress/internal/server"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

// daemon owns the shared campaign state.
type daemon struct {
	sched      *farm.Scheduler
	db         *virusdb.DB   // may be nil (no persistence)
	journal    *farm.Journal // may be nil (jobs die with the process)
	cache      *farm.Cache
	metrics    *farm.Metrics
	islandsMet *islands.Metrics
	fleet      *fleet.Coordinator
	auth       *authConfig // nil: auth off, every request is anonymous
	rows       int
	seed       uint64
}

// setAuth installs the token→tenant map and pushes the per-tenant limits
// into the scheduler. Call before the handler serves traffic.
func (d *daemon) setAuth(cfg *authConfig) {
	d.auth = cfg
	if cfg != nil && len(cfg.Tenants) > 0 {
		d.sched.SetTenantLimits(cfg.Tenants)
	}
}

func newDaemon(budget, rows int, seed uint64, db *virusdb.DB,
	journal *farm.Journal, fcfg fleet.Config) (*daemon, error) {
	sched, err := farm.NewScheduler(budget)
	if err != nil {
		return nil, err
	}
	if journal != nil {
		sched.SetJournal(journal)
	}
	cache := farm.NewCache()
	// Hits are reuse within one job, and 4096 entries hold several jobs'
	// worth; a larger limit only grows the resident set as the store fills.
	cache.SetLimit(1 << 12)
	return &daemon{
		sched:      sched,
		db:         db,
		journal:    journal,
		cache:      cache,
		metrics:    farm.NewMetrics(),
		islandsMet: islands.NewMetrics(),
		fleet:      fleet.NewCoordinator(fcfg),
		rows:       rows,
		seed:       seed,
	}, nil
}

// jobRequest is the submission body. Zero fields take daemon defaults.
type jobRequest struct {
	Name        string  `json:"name"`
	Template    string  `json:"template"`  // data64|data24k|data512k|access-rows|access-coeffs
	Criterion   string  `json:"criterion"` // max-ce|min-ce|max-ue
	TempC       float64 `json:"temp_c"`
	Generations int     `json:"generations"`
	Population  int     `json:"population"`
	Workers     int     `json:"workers"`
	// Priority orders admission when the farm is saturated: higher admits
	// first, FIFO within equal (tenant-weighted) priority. Zero is the
	// default band. Clamped to [0, maxPriority] at submit, so a client
	// cannot declare its way past the tenant weights the operator set.
	Priority int    `json:"priority,omitempty"`
	Seed     uint64 `json:"seed"`
	Rows     int    `json:"rows"`
	Runs     int    `json:"runs"`
	// Fill is the fixed data background of the access templates, as a hex
	// string ("0x3333333333333333") — JSON numbers cannot carry 64 bits.
	Fill     string  `json:"fill"`
	Resume   bool    `json:"resume"`
	TimeoutS float64 `json:"timeout_s"`
	// CheckpointEvery is the checkpoint interval in generations when the
	// daemon runs with a journal; <= 0 means every generation.
	CheckpointEvery int `json:"checkpoint_every"`
	// Determinism selects the dram evaluation contract: "" or "v1" for the
	// sequential draw-order contract, "v2" for the counter-stream contract
	// (order-independent, faster). Both are deterministic; they draw
	// different noise for the same seed, so a job must not change contract
	// mid-campaign — the setting rides in checkpoints and fleet shards.
	Determinism string `json:"determinism,omitempty"`
	// Islands, when non-nil, runs the search as an island model (see
	// internal/islands and DESIGN.md §11): {"count":4,"migrate_every":5,
	// "migrate_count":2}. Absent fields take the islands defaults.
	Islands *islands.Config `json:"islands,omitempty"`
	// Surrogate, when non-nil, overrides Islands.Surrogate — the screening
	// policy can be toggled without restating the topology. Setting it alone
	// (no Islands) runs a single island with screening.
	Surrogate *predict.ScreenPolicy `json:"surrogate,omitempty"`
}

// maxPriority bounds the client-declared admission priority. The tenant
// weights an operator configures are chosen relative to this range: an
// unbounded declared priority would simply be added to the weight in the
// scheduler, letting any tenant outrank every weighted tenant forever.
const maxPriority = 9

// Caps on the tenant-controlled sizes of a submission. The simulated DIMM
// grows with rows (its weak-cell population is banks·rows/2, sampled into
// 32-bit row keys), so an unbounded request could take the daemon — and
// every fleet worker that rebuilds the same server — down for every tenant.
// maxRows is a DDR3 bank's row count; everything in-tree runs at ≤ 128 rows
// and ≤ 64 genomes.
const (
	maxRows         = 65536
	maxPopulation   = 4096
	maxRequestBytes = 1 << 20 // submit body
)

// parseJobRequest is the one place a jobRequest becomes an evaluation
// environment: the template (with its fill), the criterion and the
// determinism contract, after the size caps. prepare runs it on every
// submission and journal replay, and a fleet worker on every shipped
// context, so coordinator and workers cannot read a request differently.
func parseJobRequest(req jobRequest) (core.Spec, core.Criterion,
	dram.DeterminismVersion, error) {
	if req.Rows > maxRows {
		return nil, 0, 0, fmt.Errorf("rows %d exceeds the cap of %d", req.Rows, maxRows)
	}
	if req.Population > maxPopulation {
		return nil, 0, 0, fmt.Errorf("population %d exceeds the cap of %d",
			req.Population, maxPopulation)
	}
	fill := uint64(0x3333333333333333)
	if req.Fill != "" {
		v, err := strconv.ParseUint(req.Fill, 0, 64)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("bad fill: %w", err)
		}
		fill = v
	}
	var spec core.Spec
	switch req.Template {
	case "", "data64":
		spec = core.Data64Spec{}
	case "data24k":
		spec = core.NewData24KSpec()
	case "data512k":
		spec = core.NewData512KSpec()
	case "access-rows":
		spec = core.NewAccessRowsSpec(fill)
	case "access-coeffs":
		spec = core.NewAccessCoeffsSpec(fill)
	default:
		return nil, 0, 0, fmt.Errorf("unknown template %q", req.Template)
	}
	var crit core.Criterion
	switch req.Criterion {
	case "", "max-ce":
		crit = core.MaxCE
	case "min-ce":
		crit = core.MinCE
	case "max-ue":
		crit = core.MaxUE
	default:
		return nil, 0, 0, fmt.Errorf("unknown criterion %q", req.Criterion)
	}
	var det dram.DeterminismVersion
	switch req.Determinism {
	case "", "v1":
		det = dram.DeterminismV1
	case "v2":
		det = dram.DeterminismV2
	default:
		return nil, 0, 0, fmt.Errorf("unknown determinism %q (want v1 or v2)",
			req.Determinism)
	}
	return spec, crit, det, nil
}

// jobResult is what a finished search reports back through the job handle.
type jobResult struct {
	Experiment  string  `json:"experiment"`
	Generations int     `json:"generations"`
	Converged   bool    `json:"converged"`
	Canceled    bool    `json:"canceled"`
	BestFitness float64 `json:"best_fitness"`
	Evaluations int     `json:"evaluations"`
	MeanCE      float64 `json:"mean_ce"`
	UEFrac      float64 `json:"ue_frac"`
	Population  int     `json:"population"`
}

// prepared is a validated, default-filled job submission, ready to launch —
// either fresh from the API or rebuilt from a journal entry on restart.
type prepared struct {
	req     jobRequest
	spec    core.Spec
	crit    core.Criterion
	det     dram.DeterminismVersion
	islands islands.Config
	name    string
	tenant  string // server-assigned: auth middleware or journal entry, never the body
	// recovered marks a journal re-queue: quota checks were already passed
	// by the process that first admitted the job and are skipped on re-entry.
	recovered bool
	timeout   time.Duration
}

// gaParams builds the engine parameters exactly as runSearch will; prepare
// validates the island configuration against them so a bad submission is a
// 400 at the API, not a failed job minutes later.
func (p prepared) gaParams() ga.Params {
	params := ga.DefaultParams()
	params.MaxGenerations = p.req.Generations
	if p.req.Population > 0 {
		params.PopulationSize = p.req.Population
	}
	return params
}

func (d *daemon) prepare(req jobRequest) (prepared, error) {
	if req.TempC == 0 {
		req.TempC = 55
	}
	if req.Generations <= 0 {
		req.Generations = 120
	}
	if req.Workers <= 0 {
		req.Workers = 1
	}
	if req.Rows <= 0 {
		req.Rows = d.rows
	}
	if req.Seed == 0 {
		req.Seed = d.seed
	}
	// Clamp, don't reject: old journals may carry out-of-range priorities
	// and recovery funnels through here too.
	if req.Priority < 0 {
		req.Priority = 0
	} else if req.Priority > maxPriority {
		req.Priority = maxPriority
	}
	spec, crit, det, err := parseJobRequest(req)
	if err != nil {
		return prepared{}, err
	}
	var icfg islands.Config
	if req.Islands != nil {
		icfg = *req.Islands
	}
	if req.Surrogate != nil {
		icfg.Surrogate = *req.Surrogate
	}
	icfg = icfg.Normalize()
	name := req.Name
	if name == "" {
		name = fmt.Sprintf("%s/%s/%.0fC", spec.Name(), crit, req.TempC)
	}
	p := prepared{
		req:     req,
		spec:    spec,
		crit:    crit,
		det:     det,
		islands: icfg,
		name:    name,
		timeout: time.Duration(req.TimeoutS * float64(time.Second)),
	}
	if err := icfg.Validate(p.gaParams()); err != nil {
		return prepared{}, err
	}
	return p, nil
}

// errBadCheckpoint marks a journaled checkpoint that does not decode.
var errBadCheckpoint = errors.New("bad checkpoint")

// launch schedules a prepared job. ckpt, when non-empty, is a
// core.EncodeCheckpoint encoding the search continues from (a re-queued
// interrupted job); one that does not decode is an errBadCheckpoint error,
// returned before anything is scheduled.
func (d *daemon) launch(p prepared, ckpt []byte) (*farm.Job, error) {
	var cp *core.Checkpoint
	if len(ckpt) > 0 {
		var err error
		if cp, err = core.DecodeCheckpoint(ckpt); err != nil {
			return nil, fmt.Errorf("%w for %q: %v", errBadCheckpoint, p.name, err)
		}
	}
	fn := func(ctx context.Context, j *farm.Job) (any, error) {
		return d.runSearch(ctx, j, p, cp)
	}
	spec := farm.JobSpec{
		Name:      p.name,
		Tenant:    p.tenant,
		Priority:  p.req.Priority,
		Workers:   p.req.Workers,
		Timeout:   p.timeout,
		Recovered: p.recovered,
	}
	if d.journal == nil {
		return d.sched.SubmitJob(spec, fn)
	}
	payload, err := json.Marshal(p.req)
	if err != nil {
		return nil, err
	}
	spec.Payload = payload
	spec.Checkpoint = ckpt
	return d.sched.SubmitDurable(spec, fn)
}

func (d *daemon) submitJob(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	p, err := d.prepare(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	p.tenant = tenantOf(r)
	job, err := d.launch(p, nil)
	if err != nil {
		code := http.StatusServiceUnavailable
		switch {
		case errors.Is(err, farm.ErrBudgetExceeded):
			// The client asked for more than this daemon will ever have; a
			// retry without changing the request cannot succeed.
			code = http.StatusBadRequest
		case errors.Is(err, farm.ErrQuotaExceeded):
			// The tenant's cap, not the daemon's capacity: retry once the
			// tenant's own jobs drain.
			code = http.StatusTooManyRequests
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// recoverJobs re-queues every job a previous process left in the journal,
// each resuming from its last flushed checkpoint (or from scratch if it
// never reached one, or if that checkpoint no longer decodes: the job's
// spec alone reproduces its result, so it is never dropped for its
// checkpoint).
func (d *daemon) recoverJobs() {
	for _, e := range d.journal.Recovered() {
		var req jobRequest
		if err := json.Unmarshal(e.Spec, &req); err != nil {
			log.Printf("dstressd: journal entry %d (%s): unreadable spec: %v",
				e.ID, e.Name, err)
			continue
		}
		p, err := d.prepare(req)
		if err != nil {
			log.Printf("dstressd: journal entry %d (%s): %v", e.ID, e.Name, err)
			continue
		}
		// The journal, not the replayed body, is authoritative for admission
		// identity: re-queue under the same tenant (and the body's journaled
		// priority), so recovery preserves quota accounting and ordering.
		// Recovered submissions bypass the quota check — the previous process
		// already admitted this work, and a tenant whose limits were lowered
		// between restarts must not lose a durable job to the new caps.
		p.tenant = e.Tenant
		p.recovered = true
		if budget := d.sched.Budget(); p.req.Workers > budget {
			// Durable submissions are rejected, not clamped, when they exceed
			// the budget — but a journaled job must not be lost just because
			// the daemon restarted smaller. Shrink it explicitly and say so.
			log.Printf("dstressd: journal entry %d (%s): %d workers exceed "+
				"budget %d, clamping", e.ID, e.Name, p.req.Workers, budget)
			p.req.Workers = budget
		}
		ckpt := []byte(e.Checkpoint)
		j, err := d.launch(p, ckpt)
		if errors.Is(err, errBadCheckpoint) {
			log.Printf("dstressd: journal entry %d (%s): %v; restarting it from scratch",
				e.ID, e.Name, err)
			ckpt = nil
			j, err = d.launch(p, nil)
		}
		if err != nil {
			log.Printf("dstressd: re-queueing %q: %v", e.Name, err)
			continue
		}
		from := "from scratch"
		if len(ckpt) > 0 {
			from = "from its last checkpoint"
		}
		log.Printf("dstressd: re-queued interrupted job %q as #%d, resuming %s",
			e.Name, j.ID(), from)
	}
}

// runSearch is the job body: a fresh simulated server and framework per job
// (jobs must not share mutable hardware state), the daemon's database, cache
// and metrics shared across all of them. A non-nil cp continues the
// checkpointed search instead of starting one.
func (d *daemon) runSearch(ctx context.Context, j *farm.Job, p prepared,
	cp *core.Checkpoint) (any, error) {
	req := p.req
	srv, err := server.New(server.DefaultConfig(req.Rows, req.Seed))
	if err != nil {
		return nil, err
	}
	f, err := core.New(srv, xrand.New(req.Seed))
	if err != nil {
		return nil, err
	}
	if req.Runs > 0 {
		f.Runs = req.Runs
	}
	f.DB = d.db
	params := p.gaParams()
	maxGen := params.MaxGenerations
	cfg := core.SearchConfig{
		Spec:          p.spec,
		Criterion:     p.crit,
		Point:         core.Relaxed(req.TempC),
		Determinism:   p.det,
		GA:            params,
		Resume:        req.Resume,
		Workers:       req.Workers,
		Cache:         d.cache,
		Metrics:       d.metrics,
		Islands:       p.islands,
		IslandMetrics: d.islandsMet,
		OnGeneration: func(st ga.GenStats) {
			j.Progress(st.Generation, maxGen, st.Best)
		},
	}
	// Every search runs through the fleet session: with no remote workers
	// registered it degrades to the local pool bit-identically, and any
	// worker that joins mid-campaign starts absorbing shards immediately.
	// The shipped context is the default-filled request — everything a
	// worker needs to rebuild the evaluation environment.
	if evalCtx, err := json.Marshal(p.req); err == nil {
		cfg.Fleet = d.fleet
		cfg.FleetContext = evalCtx
	}
	if d.journal != nil {
		cfg.CheckpointEvery = req.CheckpointEvery
		cfg.OnCheckpoint = func(c *core.Checkpoint) {
			raw, err := core.EncodeCheckpoint(c)
			if err == nil {
				err = j.Checkpoint(raw)
			}
			if err != nil {
				// The search is still sound without the journal update; the
				// job just re-queues from an older generation after a crash.
				log.Printf("dstressd: journaling checkpoint for %q: %v",
					p.name, err)
			}
		}
	}
	var res *core.SearchResult
	if cp != nil {
		res, err = f.RunSearchFrom(ctx, cfg, cp)
	} else {
		res, err = f.RunSearchContext(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	return jobResult{
		Experiment:  res.Experiment,
		Generations: res.Generations,
		Converged:   res.Converged,
		Canceled:    res.Canceled,
		BestFitness: res.BestFitness,
		Evaluations: res.Evaluations,
		MeanCE:      res.BestMeasurement.MeanCE,
		UEFrac:      res.BestMeasurement.UEFrac,
		Population:  len(res.Population),
	}, nil
}

// scopedTenant returns the tenant the request's job visibility is limited
// to, or "" when the caller may see everything: auth is off, or the tenant
// is an admin (authConfig.Admins).
func (d *daemon) scopedTenant(r *http.Request) string {
	if d.auth == nil {
		return ""
	}
	tenant := tenantOf(r)
	if d.auth.isAdmin(tenant) {
		return ""
	}
	return tenant
}

// scoped keeps the entries of xs accounted under scope (a scopedTenant
// result; "" keeps everything). owner names an entry's tenant.
func scoped[T any](scope string, xs []T, owner func(T) string) []T {
	if scope == "" {
		return xs
	}
	kept := xs[:0]
	for _, x := range xs {
		if owner(x) == scope {
			kept = append(kept, x)
		}
	}
	return kept
}

func jobTenant(st farm.JobStatus) string { return st.Tenant }

func (d *daemon) listJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, scoped(d.scopedTenant(r), d.sched.Jobs(), jobTenant))
}

// jobRef is a job-scoped route's resolved target: the live job, or — once
// the retention policy evicted it — nil plus the terminal status stub its
// journal entry still backs.
type jobRef struct {
	job  *farm.Job
	stub farm.JobStatus
}

// view renders the target: the live job's status and, when finished, its
// result; an evicted job's stub, without the (discarded) result.
func (ref jobRef) view() jobView {
	if ref.job == nil {
		return jobView{JobStatus: ref.stub}
	}
	return viewOf(ref.job)
}

// jobRoute is the one guard in front of every job-scoped route: it parses
// {id}, resolves it to a live job or a journal stub, and checks that the
// caller may see it before the handler runs. Another tenant's job answers
// exactly like a missing one: job ids are small sequential integers, and a
// 403 would confirm to a probing tenant which ids are live.
func (d *daemon) jobRoute(h func(http.ResponseWriter, *http.Request, jobRef)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad job id"))
			return
		}
		var ref jobRef
		var owner string
		ok := false
		if ref.job, ok = d.sched.Job(id); ok {
			owner = ref.job.Tenant()
		} else if ref.stub, ok = d.sched.Status(id); ok {
			owner = ref.stub.Tenant
		}
		if scope := d.scopedTenant(r); !ok || (scope != "" && scope != owner) {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
			return
		}
		h(w, r, ref)
	}
}

// jobView is the GET /api/v1/jobs/{id} response.
type jobView struct {
	farm.JobStatus
	Result *jobResult `json:"result,omitempty"`
}

// viewOf reports a job with its result once the job is terminal. It goes by
// the state, not by Done(): the scheduler sets the state and the result in
// one locked section, but closes Done() only after the journal has retired
// the job, so a done job would otherwise answer without its result for the
// length of that fsync.
func viewOf(j *farm.Job) jobView {
	view := jobView{JobStatus: j.Status()}
	if view.State == farm.JobPending || view.State == farm.JobRunning {
		return view
	}
	if res, _ := j.Result(); res != nil {
		if jr, ok := res.(jobResult); ok {
			view.Result = &jr
		}
	}
	return view
}

func (d *daemon) getJob(w http.ResponseWriter, r *http.Request, ref jobRef) {
	writeJSON(w, http.StatusOK, ref.view())
}

// waitJob blocks until the job finishes, then reports it like getJob — a
// long poll, so clients need not busy-loop the status endpoint. It selects
// on the request context too: a client that disconnects mid-job releases
// the handler immediately instead of leaking it until the job ends. With
// `Accept: text/event-stream` the wait becomes an SSE stream of progress
// events instead of one blocking response (see serveSSE).
func (d *daemon) waitJob(w http.ResponseWriter, r *http.Request, ref jobRef) {
	j := ref.job
	if j == nil {
		// Already terminal (retention stub): nothing to wait for.
		writeJSON(w, http.StatusOK, ref.view())
		return
	}
	if wantsSSE(r) {
		d.serveSSE(w, r, j)
		return
	}
	select {
	case <-j.Done():
		writeJSON(w, http.StatusOK, viewOf(j))
	case <-r.Context().Done():
		// Client gone; there is nobody left to write to.
	}
}

// wantsSSE reports whether the client asked for a progress stream.
func wantsSSE(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mt := strings.TrimSpace(part)
			if mt == "text/event-stream" ||
				strings.HasPrefix(mt, "text/event-stream;") {
				return true
			}
		}
	}
	return false
}

// cancelJob stops a live job; an evicted job is already terminal, so its
// stub answers as is.
func (d *daemon) cancelJob(w http.ResponseWriter, r *http.Request, ref jobRef) {
	if ref.job != nil {
		d.sched.Cancel(ref.job.ID())
	}
	writeJSON(w, http.StatusOK, ref.view())
}

// getVirusDB serves the database: the index view without an experiment,
// otherwise that experiment's records strongest-first (a stable sort over
// the append order, so identical queries page identically), filtered by
// min_fitness and windowed by offset/limit. Every listed record is read
// back from disk, so a request without limit reads the whole experiment.
func (d *daemon) getVirusDB(w http.ResponseWriter, r *http.Request) {
	if d.db == nil {
		httpError(w, http.StatusNotFound, errors.New("daemon runs without a database"))
		return
	}
	q := r.URL.Query()
	exp := q.Get("experiment")
	if exp == "" {
		writeJSON(w, http.StatusOK, map[string]any{
			"experiments": d.db.Experiments(),
			"records":     d.db.Len(),
		})
		return
	}
	minFit, offset, limit := math.Inf(-1), 0, 0
	if s := q.Get("min_fitness"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad min_fitness %q", s))
			return
		}
		minFit = v
	}
	if s := q.Get("offset"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", s))
			return
		}
		offset = n
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", s))
			return
		}
		limit = n
	}
	// Query never returns a nil page, so an empty one is [], never null.
	page, err := d.db.Query(exp, minFit, offset, limit)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// metricsView aggregates every counter the daemon keeps: the body of
// /api/v1/metrics, the daemon's only metrics surface.
type metricsView struct {
	Farm  farm.MetricsSnapshot `json:"farm"`
	Cache farm.CacheStats      `json:"cache"`
	Sched struct {
		Budget     int                 `json:"budget"`
		InUse      int                 `json:"in_use"`
		QueueDepth int                 `json:"queue_depth"`
		Jobs       []farm.JobStatus    `json:"jobs"`
		Tenants    []farm.TenantStatus `json:"tenants"`
	} `json:"scheduler"`
	Islands islands.MetricsSnapshot `json:"islands"`
	Fleet   fleet.Status            `json:"fleet"`
	// Eval exposes the population-batched evaluation engine's process-wide
	// counters: v2 (batch) vs v1 (single) kernel runs, plan compiles vs
	// splices, and the scratch-pool hit rate.
	Eval dram.EvalStats `json:"eval"`
}

// getMetrics serves the metrics. The scheduler section names every tenant's
// jobs and ledgers, so it is scoped to the caller like the job list (admin
// tenants keep the full view); the aggregate farm/cache/islands/fleet/eval
// counters carry no per-tenant identity and stay whole.
func (d *daemon) getMetrics(w http.ResponseWriter, r *http.Request) {
	scope := d.scopedTenant(r)
	var mv metricsView
	mv.Farm = d.metrics.Snapshot(d.sched.Budget())
	mv.Cache = d.cache.Stats()
	mv.Sched.Budget = d.sched.Budget()
	mv.Sched.InUse = d.sched.InUse()
	mv.Sched.QueueDepth = d.sched.QueueDepth()
	mv.Sched.Jobs = scoped(scope, d.sched.Jobs(), jobTenant)
	mv.Sched.Tenants = scoped(scope, d.sched.Tenants(),
		func(tn farm.TenantStatus) string { return tn.Tenant })
	mv.Islands = d.islandsMet.Snapshot()
	mv.Fleet = d.fleet.Snapshot()
	mv.Eval = dram.EvalSnapshot()
	writeJSON(w, http.StatusOK, mv)
}

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", d.submitJob)
	mux.HandleFunc("GET /api/v1/jobs", d.listJobs)
	mux.HandleFunc("GET /api/v1/jobs/{id}", d.jobRoute(d.getJob))
	mux.HandleFunc("GET /api/v1/jobs/{id}/wait", d.jobRoute(d.waitJob))
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", d.jobRoute(d.cancelJob))
	mux.HandleFunc("GET /api/v1/virusdb", d.getVirusDB)
	mux.HandleFunc("GET /api/v1/metrics", d.getMetrics)
	// Live profiling of a running campaign: `go tool pprof
	// http://host/debug/pprof/profile` diagnoses evaluation-path
	// regressions without restarting the daemon.
	mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	d.fleet.Mount(mux)
	// JSON everywhere: fleet clients (and everyone else) must be able to
	// tell a "no such resource" apart from a transport failure without
	// parsing Go's plain-text 404 page.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound,
			fmt.Errorf("no such endpoint: %s %s", r.Method, r.URL.Path))
	})
	// Auth wraps the whole API surface — including the fleet worker verbs, so
	// remote workers authenticate like any other client (fleet.WithAuthToken).
	return withAuth(d.auth, mux)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before touching the ResponseWriter: once WriteHeader fires the
	// status is on the wire, and an encoding failure after it would hand the
	// client a success header glued to a broken body.
	data, err := json.Marshal(v)
	if err != nil {
		log.Printf("dstressd: encoding %T response: %v", v, err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w,
			`{"error":{"code":"internal","message":"response encoding failed"}}`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// apiError is the uniform error envelope: every endpoint of the daemon —
// the fleet protocol and the JSON 404 catch-all included — answers failures
// with {"error":{"code","message"}}. Code is machine-readable (clients
// branch on it), Message is for humans and logs.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

// httpError is the single place an error becomes a response. The code
// derives from the error value where one is more specific than the HTTP
// status (a budget rejection is permanent, not retryable-service-trouble).
func httpError(w http.ResponseWriter, status int, err error) {
	code := "internal"
	switch {
	case errors.Is(err, farm.ErrBudgetExceeded):
		code = "budget_exceeded"
	case errors.Is(err, farm.ErrQuotaExceeded):
		code = "quota_exceeded"
	case status == http.StatusBadRequest:
		code = "bad_request"
	case status == http.StatusUnauthorized:
		code = "unauthorized"
	case status == http.StatusNotFound:
		code = "not_found"
	case status == http.StatusTooManyRequests:
		code = "quota_exceeded"
	case status == http.StatusServiceUnavailable:
		code = "unavailable"
	}
	writeJSON(w, status, errorEnvelope{apiError{Code: code, Message: err.Error()}})
}

// buildFleetEvaluators is the fleet.BatchBuildFunc a worker runs under. It
// turns a shipped evaluation context (the coordinator's default-filled job
// request) into the chunk evaluator of a server built fresh from the same
// configuration a coordinator-side farm clone rebuilds from, so both measure
// identically. Under determinism v2 a shard evaluates in one batched pass;
// under v1 it runs the per-genome loop.
func buildFleetEvaluators(evalCtx json.RawMessage) (farm.ChunkEvalFunc, error) {
	var req jobRequest
	if err := json.Unmarshal(evalCtx, &req); err != nil {
		return nil, fmt.Errorf("bad evaluation context: %w", err)
	}
	spec, crit, det, err := parseJobRequest(req)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.DefaultConfig(req.Rows, req.Seed))
	if err != nil {
		return nil, err
	}
	runs := req.Runs
	if runs <= 0 {
		runs = 10 // the framework default the coordinator runs under
	}
	_, chunk, err := core.NewWorkerEvaluators(srv, spec, crit,
		core.Relaxed(req.TempC), server.MCU2, runs, det)
	return chunk, err
}

// runWorker is worker mode: serve a remote coordinator until interrupted.
// token, when non-empty, authenticates every protocol request against a
// coordinator running with -auth.
func runWorker(coordinator, name, token string) {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := fleet.NewWorker(coordinator, name, buildFleetEvaluators,
		fleet.WithAuthToken(token),
		fleet.WithLogf(log.Printf))
	log.Printf("dstressd: worker %q serving coordinator %s", name, coordinator)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("dstressd: worker: %v", err)
	}
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	budget := flag.Int("budget", 8, "global worker budget shared by all jobs")
	dbPath := flag.String("db", "",
		"shared virus database path (optional); legacy JSON files auto-migrate to the segmented store, keeping the original at <path>.legacy")
	journalPath := flag.String("journal", "",
		"job journal path: submissions survive restarts and resume from their last checkpoint (optional); legacy files auto-migrate like -db")
	drain := flag.Duration("drain", 30*time.Second,
		"graceful-shutdown deadline for running jobs to checkpoint and exit")
	rows := flag.Int("rows", 16, "default rows per bank of simulated DIMMs")
	seed := flag.Uint64("seed", 2020, "default deterministic seed")
	cpuprofile := flag.String("cpuprofile", "",
		"write a CPU profile of the daemon's lifetime to this file "+
			"(live profiles are always available at /debug/pprof/)")
	workerMode := flag.Bool("worker", false,
		"run as a fleet worker serving a remote coordinator instead of a daemon")
	coordinator := flag.String("coordinator", "",
		"coordinator base URL for -worker mode, e.g. http://host:8080")
	workerName := flag.String("worker-name", "",
		"worker display name in the coordinator's metrics (default host-pid)")
	authPath := flag.String("auth", "",
		"bearer-token auth config (JSON: tokens->tenant, tenants->limits); "+
			"empty serves every client as the anonymous tenant")
	authToken := flag.String("auth-token", "",
		"bearer token for -worker mode against a coordinator running with -auth")
	fleetLease := flag.Duration("fleet-lease", 0,
		"fleet shard lease TTL before a shard re-queues (default 90s)")
	fleetTTL := flag.Duration("fleet-worker-ttl", 0,
		"deregister fleet workers silent for this long (default 20s)")
	flag.Parse()

	if *workerMode {
		if *coordinator == "" {
			log.Fatal("dstressd: -worker requires -coordinator=URL")
		}
		runWorker(*coordinator, *workerName, *authToken)
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("dstressd: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("dstressd: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			log.Printf("dstressd: CPU profile written to %s", *cpuprofile)
		}()
	}

	var db *virusdb.DB
	if *dbPath != "" {
		var err error
		db, err = virusdb.Open(*dbPath)
		if err != nil {
			var dropped int
			db, dropped, err = virusdb.OpenSalvage(*dbPath)
			if err != nil {
				log.Fatalf("dstressd: %v", err)
			}
			log.Printf("dstressd: database %s was damaged; kept %d records, dropped %d",
				*dbPath, db.Len(), dropped)
		}
	}
	var journal *farm.Journal
	if *journalPath != "" {
		var err error
		journal, err = farm.OpenJournal(*journalPath)
		if err != nil {
			log.Fatalf("dstressd: %v", err)
		}
	}
	d, err := newDaemon(*budget, *rows, *seed, db, journal,
		fleet.Config{LeaseTTL: *fleetLease, WorkerTTL: *fleetTTL})
	if err != nil {
		log.Fatalf("dstressd: %v", err)
	}
	if *authPath != "" {
		cfg, err := loadAuthConfig(*authPath)
		if err != nil {
			log.Fatalf("dstressd: %v", err)
		}
		d.setAuth(cfg)
		log.Printf("dstressd: auth on (%d tokens, %d tenant limit sets)",
			len(cfg.Tokens), len(cfg.Tenants))
	}
	if journal != nil {
		d.recoverJobs()
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: *addr, Handler: d.handler()}
	go func() {
		<-ctx.Done()
		log.Print("dstressd: draining jobs")
		// Cancelled searches flush their final checkpoint on the way out, so
		// even a drain that hits the deadline leaves the journal current.
		if !d.sched.Drain(*drain) {
			log.Printf("dstressd: drain deadline (%s) exceeded; "+
				"interrupted jobs stay journaled", *drain)
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()

	log.Printf("dstressd: listening on %s (budget %d workers)", *addr, *budget)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("dstressd: %v", err)
	}
}
