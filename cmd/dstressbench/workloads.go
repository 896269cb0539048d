package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"dstress/internal/core"
	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

// jobRequest is the subset of dstressd's submission body the benchmark
// sends. Every job names its determinism contract explicitly: the v1
// default is slated for removal, and a benchmark must not change meaning
// when a default moves.
type jobRequest struct {
	Name        string  `json:"name"`
	Template    string  `json:"template"`
	TempC       float64 `json:"temp_c,omitempty"`
	Generations int     `json:"generations"`
	Population  int     `json:"population"`
	Workers     int     `json:"workers"`
	Seed        uint64  `json:"seed"`
	Rows        int     `json:"rows"`
	Runs        int     `json:"runs"`
	Determinism string  `json:"determinism"`
}

// jobResult mirrors the result dstressd attaches to a finished job.
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

// workload is one traffic mix. Each runs against a freshly started daemon
// with an empty journal; clients run closed loops of submit, wait for the
// result over SSE, then read the top-10 page of the job's experiment.
type workload struct {
	name string
	// storm workloads run one closed-loop client per -clients, each under
	// its own bearer token; the others run one client.
	storm bool
	// fleet workloads start one `dstressd -worker` next to the daemon.
	fleet bool
	// preseed records spread over preseedExps experiments are written to the
	// store before the daemon's first start (untimed).
	preseed, preseedExps int
	shape                jobRequest // template, rows, population, runs, gens, workers
}

// scale holds the knobs that shrink a workload for the smoke test without
// changing which layers it exercises.
type scale struct {
	coldStarts int // daemon starts sampled for setup_s
	replays    int // storm jobs per client replayed in-process
	workloads  []workload
}

const (
	stormTemps  = 50 // storm jobs and the pre-seeded store cycle through 50 experiments
	goldenJobs  = 2  // jobs per client covered by the golden digest: the warm-up and the first timed one
	tokenPrefix = "dstressbench-token-"
	defaultSeed = 1
	defaultFill = uint64(0x3333333333333333)
)

// The search jobs are short (two to four generations) and the simulated
// devices small so that a run holds a dozen or more: on a shared two-CPU
// machine the same job's time varies by a fifth from one run to the next,
// most for memory-heavy jobs, and a median over many short jobs repeats far
// better than one over a few long ones.
func scales() map[string]scale {
	full := scale{coldStarts: 9, replays: 10, workloads: []workload{
		// The paper's access virus: evaluation time goes to deploying
		// row-access patterns through memctl, not to the dram kernel.
		{name: "search_access", shape: jobRequest{Template: "access-rows",
			Rows: 16, Population: 32, Runs: 4, Generations: 2, Workers: 2}},
		// The paper's block virus: a 12.5 MB checkpoint every generation
		// makes durability (snapshot, JSON, journal fsync) the dominant layer.
		{name: "search_24k", shape: jobRequest{Template: "data24k",
			Rows: 16, Population: 64, Runs: 4, Generations: 3, Workers: 2}},
		// The only workload that leases shards to a remote worker, where the
		// dram kernel does the work.
		{name: "fleet_data64", fleet: true, shape: jobRequest{Template: "data64",
			Rows: 64, Population: 64, Runs: 10, Generations: 4, Workers: 2}},
		// Tiny jobs from two tenants beside page reads of the store: HTTP,
		// auth, admission, journal and virusdb do the work. 50k records rather
		// than a long campaign's 200k: the page read scans the whole store
		// under the lock appends wait on, and at 200k that memory-bound scan
		// doubled the run-to-run spread of the storm's throughput.
		{name: "service_storm", storm: true, preseed: 50000, preseedExps: stormTemps,
			shape: jobRequest{Template: "data64",
				Rows: 4, Population: 8, Runs: 1, Generations: 2, Workers: 1}},
	}}
	smoke := scale{coldStarts: 2, replays: 2, workloads: []workload{
		{name: "search_access", shape: jobRequest{Template: "access-rows",
			Rows: 16, Population: 8, Runs: 2, Generations: 2, Workers: 2}},
		{name: "search_24k", shape: jobRequest{Template: "data24k",
			Rows: 4, Population: 8, Runs: 1, Generations: 2, Workers: 2}},
		{name: "fleet_data64", fleet: true, shape: jobRequest{Template: "data64",
			Rows: 16, Population: 16, Runs: 2, Generations: 2, Workers: 2}},
		{name: "service_storm", storm: true, preseed: 2000, preseedExps: stormTemps,
			shape: jobRequest{Template: "data64",
				Rows: 4, Population: 8, Runs: 1, Generations: 2, Workers: 1}},
	}}
	return map[string]scale{"full": full, "smoke": smoke}
}

// mix64 is the splitmix64 finalizer: job and store seeds are derived from
// the run seed through it, so neighbouring run seeds give unrelated inputs.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// nameKey folds a workload name into the seed derivation.
func nameKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// job returns client c's i-th submission (i = 0 is the untimed warm-up).
// The daemon treats seed 0 as "use the default", so seeds skip it.
func (w workload) job(seed uint64, c, i int) jobRequest {
	req := w.shape
	req.Name = fmt.Sprintf("%s-c%d-%d", w.name, c, i)
	req.Determinism = "v2"
	req.Seed = mix64(mix64(seed^nameKey(w.name)) + uint64(c)<<32 + uint64(i))
	req.Seed &= 1<<53 - 1 // JSON numbers stay exact in any client
	if req.Seed == 0 {
		req.Seed = 1
	}
	if w.storm {
		req.TempC = float64(30 + (7*c+i)%stormTemps)
	}
	return req
}

// twin is an in-process replica of what dstressd's runSearch builds for a
// request: the same server, framework, spec, criterion and search
// configuration, so running it yields the result the daemon reports.
type twin struct {
	f    *core.Framework
	spec core.Spec
	cfg  core.SearchConfig
}

func newTwin(req jobRequest, db *virusdb.DB, met *farm.Metrics) (*twin, error) {
	if req.TempC == 0 {
		req.TempC = 55
	}
	if req.Determinism != "v2" {
		return nil, fmt.Errorf("twin: determinism %q, want v2", req.Determinism)
	}
	var spec core.Spec
	switch req.Template {
	case "data64":
		spec = core.Data64Spec{}
	case "data24k":
		spec = core.NewData24KSpec()
	case "access-rows":
		spec = core.NewAccessRowsSpec(defaultFill)
	default:
		return nil, fmt.Errorf("twin: unsupported template %q", req.Template)
	}
	srv, err := server.New(server.DefaultConfig(req.Rows, req.Seed))
	if err != nil {
		return nil, err
	}
	f, err := core.New(srv, xrand.New(req.Seed))
	if err != nil {
		return nil, err
	}
	f.Runs = req.Runs
	f.DB = db
	params := ga.DefaultParams()
	params.MaxGenerations = req.Generations
	params.PopulationSize = req.Population
	// The daemon shares one size-limited fitness cache across its jobs;
	// entries are keyed by the job's seed-derived conditions, so a fresh
	// cache with the same limit replays one job exactly.
	cache := farm.NewCache()
	cache.SetLimit(1 << 16)
	cfg := core.SearchConfig{
		Spec:        spec,
		Criterion:   core.MaxCE,
		Point:       core.Relaxed(req.TempC),
		Determinism: dram.DeterminismV2,
		GA:          params,
		Workers:     req.Workers,
		Cache:       cache,
		Metrics:     met,
	}
	return &twin{f: f, spec: spec, cfg: cfg}, nil
}

// run executes the search and reports it the way the daemon does.
func (t *twin) run(ctx context.Context) (jobResult, error) {
	res, err := t.f.RunSearchContext(ctx, t.cfg)
	if err != nil {
		return jobResult{}, err
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

// goldenLine is one job's contribution to a golden digest.
func goldenLine(seed uint64, r jobResult) string {
	return strconv.FormatUint(seed, 10) + " " +
		strconv.FormatFloat(r.BestFitness, 'g', -1, 64) + " " +
		strconv.Itoa(r.Evaluations) + " " +
		strconv.FormatFloat(r.MeanCE, 'g', -1, 64) + "\n"
}

// preseedStore writes n synthetic data64 records spread over exps
// experiments — the shape a long campaign leaves behind — in batches, so
// the write takes one fsync per batch.
func preseedStore(path string, n, exps int, seed uint64) error {
	db, err := virusdb.Open(path)
	if err != nil {
		return err
	}
	rng := xrand.New(mix64(seed ^ nameKey("preseed")))
	const batch = 5000
	recs := make([]virusdb.Record, 0, batch)
	bits := make([]byte, 64)
	for i := 0; i < n; i++ {
		temp := float64(30 + i%exps)
		w := rng.Uint64()
		for b := range bits {
			bits[b] = '0' + byte(w>>b&1)
		}
		fit := rng.Float64() * 300
		recs = append(recs, virusdb.Record{
			Experiment: fmt.Sprintf("data64/max-ce/%.0fC", temp),
			Bits:       string(bits),
			Fitness:    fit,
			MeanCE:     fit,
			Generation: 1 + rng.Intn(120),
			TempC:      temp,
			TREFP:      core.MaxTREFP,
			VDD:        core.RelaxedVDD,
		})
		if len(recs) == batch || i == n-1 {
			if err := db.Append(recs...); err != nil {
				db.Close()
				return err
			}
			recs = recs[:0]
		}
	}
	return db.Close()
}

// authConfig is the daemon's -auth file for a storm: one tenant per client.
func authConfig(clients int) ([]byte, []string) {
	tokens := map[string]string{}
	var list []string
	for c := 0; c < clients; c++ {
		tok := tokenPrefix + strconv.Itoa(c)
		tokens[tok] = "tenant" + strconv.Itoa(c)
		list = append(list, tok)
	}
	data, _ := json.Marshal(map[string]any{"tokens": tokens})
	return data, list
}
