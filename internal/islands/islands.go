// Package islands implements the island-model genetic search: K
// subpopulations (each a full ga search with its own RNG split) evolving in
// lockstep over independent evaluators, exchanging elites on a deterministic
// ring schedule, optionally screening offspring through the surrogate
// predictor in internal/predict.
//
// Determinism contract. All randomness lives in the per-island RNG splits
// and the evaluators' own noise protocol; the orchestrator itself —
// migration, screening, aggregation — consumes no randomness and runs its
// serial sections in island-index order. Per generation:
//
//  1. breed+screen, islands 0..K-1 in order (island RNGs only);
//  2. real evaluation of every island's kept offspring, concurrently —
//     islands never share state here, so scheduling cannot reorder anything
//     observable;
//  3. advance + surrogate training, islands 0..K-1 in order;
//  4. on migration generations, collect every island's emigrants first,
//     then inject island i's emigrants into island (i+1) mod K.
//
// The result is bit-identical at any farm worker count, any fleet node
// count, and across kill-and-resume, under both determinism contracts.
package islands

import (
	"context"
	"fmt"
	"sync"

	"dstress/internal/ga"
	"dstress/internal/predict"
	"dstress/internal/xrand"
)

// Config selects the island topology and the surrogate screening policy.
// The zero value means "no islands": callers use Enabled to keep the
// classic single-population path.
type Config struct {
	// Count is the number of islands K.
	Count int `json:"count"`
	// MigrateEvery is the migration period G in generations (default 5).
	MigrateEvery int `json:"migrate_every,omitempty"`
	// MigrateCount is the number of elites M each island ships to its ring
	// neighbour on a migration generation (default 2).
	MigrateCount int `json:"migrate_count,omitempty"`
	// Surrogate is the offspring screening policy; off by default.
	Surrogate predict.ScreenPolicy `json:"surrogate,omitempty"`
}

// Enabled reports whether the config asks for the island path at all: an
// explicit island count (Count 1 runs a single population under the island
// protocol — migration-free but checkpointed and screened the same way) or
// surrogate screening. The zero value keeps the classic single-population
// path.
func (c Config) Enabled() bool { return c.Count >= 1 || c.Surrogate.Enabled }

// Normalize fills defaults. A disabled config normalizes to the zero value.
// Normalization is idempotent; checkpoints store the normalized form and
// resume compares against it.
func (c Config) Normalize() Config {
	if !c.Enabled() {
		return Config{}
	}
	if c.Count < 1 {
		c.Count = 1
	}
	if c.MigrateEvery <= 0 {
		c.MigrateEvery = 5
	}
	if c.MigrateCount <= 0 {
		c.MigrateCount = 2
	}
	c.Surrogate = c.Surrogate.Normalize()
	return c
}

// Validate rejects configs the model cannot run against the given GA
// parameters.
func (c Config) Validate(p ga.Params) error {
	if !c.Enabled() {
		return nil
	}
	c = c.Normalize()
	switch {
	case c.Count > 64:
		return fmt.Errorf("islands: count %d too large (max 64)", c.Count)
	case c.MigrateCount >= p.PopulationSize:
		return fmt.Errorf("islands: migrate_count %d >= population %d",
			c.MigrateCount, p.PopulationSize)
	}
	return c.Surrogate.Validate()
}

// Snapshot is the archipelago's resumable state: the config it ran under,
// every island's engine snapshot, the migration/screening counters and the
// surrogate training window. Together with the evaluators' own RNG states
// (stored by the caller) it resumes bit-identically.
type Snapshot struct {
	Config     Config                     `json:"config"`
	Generation int                        `json:"generation"`
	Migrations int                        `json:"migrations"`
	Screened   int64                      `json:"screened"`
	Islands    []ga.Snapshot              `json:"islands"`
	Surrogate  *predict.SurrogateSnapshot `json:"surrogate,omitempty"`
}

// Result is the outcome of an island search. The embedded ga.Result holds
// the merged final population (all islands, sorted, truncated to one
// population size), so Best is the best genome across every island —
// including when the search is cancelled mid-batch.
type Result struct {
	ga.Result
	// Evaluations counts real fitness calls summed over islands.
	Evaluations int
	// Migrations counts completed migration rounds.
	Migrations int
	// Screened counts offspring discarded by the surrogate without real
	// evaluation.
	Screened int64
	// IslandBests holds each island's final best fitness, by island index.
	IslandBests []float64
	// Surrogate summarizes predictor activity (zero value when disabled).
	Surrogate predict.SurrogateStats
}

// Model orchestrates one archipelago search.
type Model struct {
	cfg    Config
	params ga.Params
	st     []*ga.Stepper
	surr   *predict.Surrogate

	gen        int
	migrations int
	screened   int64
	history    []ga.GenStats
	lastSurr   predict.SurrogateStats

	// OnGeneration observes the aggregated per-generation statistics
	// (Best = max over islands, Mean/Similarity = means over islands).
	OnGeneration func(ga.GenStats)
	// OnIsland observes each island's own statistics, in island order,
	// before OnGeneration fires for the aggregate.
	OnIsland func(island int, st ga.GenStats)
	// AfterGeneration runs after a generation is fully closed (advanced,
	// migrated, recorded) — the checkpoint seam. To abort the search it
	// cancels the run context.
	AfterGeneration func()

	met *Metrics
}

// New builds a model. batches and rngs carry one evaluator and one RNG
// split per island, in island order; the split order is the caller's
// protocol (see core's island RNG split tree).
func New(params ga.Params, cfg Config, batches []ga.BatchFitness, rngs []*xrand.Rand) (*Model, error) {
	cfg = cfg.Normalize()
	if !cfg.Enabled() {
		return nil, fmt.Errorf("islands: config selects no islands")
	}
	if err := cfg.Validate(params); err != nil {
		return nil, err
	}
	if len(batches) != cfg.Count || len(rngs) != cfg.Count {
		return nil, fmt.Errorf("islands: %d islands need %d evaluators and %d rngs",
			cfg.Count, len(batches), len(rngs))
	}
	m := &Model{cfg: cfg, params: params, st: make([]*ga.Stepper, cfg.Count)}
	for i := range m.st {
		st, err := ga.NewStepper(params, batches[i], rngs[i])
		if err != nil {
			return nil, err
		}
		m.st[i] = st
	}
	if cfg.Surrogate.Enabled {
		surr, err := predict.NewSurrogate(cfg.Surrogate)
		if err != nil {
			return nil, err
		}
		m.surr = surr
	}
	return m, nil
}

// SetMetrics attaches a shared metrics accumulator.
func (m *Model) SetMetrics(met *Metrics) { m.met = met }

// Config returns the normalized config the model runs.
func (m *Model) Config() Config { return m.cfg }

// Run executes the search from one initial population per island. Like
// ga.Engine, cancellation after the initial evaluation returns the
// best-so-far result with Canceled set and a nil error; only a cancellation
// before any generation completes, or an evaluator error, is an error.
func (m *Model) Run(ctx context.Context, initial [][]ga.Genome) (Result, error) {
	if m.params.MaxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.params.MaxDuration)
		defer cancel()
	}
	if len(initial) != len(m.st) {
		return Result{}, fmt.Errorf("islands: %d initial populations for %d islands",
			len(initial), len(m.st))
	}
	if m.met != nil {
		m.met.beginSearch(len(m.st))
	}
	per := make([]ga.GenStats, len(m.st))
	err := m.parallelIslands(func(i int) error {
		st, err := m.st[i].Start(ctx, initial[i])
		per[i] = st
		return err
	})
	if err != nil {
		return Result{}, err
	}
	m.gen = 1
	m.observeIslandPops()
	m.closeGeneration(per)
	return m.runLoop(ctx)
}

// Resume continues a search from a Snapshot. The model must have been built
// with the snapshot's config (callers take it from the checkpoint) and with
// evaluators whose own state the caller already restored.
func (m *Model) Resume(ctx context.Context, snap Snapshot) (Result, error) {
	if m.params.MaxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.params.MaxDuration)
		defer cancel()
	}
	if snap.Config.Normalize() != m.cfg {
		return Result{}, fmt.Errorf("islands: snapshot config %+v does not match model %+v",
			snap.Config.Normalize(), m.cfg)
	}
	if len(snap.Islands) != len(m.st) {
		return Result{}, fmt.Errorf("islands: snapshot holds %d islands, model has %d",
			len(snap.Islands), len(m.st))
	}
	for i := range m.st {
		if err := m.st[i].Restore(snap.Islands[i]); err != nil {
			return Result{}, fmt.Errorf("islands: island %d: %w", i, err)
		}
		if g := m.st[i].Generation(); g != snap.Generation {
			return Result{}, fmt.Errorf("islands: island %d at generation %d, snapshot at %d",
				i, g, snap.Generation)
		}
		// Migrants breed with their new island's residents, so every island
		// must hold the chromosome shape of island 0.
		if i > 0 {
			first, _ := m.st[0].Best()
			own, _ := m.st[i].Best()
			if err := ga.Compatible(first, own); err != nil {
				return Result{}, fmt.Errorf("islands: island %d: %w", i, err)
			}
		}
	}
	m.gen = snap.Generation
	m.migrations = snap.Migrations
	m.screened = snap.Screened
	if m.surr != nil {
		if snap.Surrogate == nil {
			return Result{}, fmt.Errorf("islands: snapshot missing surrogate state")
		}
		surr, err := predict.RestoreSurrogate(*snap.Surrogate)
		if err != nil {
			return Result{}, err
		}
		m.surr = surr
		m.lastSurr = surr.Stats()
	}
	// Rebuild the aggregated history from the aligned per-island histories;
	// hooks are not re-fired for already-recorded generations.
	m.history = m.history[:0]
	per := make([]ga.GenStats, len(m.st))
	for g := 0; g < m.gen; g++ {
		for i, st := range m.st {
			h := st.History()
			if len(h) != m.gen {
				return Result{}, fmt.Errorf("islands: island %d history %d entries, want %d",
					i, len(h), m.gen)
			}
			per[i] = h[g]
		}
		m.history = append(m.history, m.aggregate(g+1, per))
	}
	if m.met != nil {
		m.met.beginSearch(len(m.st))
	}
	return m.runLoop(ctx)
}

// runLoop is the lockstep generation loop, shared by Run and Resume. On
// entry generation m.gen is fully closed.
func (m *Model) runLoop(ctx context.Context) (Result, error) {
	canceled := false
	// Fixed-size per-generation scratch, hoisted out of the loop: every slot
	// is overwritten each generation before it is read.
	broods := make([][]ga.Genome, len(m.st))
	fits := make([][]float64, len(m.st))
	per := make([]ga.GenStats, len(m.st))
	for {
		if m.allConverged() {
			return m.finalize(true, false), nil
		}
		if m.gen >= m.params.MaxGenerations {
			break
		}
		if ctx.Err() != nil {
			canceled = true
			break
		}

		// Breed and screen serially, island order: only island RNGs draw.
		for i, st := range m.st {
			need := st.Need()
			n := need
			if m.surr != nil && m.surr.Ready() && m.cfg.Surrogate.Overbreed > 1 {
				n = need * m.cfg.Surrogate.Overbreed
			}
			kids := st.Breed(n)
			if n > need {
				kids = m.screen(kids, need)
			}
			broods[i] = kids
		}

		// Real evaluation, concurrently across islands.
		err := m.parallelIslands(func(i int) error {
			f, err := m.st[i].Evaluate(ctx, broods[i])
			fits[i] = f
			return err
		})
		if err != nil {
			if ctx.Err() != nil {
				// Cancelled mid-batch: every island discards this
				// generation's offspring and the last complete lockstep
				// generation stands — on all islands, so the final merge
				// still picks the best genome across the archipelago.
				canceled = true
				break
			}
			return Result{}, err
		}

		// Advance and train serially, island order.
		for i, st := range m.st {
			gst, err := st.Advance(broods[i], fits[i])
			if err != nil {
				return Result{}, err
			}
			per[i] = gst
			if m.surr != nil {
				for j, g := range broods[i] {
					m.surr.Observe(g, fits[i][j])
				}
			}
		}
		m.gen++

		if len(m.st) >= 2 && m.gen%m.cfg.MigrateEvery == 0 {
			m.migrate()
		}
		m.closeGeneration(per)
	}
	return m.finalize(false, canceled), nil
}

// screen ranks overbred offspring by predicted fitness and keeps the best
// `need`, preserving breeding order among the kept (their batch index is
// part of the evaluators' noise protocol). Ties in prediction keep the
// earlier-bred candidate.
func (m *Model) screen(kids []ga.Genome, need int) []ga.Genome {
	preds := make([]float64, len(kids))
	for i, g := range kids {
		preds[i] = m.surr.Predict(g)
	}
	order := make([]int, len(kids))
	for i := range order {
		order[i] = i
	}
	// Insertion sort by descending prediction, stable in breeding order.
	for i := 1; i < len(order); i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && preds[order[j]] < preds[v] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
	keep := append([]int(nil), order[:need]...)
	// Restore breeding order among the kept.
	for i := 1; i < len(keep); i++ {
		v := keep[i]
		j := i - 1
		for j >= 0 && keep[j] > v {
			keep[j+1] = keep[j]
			j--
		}
		keep[j+1] = v
	}
	out := make([]ga.Genome, need)
	for i, idx := range keep {
		out[i] = kids[idx]
	}
	dropped := int64(len(kids) - need)
	m.screened += dropped
	if m.met != nil {
		m.met.addScreened(dropped)
	}
	return out
}

// migrate ships each island's top MigrateCount elites to its ring
// neighbour. All emigrants are collected before any injection, so the
// exchange is simultaneous and independent of island order; injection
// itself consumes no randomness.
func (m *Model) migrate() {
	cnt := m.cfg.MigrateCount
	emg := make([][]ga.Genome, len(m.st))
	emf := make([][]float64, len(m.st))
	for i, st := range m.st {
		emg[i], emf[i] = st.Emigrants(cnt)
	}
	for i := range m.st {
		m.st[(i+1)%len(m.st)].Inject(emg[i], emf[i])
	}
	m.migrations++
	if m.met != nil {
		m.met.addMigrations(1)
	}
}

// closeGeneration records the aggregate statistics and fires the hooks.
func (m *Model) closeGeneration(per []ga.GenStats) {
	agg := m.aggregate(m.gen, per)
	m.history = append(m.history, agg)
	for i, st := range per {
		if m.OnIsland != nil {
			m.OnIsland(i, st)
		}
		if m.met != nil {
			m.met.reportIsland(i, st)
		}
	}
	if m.surr != nil && m.met != nil {
		cur := m.surr.Stats()
		m.met.addSurrogate(cur.Predictions-m.lastSurr.Predictions,
			cur.ExactHits-m.lastSurr.ExactHits)
		m.lastSurr = cur
	}
	if m.OnGeneration != nil {
		m.OnGeneration(agg)
	}
	if m.AfterGeneration != nil {
		m.AfterGeneration()
	}
}

// aggregate folds per-island statistics into one GenStats: best of bests,
// mean of means, mean of similarities.
func (m *Model) aggregate(gen int, per []ga.GenStats) ga.GenStats {
	agg := ga.GenStats{Generation: gen, Best: per[0].Best}
	for _, st := range per {
		if st.Best > agg.Best {
			agg.Best = st.Best
		}
		agg.Mean += st.Mean
		agg.Similarity += st.Similarity
	}
	agg.Mean /= float64(len(per))
	agg.Similarity /= float64(len(per))
	return agg
}

// observeIslandPops trains the surrogate on the already-evaluated initial
// populations, in island then rank order.
func (m *Model) observeIslandPops() {
	if m.surr == nil {
		return
	}
	for _, st := range m.st {
		pop, fits := st.Current()
		for i, g := range pop {
			m.surr.Observe(g, fits[i])
		}
	}
}

func (m *Model) allConverged() bool {
	for _, st := range m.st {
		if !st.Converged() {
			return false
		}
	}
	return true
}

// finalize merges the islands into one result. The final population is
// every island's population, sorted by descending fitness and truncated to
// PopulationSize, so Best is the best genome across the whole archipelago.
func (m *Model) finalize(converged, canceled bool) Result {
	var pop []ga.Genome
	var fits []float64
	res := Result{
		Migrations:  m.migrations,
		Screened:    m.screened,
		IslandBests: make([]float64, len(m.st)),
	}
	var simSum float64
	for i, st := range m.st {
		p, f := st.Current()
		pop = append(pop, p...)
		fits = append(fits, f...)
		_, res.IslandBests[i] = st.Best()
		simSum += st.Similarity()
		res.Evaluations += st.Evaluations()
	}
	ga.SortByFitness(pop, fits)
	if len(pop) > m.params.PopulationSize {
		pop = pop[:m.params.PopulationSize]
		fits = fits[:m.params.PopulationSize]
	}
	res.Population = pop
	res.Fitnesses = fits
	res.Best = pop[0]
	res.BestFitness = fits[0]
	res.Generations = m.gen
	res.Converged = converged
	res.Canceled = canceled
	res.FinalSimilarity = simSum / float64(len(m.st))
	res.History = append([]ga.GenStats(nil), m.history...)
	if m.surr != nil {
		res.Surrogate = m.surr.Stats()
	}
	return res
}

// Snapshot captures the archipelago at the current generation boundary.
func (m *Model) Snapshot() (Snapshot, error) {
	s := Snapshot{
		Config:     m.cfg,
		Generation: m.gen,
		Migrations: m.migrations,
		Screened:   m.screened,
		Islands:    make([]ga.Snapshot, len(m.st)),
	}
	for i, st := range m.st {
		snap, err := st.Snapshot()
		if err != nil {
			return Snapshot{}, fmt.Errorf("islands: island %d: %w", i, err)
		}
		s.Islands[i] = snap
	}
	if m.surr != nil {
		ss, err := m.surr.Snapshot()
		if err != nil {
			return Snapshot{}, err
		}
		s.Surrogate = &ss
	}
	return s, nil
}

// parallelIslands runs fn for every island concurrently and returns the
// lowest-index error — a deterministic pick when several islands fail.
func (m *Model) parallelIslands(fn func(i int) error) error {
	errs := make([]error, len(m.st))
	var wg sync.WaitGroup
	for i := range m.st {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
