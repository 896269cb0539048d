// Package farm parallelizes virus fitness evaluation and schedules whole
// synthesis campaigns. The paper's bottleneck is exactly here: every GA
// generation re-deploys 40 viruses and averages 10 noisy measurement runs
// each, which is why the physical campaign took months. The farm spreads a
// generation over a pool of workers, each owning its own cloned simulated
// server, while keeping results bit-identical to a serial evaluation:
//
//   - Randomness is assigned per chromosome, not per worker. For each batch
//     the pool splits one child generator off its root stream per genome, in
//     index order, before any evaluation starts. A genome's measurement
//     noise therefore depends only on its position in the batch — never on
//     which worker picks it up or in what order evaluations finish — so the
//     fitness vector is the same at 1, 8 or 64 workers.
//   - Workers are clones. Each worker's evaluator is built over an identical
//     copy of the simulated machine (same defect-map seeds, same operating
//     point, same prepared experiment), and a deployment fully overwrites
//     the state it measures, so evaluations commute across workers.
//
// On top of the pool, Cache memoizes fitness values across generations and
// campaigns (the paper averages VRT noise per virus, so a repeated
// chromosome can reuse its measured mean), and Scheduler runs many GA
// searches concurrently under one global worker budget with per-job
// timeouts, cancellation and panic isolation.
package farm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"dstress/internal/ga"
	"dstress/internal/xrand"
)

// EvalFunc measures one chromosome using the supplied generator for the
// run-to-run noise. Implementations run on exactly one worker at a time but
// must not depend on evaluation order: a deployment has to overwrite
// whatever state the previous evaluation left behind.
type EvalFunc func(g ga.Genome, rng *xrand.Rand) (float64, error)

// WorkerFactory builds worker w's evaluator — typically by cloning the
// simulated server and preparing the experiment on the clone. Every worker
// must be constructed identically: determinism across worker counts relies
// on any worker producing the same measurement for the same (genome, rng).
type WorkerFactory func(w int) (EvalFunc, error)

// ChunkEvalFunc evaluates a contiguous run of pre-assigned tasks on one
// worker in one pass, writing out[t.Idx] for every task. It is the pool's
// only unit of dispatch: the dram-level batch evaluation plugs in here,
// amortizing plan compilation across the chunk, and Sequential turns a
// per-genome EvalFunc into one. The value written for each task must equal
// what the worker's EvalFunc yields for (t.G, t.RNG); the per-task RNG
// assignment in the serial prologue already fixes every draw, so the chunk
// boundaries never show in the results.
type ChunkEvalFunc func(tasks []Assigned, out []float64) error

// ChunkFactory builds worker w's chunk evaluator. It runs after every
// EvalFunc has been built (in worker order), so an implementation may share
// state — typically the cloned server — with the same worker's EvalFunc.
// It must return a non-nil evaluator for every worker.
type ChunkFactory func(w int) (ChunkEvalFunc, error)

// Sequential adapts a per-genome evaluator to a chunk evaluator that
// measures the chunk's tasks one after another, in order.
func Sequential(ev EvalFunc) ChunkEvalFunc {
	return func(tasks []Assigned, out []float64) error {
		for _, t := range tasks {
			v, err := ev(t.G, t.RNG)
			if err != nil {
				return fmt.Errorf("genome %d: %w", t.Idx, err)
			}
			out[t.Idx] = v
		}
		return nil
	}
}

// Pool evaluates genome batches on a fixed set of workers.
type Pool struct {
	chunks  []ChunkEvalFunc // one per worker
	root    *xrand.Rand
	cache   *Cache
	condKey string
	met     *Metrics
	prepare func() error

	chunkFactory ChunkFactory
}

// PoolOption configures a Pool.
type PoolOption func(*Pool)

// WithCache memoizes fitness values in c under the given operating-condition
// key: two searches sharing a cache must use distinct condition keys unless
// their measurements really are interchangeable.
func WithCache(c *Cache, condKey string) PoolOption {
	return func(p *Pool) {
		p.cache = c
		p.condKey = condKey
	}
}

// WithMetrics publishes evaluation counts and busy time to m (shared across
// pools for campaign-wide rates).
func WithMetrics(m *Metrics) PoolOption {
	return func(p *Pool) { p.met = m }
}

// WithChunkFactory supplies the workers' chunk evaluators — typically a
// batched pass over the same server the worker's EvalFunc deploys on.
// Without it every worker runs Sequential over its EvalFunc. Results are
// the same either way: every task's RNG is pre-assigned.
func WithChunkFactory(f ChunkFactory) PoolOption {
	return func(p *Pool) { p.chunkFactory = f }
}

// WithPrepare runs prepare before each dispatch of tasks to the pool's own
// workers, outside the busy time the pool's metrics record. A pool whose
// evaluators build their servers on first use builds them there, before
// any chunk starts; prepare's error fails the batch.
func WithPrepare(prepare func() error) PoolOption {
	return func(p *Pool) { p.prepare = prepare }
}

// NewPool builds the workers via factory. The root generator seeds the
// per-chromosome noise streams; construct it from the experiment's seed so
// the whole evaluation is reproducible.
func NewPool(workers int, root *xrand.Rand, factory WorkerFactory,
	opts ...PoolOption) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("farm: workers = %d", workers)
	}
	if root == nil {
		return nil, fmt.Errorf("farm: nil root rng")
	}
	if factory == nil {
		return nil, fmt.Errorf("farm: nil worker factory")
	}
	p := &Pool{root: root}
	for _, o := range opts {
		o(p)
	}
	// Every EvalFunc is built before the first chunk evaluator, so a chunk
	// factory may hand out state its worker factory stashed.
	p.chunks = make([]ChunkEvalFunc, workers)
	for w := range p.chunks {
		ev, err := factory(w)
		if err != nil {
			return nil, fmt.Errorf("farm: worker %d: %w", w, err)
		}
		if ev == nil {
			return nil, fmt.Errorf("farm: worker %d: factory returned nil", w)
		}
		p.chunks[w] = Sequential(ev)
	}
	if p.chunkFactory != nil {
		for w := range p.chunks {
			cv, err := p.chunkFactory(w)
			if err != nil {
				return nil, fmt.Errorf("farm: chunk worker %d: %w", w, err)
			}
			if cv == nil {
				return nil, fmt.Errorf("farm: chunk worker %d: factory returned nil", w)
			}
			p.chunks[w] = cv
		}
	}
	return p, nil
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.chunks) }

// RootState captures the noise-root RNG position. The root only advances in
// EvaluateBatch's serial prologue, so between batches the state is stable
// and, together with the GA engine's snapshot, fully determines the rest of
// the search — it is the piece of farm state a checkpoint must carry.
// Callers must not invoke it concurrently with EvaluateBatch.
func (p *Pool) RootState() [4]uint64 { return p.root.State() }

// Batch exposes the pool as a pluggable engine evaluator.
func (p *Pool) Batch() ga.BatchFitness { return p.EvaluateBatch }

// Assigned is one pre-assigned evaluation: a genome together with the noise
// stream that must measure it. The assignment — not the executor — carries
// the determinism contract: any correctly constructed worker evaluating
// (G, RNG) produces the same value, which is what lets a dispatcher ship the
// task to a remote machine as (genome, RNG state) and still obtain the local
// result.
type Assigned struct {
	Idx int
	G   ga.Genome
	RNG *xrand.Rand
	key string // cache key; empty when uncached
}

// Dispatcher executes pre-assigned evaluations, writing out[t.Idx] for every
// task. Implementations may run the tasks anywhere, in any order and with
// any partitioning, but the value written for a task must equal what a pool
// worker evaluating (t.G, t.RNG) yields — the fleet coordinator satisfies
// this by shipping each task's RNG state alongside the genome.
type Dispatcher func(ctx context.Context, tasks []Assigned, out []float64) error

// EvaluateBatch measures every genome and returns the fitness vector. The
// per-genome generators are split off the root serially before dispatch and
// the cache is consulted and filled in index order, so the result — and the
// root stream position — is independent of the worker count and of
// completion order. A worker panic is converted into an error; the first
// error fails the batch.
func (p *Pool) EvaluateBatch(ctx context.Context, gs []ga.Genome) ([]float64, error) {
	return p.EvaluateBatchVia(ctx, gs, p.RunAssigned)
}

// EvaluateBatchVia is EvaluateBatch with the post-cache evaluations routed
// through dispatch instead of the pool's own workers. The serial prologue —
// stream splitting and cache resolution in index order — is identical, so a
// dispatcher honouring the Dispatcher contract yields a fitness vector
// bit-identical to EvaluateBatch's, and the root stream advances exactly the
// same way. This is the seam the fleet coordinator plugs into.
func (p *Pool) EvaluateBatchVia(ctx context.Context, gs []ga.Genome,
	dispatch Dispatcher) ([]float64, error) {
	out := make([]float64, len(gs))
	var tasks []Assigned
	leaders := make(map[string]int)  // cache key -> out index computing it
	followers := make(map[int][]int) // leader out index -> duplicate indexes
	for i, g := range gs {
		// Split unconditionally: the stream a genome receives must not
		// depend on cache contents.
		rng := p.root.Split()
		if p.cache == nil {
			tasks = append(tasks, Assigned{Idx: i, G: g, RNG: rng})
			continue
		}
		key := p.condKey + "|" + GenomeKey(g)
		if v, ok := p.cache.lookup(key); ok {
			p.cache.addHit()
			out[i] = v
			continue
		}
		if li, ok := leaders[key]; ok {
			// Same chromosome earlier in this batch: reuse its measurement
			// (the first occurrence's rng decides the value, keeping the
			// result independent of scheduling).
			p.cache.addHit()
			followers[li] = append(followers[li], i)
			continue
		}
		p.cache.addMiss()
		leaders[key] = i
		tasks = append(tasks, Assigned{Idx: i, G: g, RNG: rng, key: key})
	}

	if err := dispatch(ctx, tasks, out); err != nil {
		return nil, err
	}

	// Publish in task order (deterministic) and copy to duplicates.
	for _, t := range tasks {
		if t.key != "" {
			p.cache.put(t.key, out[t.Idx])
		}
		for _, i := range followers[t.Idx] {
			out[i] = out[t.Idx]
		}
	}
	if p.met != nil {
		p.met.batches.Add(1)
	}
	return out, nil
}

// RunAssigned runs the tasks on the pool's workers through RunChunks: the
// local Dispatcher, and the fallback a fleet session degrades to when no
// remote workers are registered. The pool's prepare hook runs first.
func (p *Pool) RunAssigned(ctx context.Context, tasks []Assigned, out []float64) error {
	if p.prepare != nil && len(tasks) > 0 {
		if err := p.prepare(); err != nil {
			return err
		}
	}
	return RunChunks(ctx, p.chunks, tasks, out, p.met)
}

// RunChunks partitions the tasks into contiguous, near-even chunks, one per
// evaluator (fewer when there are fewer tasks), and runs each chunk on its
// evaluator in one pass on its own goroutine. The pool dispatches locally
// through it, the fleet coordinator shards by the same split, and a fleet
// worker splits each shard over its server clones with it. Task i's value
// depends only on (G, RNG), both fixed in the serial prologue, so the
// partition never shows in the fitness vector. Cancellation is noticed at
// chunk boundaries. A chunk evaluator's panic is converted into an error;
// the first error wins. Distinct tasks write distinct out elements, so the
// slice needs no lock. met, when non-nil, records every chunk pass.
func RunChunks(ctx context.Context, evs []ChunkEvalFunc, tasks []Assigned,
	out []float64, met *Metrics) error {
	if len(tasks) == 0 {
		return nil
	}
	nw := min(len(evs), len(tasks))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < nw; w++ {
		chunk := tasks[w*len(tasks)/nw : (w+1)*len(tasks)/nw]
		wg.Add(1)
		go func(ev ChunkEvalFunc) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			start := time.Now()
			err := safeChunk(ev, chunk, out)
			if met != nil {
				met.chunkDone(len(chunk), time.Since(start))
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("farm: chunk [%d,%d): %w", chunk[0].Idx,
						chunk[len(chunk)-1].Idx+1, err)
				}
				mu.Unlock()
			}
		}(evs[w])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// safeChunk converts a chunk-evaluator panic into an error so one bad virus
// fails its job instead of killing the campaign daemon.
func safeChunk(ev ChunkEvalFunc, tasks []Assigned, out []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("chunk evaluation panic: %v", r)
		}
	}()
	return ev(tasks, out)
}

// GenomeKey returns a stable identity string for a chromosome, used as the
// memoization key. Small integer genomes are encoded verbatim; bit genomes
// (up to megabits for the 512-KByte template) are hashed: SHA-256 over the
// length, then the packed words little-endian, fed through a fixed buffer
// rather than a copy of the whole chromosome.
func GenomeKey(g ga.Genome) string {
	switch t := g.(type) {
	case *ga.BitGenome:
		n := t.Bits.Len()
		h := sha256.New()
		var buf [512]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:8])
		for words := t.Bits.Words(); len(words) > 0; {
			k := min(len(words), len(buf)/8)
			for i, w := range words[:k] {
				binary.LittleEndian.PutUint64(buf[8*i:], w)
			}
			h.Write(buf[:8*k])
			words = words[k:]
		}
		return "b" + strconv.Itoa(n) + ":" + hex.EncodeToString(h.Sum(nil)[:16])
	case *ga.IntGenome:
		return "i:" + intsKey(t.Vals)
	case *ga.MixedGenome:
		return "m:" + intsKey(t.Vals)
	default:
		return fmt.Sprintf("g:%v", g)
	}
}

func intsKey(vals []int) string {
	var sb strings.Builder
	for i, v := range vals {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	return sb.String()
}
