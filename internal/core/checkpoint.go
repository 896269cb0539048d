package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"dstress/internal/checkpoint"
	"dstress/internal/dram"
	"dstress/internal/ga"
	"dstress/internal/islands"
	"dstress/internal/seglog"
)

// Checkpoint is a resumable synthesis search: the GA engine's snapshot plus
// the framework-level state the engine cannot see — which noise-stream
// protocol is in use and where that stream stands. RunSearchFrom continues
// a search from a Checkpoint with a bit-identical outcome to the
// uninterrupted run, at any worker count.
type Checkpoint struct {
	// Experiment is the search identity (spec/criterion/temperature); a
	// checkpoint must never resume a different experiment.
	Experiment string `json:"experiment"`
	// Params are the engine parameters of the original run. They are
	// authoritative on resume: the remaining generations must be bred under
	// the exact configuration that produced the snapshot.
	Params ga.Params `json:"params"`
	// Point is the operating point the search runs at.
	Point OperatingPoint `json:"point"`
	// Determinism is the dram evaluation contract the search measures
	// under. Authoritative on resume, like Point: the remaining generations
	// must draw noise under the contract that produced the snapshot. The
	// zero value (checkpoints written before the field existed) is v1.
	Determinism dram.DeterminismVersion `json:"determinism,omitempty"`
	// Workers records the noise protocol: >= 1 is the farm protocol (one
	// stream split off a dedicated root per chromosome — resumable at any
	// worker count), 0 the legacy serial protocol (streams split off the
	// framework RNG per measurement).
	Workers int `json:"workers"`
	// NoiseRNG is the noise-stream position: the pool root in farm mode,
	// the framework RNG in serial mode.
	NoiseRNG [4]uint64 `json:"noise_rng"`
	// Engine is the GA state at the checkpointed generation boundary
	// (single-population searches; unused when Islands is set).
	Engine ga.Snapshot `json:"engine"`

	// Islands, when non-nil, marks an island-model checkpoint: the
	// archipelago snapshot — config, every island's engine state, the
	// migration/screening counters and the surrogate training window —
	// replaces Engine, and IslandNoise (one farm root per island, island
	// order) replaces NoiseRNG. Workers still records the total budget.
	Islands *islands.Snapshot `json:"islands,omitempty"`
	// IslandNoise holds each island pool's noise-root position.
	IslandNoise [][4]uint64 `json:"island_noise,omitempty"`
}

// Generation returns the last completed generation the checkpoint holds.
func (cp *Checkpoint) Generation() int {
	if cp.Islands != nil {
		return cp.Islands.Generation
	}
	return cp.Engine.Generation
}

// LoadCheckpoint reads a Checkpoint persisted under CheckpointPath (or by
// any checkpoint.File). Damage is surfaced, never papered over: a corrupt
// tail falls back to the newest intact record, and a file without one is an
// error.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	var cp Checkpoint
	if _, err := checkpoint.LoadInto(path, &cp); err != nil {
		return nil, err
	}
	usable := len(cp.Engine.Population) > 0 ||
		(cp.Islands != nil && len(cp.Islands.Islands) > 0)
	if cp.Experiment == "" || !usable {
		return nil, fmt.Errorf("core: %s holds no usable checkpoint", path)
	}
	return &cp, nil
}

// EncodeCheckpoint serializes cp in seglog's header-plus-tail layout (see
// seglog.Payload), the form the daemon journals every generation. The
// header is the checkpoint's JSON with the packed words of every bit genome
// left out; the words follow as the tail, genome after genome in the order
// eachGenome visits them. A checkpoint without packed genomes has no tail
// and encodes as its plain JSON. The words are copied once, into the
// returned buffer.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	hdr := cp.ownRecords()
	var words [][]byte
	tailLen := 0
	err := hdr.eachGenome(func(r *ga.GenomeRecord) error {
		if r.Type != "bit" || r.Bits != "" {
			return nil // not packed: the header carries it as it is
		}
		if r.N < 0 || len(r.Packed) != packedLen(r.N) {
			return fmt.Errorf("core: bit genome of %d bits with %d packed bytes",
				r.N, len(r.Packed))
		}
		words = append(words, r.Packed)
		tailLen += len(r.Packed)
		r.Packed = nil
		return nil
	})
	if err != nil {
		return nil, err
	}
	h, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	if tailLen == 0 {
		return h, nil
	}
	out := make([]byte, 0, len(h)+1+binary.MaxVarintLen64+tailLen)
	out = seglog.AppendHeader(out, h)
	for _, w := range words {
		out = append(out, w...)
	}
	return out, nil
}

// DecodeCheckpoint reads a checkpoint EncodeCheckpoint wrote, or one
// written as plain JSON (json.Marshal of a Checkpoint, which is what
// journals held before the tail layout). The tail must hold exactly the
// words of the header's bit genomes. The packed words of the returned
// genome records share data's memory.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	p, err := seglog.SplitPayload(data)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	cp := new(Checkpoint)
	if err := json.Unmarshal(p.Header, cp); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	if len(p.Tail) == 0 {
		return cp, nil
	}
	tail := p.Tail
	err = cp.eachGenome(func(r *ga.GenomeRecord) error {
		if r.Type != "bit" || r.Bits != "" {
			return nil
		}
		switch {
		case r.Packed != nil:
			return fmt.Errorf("core: checkpoint: packed words in the header")
		case r.N < 0 || r.N > 8*len(tail) || packedLen(r.N) > len(tail):
			return fmt.Errorf("core: checkpoint: tail ends inside a %d-bit genome", r.N)
		}
		n := packedLen(r.N)
		if n > 0 {
			r.Packed = tail[:n:n]
		}
		tail = tail[n:]
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(tail) != 0 {
		return nil, fmt.Errorf("core: checkpoint: %d tail bytes past the last genome", len(tail))
	}
	return cp, nil
}

// packedLen is the length of the packed form of an n-bit chromosome.
func packedLen(n int) int { return (n + 63) / 64 * 8 }

// eachGenome calls fn on every genome record cp holds, in tail order: the
// engine population, each island's population in island order, and the
// surrogate's training window.
func (cp *Checkpoint) eachGenome(fn func(*ga.GenomeRecord) error) error {
	visit := func(recs []ga.GenomeRecord) error {
		for i := range recs {
			if err := fn(&recs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(cp.Engine.Population); err != nil {
		return err
	}
	if cp.Islands == nil {
		return nil
	}
	for i := range cp.Islands.Islands {
		if err := visit(cp.Islands.Islands[i].Population); err != nil {
			return err
		}
	}
	if s := cp.Islands.Surrogate; s != nil {
		for i := range s.Samples {
			if err := fn(&s.Samples[i].Genome); err != nil {
				return err
			}
		}
	}
	return nil
}

// ownRecords returns a shallow copy of cp whose genome records are its
// own, so that they can be changed without touching cp's.
func (cp *Checkpoint) ownRecords() *Checkpoint {
	c := *cp
	c.Engine.Population = slices.Clone(cp.Engine.Population)
	if cp.Islands != nil {
		isl := *cp.Islands
		isl.Islands = slices.Clone(isl.Islands)
		for i := range isl.Islands {
			isl.Islands[i].Population = slices.Clone(isl.Islands[i].Population)
		}
		if isl.Surrogate != nil {
			s := *isl.Surrogate
			s.Samples = slices.Clone(s.Samples)
			isl.Surrogate = &s
		}
		c.Islands = &isl
	}
	return &c
}

// ckptEmitter forwards engine snapshots as Checkpoints: to the OnCheckpoint
// hook, to the CheckpointPath file, or both. A nil *ckptEmitter (checkpoints
// not requested) is valid and does nothing.
type ckptEmitter struct {
	cfg        SearchConfig
	params     ga.Params
	workers    int
	noise      func() [4]uint64
	file       *checkpoint.File
	every      int
	cancel     context.CancelFunc
	last       *Checkpoint // newest built checkpoint, emitted or not
	emittedGen int         // generation of the last forwarded checkpoint
	err        error       // first persistence failure; aborts the search
}

// newCkptEmitter returns nil when cfg requests no checkpointing. cancel is
// used to stop the search when persistence fails: running on for hours with
// broken durability would be the quiet version of the crash this subsystem
// exists to survive.
func newCkptEmitter(cfg SearchConfig, params ga.Params, workers int,
	noise func() [4]uint64, cancel context.CancelFunc) (*ckptEmitter, error) {
	if cfg.OnCheckpoint == nil && cfg.CheckpointPath == "" {
		return nil, nil
	}
	em := &ckptEmitter{
		cfg:     cfg,
		params:  params,
		workers: workers,
		noise:   noise,
		every:   cfg.CheckpointEvery,
		cancel:  cancel,
	}
	if em.every <= 0 {
		em.every = 1
	}
	if cfg.CheckpointPath != "" {
		file, err := checkpoint.Open(cfg.CheckpointPath, checkpoint.DefaultKeep)
		if err != nil {
			return nil, err
		}
		em.file = file
	}
	return em, nil
}

// install hooks the emitter into the engine.
func (em *ckptEmitter) install(eng *ga.Engine) {
	if em == nil {
		return
	}
	eng.OnSnapshot = em.onSnapshot
}

func (em *ckptEmitter) onSnapshot(s ga.Snapshot) {
	if em.err != nil {
		return
	}
	cp := &Checkpoint{
		Experiment:  em.cfg.experimentKey(),
		Params:      em.params,
		Point:       em.cfg.Point,
		Determinism: em.cfg.Determinism,
		Workers:     em.workers,
		NoiseRNG:    em.noise(),
		Engine:      s,
	}
	em.last = cp
	if s.Generation%em.every == 0 {
		em.emit(cp)
	}
}

func (em *ckptEmitter) emit(cp *Checkpoint) {
	if em.file != nil {
		if err := em.file.Save(cp); err != nil {
			em.err = fmt.Errorf("core: checkpointing %s: %w", cp.Experiment, err)
			em.cancel()
			return
		}
	}
	if em.cfg.OnCheckpoint != nil {
		em.cfg.OnCheckpoint(cp)
	}
	em.emittedGen = cp.Engine.Generation
}

// finish settles the checkpoint after the engine returns: a persistence
// failure surfaces as the search error; a cancelled search gets its final
// generation flushed regardless of the interval (the graceful-drain
// guarantee); an uninterrupted finish retires the checkpoint file.
func (em *ckptEmitter) finish(res ga.Result, runErr error) error {
	if em == nil {
		return nil
	}
	if em.err != nil {
		return em.err
	}
	if runErr != nil {
		return nil // engine error wins; keep the last checkpoint on disk
	}
	if res.Canceled {
		if em.last != nil && em.last.Engine.Generation > em.emittedGen {
			if em.emit(em.last); em.err != nil {
				return em.err
			}
		}
		return nil
	}
	if em.file != nil {
		return em.file.Remove()
	}
	return nil
}

// RunSearchFrom continues a checkpointed search to completion. The spec,
// criterion and database come from cfg exactly as in RunSearchContext; the
// engine parameters, operating point, population and both RNG streams come
// from the checkpoint, so the remaining generations replay the exact
// deterministic stream of the interrupted run. cfg.Workers may differ from
// the checkpoint's — farm results are bit-identical at any worker count —
// but a serial-protocol checkpoint (Workers 0) must stay serial.
func (f *Framework) RunSearchFrom(ctx context.Context, cfg SearchConfig,
	cp *Checkpoint) (*SearchResult, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("core: nil spec")
	}
	if cp == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	if cp.Islands != nil {
		// The checkpoint is authoritative about the search topology, exactly
		// as it is about Point and Determinism.
		return f.resumeIslandSearch(ctx, cfg, cp)
	}
	cfg.Islands = islands.Config{}
	cfg.Point = cp.Point
	cfg.Determinism = cp.Determinism
	if key := cfg.experimentKey(); key != cp.Experiment {
		return nil, fmt.Errorf("core: checkpoint is for %q, config describes %q",
			cp.Experiment, key)
	}
	params := cp.Params
	if cfg.MaxDuration > 0 {
		params.MaxDuration = cfg.MaxDuration // fresh budget for the resumed leg
	}
	if err := f.Srv.SetDeterminism(cfg.Determinism); err != nil {
		return nil, err
	}
	if err := f.Apply(cp.Point); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Prepare(f); err != nil {
		return nil, err
	}

	// Mirror RunSearchContext's split protocol so the framework RNG ends up
	// where the uninterrupted run would have it (the winner's re-measurement
	// draws from it); the engine and noise streams are then restored to
	// their checkpointed positions instead of their fresh ones.
	engRNG := f.RNG.Split()
	_ = f.RNG.Split() // initial population, carried by the checkpoint instead

	workers := cfg.Workers
	if cp.Workers >= 1 && workers < 1 {
		workers = cp.Workers
	}
	if cp.Workers < 1 && workers >= 1 {
		return nil, fmt.Errorf("core: %s was checkpointed under the serial "+
			"noise protocol; resume with Workers 0", cp.Experiment)
	}
	var (
		batch ga.BatchFitness
		noise func() [4]uint64
	)
	if workers >= 1 {
		root := f.RNG.Split() // consume the split, then rewind the child
		if err := root.Restore(cp.NoiseRNG); err != nil {
			return nil, fmt.Errorf("core: resuming %s: %w", cp.Experiment, err)
		}
		pool, err := f.NewEvalPool(cfg, workers, root)
		if err != nil {
			return nil, err
		}
		if batch, noise, err = f.fleetOrPool(cfg, pool); err != nil {
			return nil, err
		}
	} else {
		// The serial protocol draws measurement noise from f.RNG itself.
		if err := f.RNG.Restore(cp.NoiseRNG); err != nil {
			return nil, fmt.Errorf("core: resuming %s: %w", cp.Experiment, err)
		}
		var err error
		if batch, noise, err = f.newBatch(cfg, 0); err != nil {
			return nil, err
		}
	}

	eng, err := ga.NewBatch(params, batch, engRNG)
	if err != nil {
		return nil, err
	}
	eng.OnGeneration = cfg.OnGeneration

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	em, err := newCkptEmitter(cfg, params, workers, noise, cancel)
	if err != nil {
		return nil, err
	}
	em.install(eng)

	res, err := eng.ResumeContext(ctx, cp.Engine)
	return f.finishSearch(cfg, eng, em, res, err)
}
