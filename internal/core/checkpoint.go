package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

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

// ckptEmitter forwards a search's checkpoints to cfg.OnCheckpoint: the
// search builds one at every generation boundary and the emitter forwards
// it on the CheckpointEvery interval. A nil *ckptEmitter (no hook set) is
// valid and does nothing.
type ckptEmitter struct {
	on         func(*Checkpoint)
	every      int
	cancel     context.CancelFunc
	last       *Checkpoint // newest built checkpoint, emitted or not
	emittedGen int         // generation of the last forwarded checkpoint
	err        error       // a checkpoint that could not be built
}

// newCkptEmitter returns nil when cfg sets no OnCheckpoint hook. cancel
// stops the search when a checkpoint cannot be built: running on for hours
// without the resumable state the caller asked for would be the quiet
// version of the crash checkpoints exist to survive.
func newCkptEmitter(cfg SearchConfig, cancel context.CancelFunc) *ckptEmitter {
	if cfg.OnCheckpoint == nil {
		return nil
	}
	return &ckptEmitter{on: cfg.OnCheckpoint, every: max(cfg.CheckpointEvery, 1), cancel: cancel}
}

// take receives the checkpoint of a closed generation.
func (em *ckptEmitter) take(cp *Checkpoint) {
	if em.err != nil {
		return
	}
	em.last = cp
	if cp.Generation()%em.every == 0 {
		em.emit(cp)
	}
}

// fail records a checkpoint that could not be built and stops the search.
func (em *ckptEmitter) fail(err error) {
	if em.err == nil {
		em.err = err
		em.cancel()
	}
}

func (em *ckptEmitter) emit(cp *Checkpoint) {
	em.on(cp)
	em.emittedGen = cp.Generation()
}

// finish settles the emitter after the search returns: a checkpoint that
// could not be built surfaces as the search error, and a cancelled search
// gets its final generation forwarded regardless of the interval (the
// graceful-drain guarantee).
func (em *ckptEmitter) finish(canceled bool, runErr error) error {
	switch {
	case em == nil:
		return nil
	case em.err != nil:
		return em.err
	case runErr == nil && canceled && em.last != nil && em.last.Generation() > em.emittedGen:
		em.emit(em.last)
	}
	return nil
}
