package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"dstress/internal/dram"
	"dstress/internal/ga"
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
	// Engine is the GA state at the checkpointed generation boundary.
	Engine ga.Snapshot `json:"engine"`
}

// Generation returns the last completed generation the checkpoint holds.
func (cp *Checkpoint) Generation() int { return cp.Engine.Generation }

// EncodeCheckpoint serializes cp in seglog's header-plus-tail layout (see
// seglog.Payload), the form the daemon journals every generation. The
// header is the checkpoint's JSON with the packed words of every bit genome
// left out; the words follow as the tail, genome after genome in population
// order. A checkpoint without packed genomes has no tail and encodes as its
// plain JSON. The words are copied once, into the returned buffer.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	hdr := cp.ownRecords()
	var words [][]byte
	tailLen := 0
	err := hdr.eachGenome(func(r *ga.GenomeRecord) error {
		if r.Type != "bit" {
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

// DecodeCheckpoint reads a checkpoint EncodeCheckpoint wrote. Every bit
// genome in the header must name a length and no words, and the tail must
// hold exactly their words; a checkpoint without bit genomes is plain JSON.
// Any other form is an error: bit genome words in the JSON (json.Marshal of
// a Checkpoint, which journals held before the tail layout), genomes
// spelled as '0'/'1' strings among them, and a header key this build does
// not know (a checkpoint of a search shape an earlier build ran would
// otherwise decode as an empty search). The packed words of the returned
// genome records share data's memory.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	p, err := seglog.SplitPayload(data)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	cp := new(Checkpoint)
	dec := json.NewDecoder(bytes.NewReader(p.Header))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cp); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("core: checkpoint: data past the JSON header")
	}
	tail := p.Tail
	err = cp.eachGenome(func(r *ga.GenomeRecord) error {
		if r.Type != "bit" {
			return nil
		}
		switch {
		case r.Packed != nil:
			return fmt.Errorf("core: checkpoint: packed words in the header")
		case r.N <= 0:
			return fmt.Errorf("core: checkpoint: bit genome of %d bits", r.N)
		case r.N > 8*len(tail) || packedLen(r.N) > len(tail):
			return fmt.Errorf("core: checkpoint: tail ends inside a %d-bit genome", r.N)
		}
		n := packedLen(r.N)
		r.Packed = tail[:n:n]
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

// eachGenome calls fn on every genome record of the engine population, in
// tail order.
func (cp *Checkpoint) eachGenome(fn func(*ga.GenomeRecord) error) error {
	for i := range cp.Engine.Population {
		if err := fn(&cp.Engine.Population[i]); err != nil {
			return err
		}
	}
	return nil
}

// ownRecords returns a shallow copy of cp whose genome records are its
// own, so that they can be changed without touching cp's.
func (cp *Checkpoint) ownRecords() *Checkpoint {
	c := *cp
	c.Engine.Population = slices.Clone(cp.Engine.Population)
	return &c
}

// ckptEmitter forwards a search's checkpoints to cfg.OnCheckpoint: the
// search builds one at every generation boundary and the emitter forwards
// it on the CheckpointEvery interval. A nil *ckptEmitter (no hook set) is
// valid and does nothing. A checkpoint that cannot be built never reaches
// it: the engine's snapshot hook fails, and the search stops with that
// error rather than run on without the resumable state the caller asked
// for.
type ckptEmitter struct {
	on         func(*Checkpoint)
	every      int
	last       *Checkpoint // newest built checkpoint, emitted or not
	emittedGen int         // generation of the last forwarded checkpoint
}

// newCkptEmitter returns nil when cfg sets no OnCheckpoint hook.
func newCkptEmitter(cfg SearchConfig) *ckptEmitter {
	if cfg.OnCheckpoint == nil {
		return nil
	}
	return &ckptEmitter{on: cfg.OnCheckpoint, every: max(cfg.CheckpointEvery, 1)}
}

// take receives the checkpoint of a closed generation.
func (em *ckptEmitter) take(cp *Checkpoint) {
	em.last = cp
	if cp.Generation()%em.every == 0 {
		em.emit(cp)
	}
}

func (em *ckptEmitter) emit(cp *Checkpoint) {
	em.on(cp)
	em.emittedGen = cp.Generation()
}

// finish settles the emitter after the search returns: a cancelled search
// gets its final generation forwarded regardless of the interval (the
// graceful-drain guarantee).
func (em *ckptEmitter) finish(canceled bool, runErr error) {
	if em != nil && runErr == nil && canceled && em.last != nil &&
		em.last.Generation() > em.emittedGen {
		em.emit(em.last)
	}
}
