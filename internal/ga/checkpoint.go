package ga

import (
	"fmt"
	"reflect"

	"dstress/internal/bitvec"
)

// GenomeRecord is the serialized form of a Genome, covering the three
// chromosome kinds the engine ships. It is the unit a search checkpoint
// stores: unlike virusdb.Record it carries the gene bounds, so a population
// can be rebuilt without consulting the spec that created it.
//
// A bit genome is written packed: its length N plus its 64-bit words
// little-endian in Packed (base64 in JSON), about a sixth of the size of a
// '0'/'1' string.
type GenomeRecord struct {
	Type   string `json:"type"` // "bit", "int" or "mixed"
	N      int    `json:"n,omitempty"`
	Packed []byte `json:"packed,omitempty"`
	Vals   []int  `json:"vals,omitempty"`
	Lo     []int  `json:"lo,omitempty"` // int: one element; mixed: per gene
	Hi     []int  `json:"hi,omitempty"`
}

// EncodeGenome serializes a chromosome. It fails on genome types it does not
// know: a checkpoint that silently dropped chromosomes could never restore
// the population it claims to hold.
func EncodeGenome(g Genome) (GenomeRecord, error) {
	switch t := g.(type) {
	case *BitGenome:
		return GenomeRecord{Type: "bit", N: t.Bits.Len(), Packed: t.Bits.Bytes()}, nil
	case *IntGenome:
		return GenomeRecord{
			Type: "int",
			Vals: append([]int(nil), t.Vals...),
			Lo:   []int{t.Lo},
			Hi:   []int{t.Hi},
		}, nil
	case *MixedGenome:
		return GenomeRecord{
			Type: "mixed",
			Vals: append([]int(nil), t.Vals...),
			Lo:   append([]int(nil), t.Lo...),
			Hi:   append([]int(nil), t.Hi...),
		}, nil
	}
	return GenomeRecord{}, fmt.Errorf("ga: cannot serialize genome type %T", g)
}

// DecodeGenome rebuilds a chromosome from its serialized form, validating
// bounds and encodings so a damaged checkpoint fails loudly instead of
// resuming from corrupt state.
func DecodeGenome(rec GenomeRecord) (Genome, error) {
	switch rec.Type {
	case "bit":
		// An empty chromosome is corrupt: no search breeds one.
		if rec.N <= 0 {
			return nil, fmt.Errorf("ga: bit genome: empty chromosome (n=%d)", rec.N)
		}
		v, err := bitvec.FromBytes(rec.N, rec.Packed)
		if err != nil {
			return nil, fmt.Errorf("ga: bit genome: %w", err)
		}
		return &BitGenome{Bits: v}, nil
	case "int":
		if len(rec.Lo) != 1 || len(rec.Hi) != 1 {
			return nil, fmt.Errorf("ga: int genome with %d/%d bounds",
				len(rec.Lo), len(rec.Hi))
		}
		return NewIntGenome(append([]int(nil), rec.Vals...), rec.Lo[0], rec.Hi[0])
	case "mixed":
		return NewMixedGenome(append([]int(nil), rec.Vals...),
			append([]int(nil), rec.Lo...), append([]int(nil), rec.Hi...))
	}
	return nil, fmt.Errorf("ga: unknown genome type %q", rec.Type)
}

// Snapshot is the engine's resumable state, captured at a generation
// boundary: the evaluated, sorted population, the RNG position before the
// next generation is bred, and the bookkeeping a resumed Result must carry
// forward. A search resumed from a Snapshot continues the exact
// deterministic stream — its remaining generations, final population and
// history are bit-identical to the uninterrupted run's.
type Snapshot struct {
	Generation  int            `json:"generation"`
	Population  []GenomeRecord `json:"population"`
	Fitnesses   []float64      `json:"fitnesses"`
	RNG         [4]uint64      `json:"rng"`
	Evaluations int            `json:"evaluations"`
	History     []GenStats     `json:"history,omitempty"`
}

// validate checks the structural invariants a snapshot must satisfy before
// an engine built with params may resume from it, and returns the decoded
// population. Every chromosome must decode and all must share one type and
// length: the genetic operators pair arbitrary members, and a mismatched
// pair would panic mid-search instead of failing here.
func (s Snapshot) validate(p Params) ([]Genome, error) {
	switch {
	case len(s.Population) != p.PopulationSize:
		return nil, fmt.Errorf("ga: snapshot population %d, engine expects %d",
			len(s.Population), p.PopulationSize)
	case len(s.Fitnesses) != len(s.Population):
		return nil, fmt.Errorf("ga: snapshot has %d fitnesses for %d genomes",
			len(s.Fitnesses), len(s.Population))
	case s.Generation < 1 || s.Generation > p.MaxGenerations:
		return nil, fmt.Errorf("ga: snapshot generation %d outside [1,%d]",
			s.Generation, p.MaxGenerations)
	}
	pop := make([]Genome, len(s.Population))
	for i, rec := range s.Population {
		g, err := DecodeGenome(rec)
		if err != nil {
			return nil, fmt.Errorf("ga: snapshot genome %d: %w", i, err)
		}
		if i > 0 {
			if err := Compatible(pop[0], g); err != nil {
				return nil, fmt.Errorf("ga: snapshot genome %d: %w", i, err)
			}
		}
		pop[i] = g
	}
	return pop, nil
}

// Compatible reports whether two chromosomes can share a population: same
// type and same length, the precondition of Crossover and SimilarityTo.
func Compatible(a, b Genome) error {
	if reflect.TypeOf(a) != reflect.TypeOf(b) || a.Len() != b.Len() {
		return fmt.Errorf("ga: incompatible genomes %T[%d] and %T[%d]",
			a, a.Len(), b, b.Len())
	}
	return nil
}
