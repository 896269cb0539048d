package ga

import (
	"bytes"
	"encoding/json"
	"testing"

	"dstress/internal/bitvec"
	"dstress/internal/xrand"
)

// TestBitCrossoverMatchesPerBitSwap pins the word-mask crossover to the
// per-bit segment swap it replaced: the same RNG draws give the same cut
// points and the same children, and the RNG ends in the same state.
func TestBitCrossoverMatchesPerBitSwap(t *testing.T) {
	rng := xrand.New(21)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(700)
		a, b := RandomBitGenome(n, rng), RandomBitGenome(n, rng)
		state := rng.State()
		c1, c2 := a.Crossover(b, rng)

		ref := xrand.New(1)
		if err := ref.Restore(state); err != nil {
			t.Fatal(err)
		}
		wantA, wantB := a.Bits.Clone(), b.Bits.Clone()
		if n >= 2 {
			p1, p2 := ref.Intn(n), ref.Intn(n)
			if p1 > p2 {
				p1, p2 = p2, p1
			}
			for i := p1; i < p2; i++ {
				x, y := wantA.Get(i), wantB.Get(i)
				wantA.Set(i, y)
				wantB.Set(i, x)
			}
		}
		if !c1.(*BitGenome).Bits.Equal(wantA) || !c2.(*BitGenome).Bits.Equal(wantB) {
			t.Fatalf("n=%d: children differ from the per-bit swap", n)
		}
		if rng.State() != ref.State() {
			t.Fatalf("n=%d: crossover consumed a different number of draws", n)
		}
	}
}

// mutateRef is the per-bit mutation BitGenome.Mutate replaced: one
// Bool(perGene) draw per bit, and one forced flip when none came up.
func mutateRef(v *bitvec.Vec, rng *xrand.Rand, perGene float64) {
	flipped := false
	for i := 0; i < v.Len(); i++ {
		if rng.Bool(perGene) {
			v.Flip(i)
			flipped = true
		}
	}
	if !flipped {
		v.Flip(rng.Intn(v.Len()))
	}
}

// TestBitMutateMatchesPerBitReference pins the bulk-draw mutation to the
// per-bit loop: the same flips, including the forced one when no draw comes
// up, and the RNG in the same state afterwards.
func TestBitMutateMatchesPerBitReference(t *testing.T) {
	rng := xrand.New(33)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(700)
		if trial%50 == 0 {
			n = 196608 // the 24 KB template
		}
		perGene := []float64{0, 1.0 / float64(n), 0.01, 0.5, 1}[trial%5]
		g := RandomBitGenome(n, rng)
		want := g.Bits.Clone()
		state := rng.State()
		g.Mutate(rng, perGene)

		ref, err := xrand.FromState(state)
		if err != nil {
			t.Fatal(err)
		}
		mutateRef(want, ref, perGene)
		if !g.Bits.Equal(want) {
			t.Fatalf("n=%d p=%v: mutation differs from the per-bit reference", n, perGene)
		}
		if rng.State() != ref.State() {
			t.Fatalf("n=%d p=%v: mutation consumed a different number of draws", n, perGene)
		}
	}
}

// FuzzDecodeGenome feeds arbitrary JSON through the checkpoint genome
// decoder. It must never panic, and a bit genome it accepts must re-encode
// to exactly the packed bytes it was read from.
func FuzzDecodeGenome(f *testing.F) {
	rng := xrand.New(3)
	for _, g := range []Genome{
		RandomBitGenome(1, rng),
		RandomBitGenome(64, rng),
		RandomBitGenome(130, rng),
		RandomIntGenome(5, 0, 20, rng),
	} {
		rec, err := EncodeGenome(g)
		if err != nil {
			f.Fatal(err)
		}
		data, _ := json.Marshal(rec)
		f.Add(data)
	}
	// Bit genomes spelled as '0'/'1' strings, as builds before packing
	// wrote them, are corrupt, and so are words set past n.
	for _, s := range []string{
		`{"type":"bit","bits":"0110100111"}`,
		`{"type":"bit","bits":"01x0"}`,
		`{"type":"bit","bits":""}`,
		`{"type":"bit","n":4,"packed":"EAAAAAAAAAA="}`,
	} {
		var rec GenomeRecord
		if err := json.Unmarshal([]byte(s), &rec); err != nil {
			f.Fatal(err)
		}
		if _, err := DecodeGenome(rec); err == nil {
			f.Fatalf("genome %s decodes", s)
		}
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"type":"bit","n":64,"packed":"AQIDBAUGBwg=","bits":"1"}`))
	f.Add([]byte(`{"type":"mixed","vals":[1,2],"lo":[0,0],"hi":[3,3]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec GenomeRecord
		if json.Unmarshal(data, &rec) != nil {
			return
		}
		g, err := DecodeGenome(rec)
		if err != nil {
			return
		}
		bg, ok := g.(*BitGenome)
		if !ok {
			return
		}
		if bg.Len() == 0 {
			t.Fatal("accepted an empty bit genome")
		}
		again, err := EncodeGenome(g)
		if err != nil {
			t.Fatal(err)
		}
		if again.N != bg.Len() || !bytes.Equal(again.Packed, rec.Packed) {
			t.Fatalf("record %s re-encoded to n=%d packed=%x", data, again.N, again.Packed)
		}
	})
}
