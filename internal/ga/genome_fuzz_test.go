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

// FuzzDecodeGenome feeds arbitrary JSON through the checkpoint genome
// decoder. It must never panic, and a bit genome it accepts must re-encode
// to exactly the packed bytes it was read from (or, for a legacy record, to
// the packing of its bit string).
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
	for _, s := range []string{
		`{"type":"bit","bits":"0110100111"}`,
		`{"type":"bit","bits":"01x0"}`,
		`{"type":"bit","bits":""}`,
		`{"type":"bit","n":4,"packed":"EAAAAAAAAAA="}`,
		`{"type":"bit","n":64,"packed":"AQIDBAUGBwg=","bits":"1"}`,
		`{"type":"mixed","vals":[1,2],"lo":[0,0],"hi":[3,3]}`,
	} {
		f.Add([]byte(s))
	}
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
		want := rec.Packed
		if rec.Bits != "" {
			want = bitvec.MustParse(rec.Bits).Bytes()
		}
		if again.N != bg.Len() || !bytes.Equal(again.Packed, want) {
			t.Fatalf("record %s re-encoded to n=%d packed=%x", data, again.N, again.Packed)
		}
	})
}
