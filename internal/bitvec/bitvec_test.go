package bitvec

import (
	"fmt"
	"testing"
	"testing/quick"

	"dstress/internal/xrand"
)

func TestNewZeroed(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.OnesCount() != 0 {
		t.Fatal("new vector not zeroed")
	}
	if v.NumWords() != 3 {
		t.Fatalf("NumWords = %d, want 3", v.NumWords())
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(100)
	v.Set(0, true)
	v.Set(63, true)
	v.Set(64, true)
	v.Set(99, true)
	for _, i := range []int{0, 63, 64, 99} {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.OnesCount() != 4 {
		t.Fatalf("OnesCount = %d", v.OnesCount())
	}
	v.Flip(63)
	if v.Get(63) {
		t.Error("Flip did not clear bit 63")
	}
	v.Set(0, false)
	if v.Get(0) {
		t.Error("Set(0,false) did not clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for name, f := range map[string]func(){
		"Get":  func() { v.Get(10) },
		"Set":  func() { v.Set(-1, true) },
		"Flip": func() { v.Flip(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestFromUint64(t *testing.T) {
	v := FromUint64(0b1101)
	if !v.Get(0) || v.Get(1) || !v.Get(2) || !v.Get(3) {
		t.Fatalf("FromUint64 bits wrong: %s", v)
	}
	if v.Uint64() != 0b1101 {
		t.Fatalf("Uint64 = %b", v.Uint64())
	}
}

func TestFromWordsMasksTail(t *testing.T) {
	v := FromWords(4, []uint64{0xff})
	if v.OnesCount() != 4 {
		t.Fatalf("tail bits not masked: count=%d", v.OnesCount())
	}
}

func TestCloneEqual(t *testing.T) {
	rng := xrand.New(1)
	v := Random(300, 0.5, rng)
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Flip(200)
	if v.Equal(c) {
		t.Fatal("mutating clone affected original comparison")
	}
	if v.Get(200) == c.Get(200) {
		t.Fatal("clone shares storage with original")
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Fatal("vectors of different length reported equal")
	}
}

func TestMatchCount(t *testing.T) {
	a := MustParse("110010")
	b := MustParse("100011")
	// positions: 0 match,1 diff,2 match,3 match,4 match,5 diff -> 4 matches
	if got := a.MatchCount(b); got != 4 {
		t.Fatalf("MatchCount = %d, want 4", got)
	}
	if got := a.MatchCount(a); got != 6 {
		t.Fatalf("self MatchCount = %d, want 6", got)
	}
}

func TestMatchCountProperty(t *testing.T) {
	rng := xrand.New(2)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(500)
		a := Random(n, 0.5, rng)
		b := Random(n, 0.5, rng)
		// Symmetric, bounded, and complements to Hamming distance.
		m := a.MatchCount(b)
		if m != b.MatchCount(a) || m < 0 || m > n {
			return false
		}
		diff := 0
		for i := 0; i < n; i++ {
			if a.Get(i) != b.Get(i) {
				diff++
			}
		}
		return m+diff == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDensity(t *testing.T) {
	rng := xrand.New(3)
	v := Random(100000, 0.3, rng)
	frac := float64(v.OnesCount()) / 100000
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("density %v, want ~0.3", frac)
	}
	u := Random(100000, 0.5, rng)
	frac = float64(u.OnesCount()) / 100000
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("density %v, want ~0.5", frac)
	}
}

func TestParseRoundTrip(t *testing.T) {
	s := "1100101011110000"
	v := MustParse(s)
	if v.String() != s {
		t.Fatalf("round trip: %s != %s", v.String(), s)
	}
	if _, err := Parse("10x1"); err == nil {
		t.Fatal("Parse accepted invalid character")
	}
}

func TestStringTruncates(t *testing.T) {
	v := New(1000)
	s := v.String()
	if len(s) > 160 {
		t.Fatalf("String too long: %d chars", len(s))
	}
}

// TestBitStringRoundTripsBeyondDisplayWidth pins the persistence/display
// split: String elides past 128 bits (fine for logs, fatal for storage);
// BitString must round-trip through Parse at any length.
func TestBitStringRoundTripsBeyondDisplayWidth(t *testing.T) {
	rng := xrand.New(31)
	for _, n := range []int{1, 64, 128, 129, 1000} {
		v := Random(n, 0.5, rng)
		s := v.BitString()
		if len(s) != n {
			t.Fatalf("n=%d: BitString length %d", n, len(s))
		}
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !v.Equal(back) {
			t.Fatalf("n=%d: BitString did not round-trip", n)
		}
	}
}

// refBitString is the per-bit rendering the word-at-a-time BitString must
// reproduce.
func refBitString(v *Vec) string {
	b := make([]byte, v.Len())
	for i := range b {
		b[i] = '0'
		if v.Get(i) {
			b[i] = '1'
		}
	}
	return string(b)
}

func TestBitStringParseMatchPerBitReference(t *testing.T) {
	rng := xrand.New(32)
	for n := 0; n <= 300; n++ {
		v := Random(n, 0.5, rng)
		s := v.BitString()
		if want := refBitString(v); s != want {
			t.Fatalf("n=%d: BitString %q, per-bit %q", n, s, want)
		}
		back, err := Parse(s)
		if err != nil || !back.Equal(v) {
			t.Fatalf("n=%d: Parse(BitString) = %v, %v", n, back, err)
		}
	}
}

func TestParseReportsFirstBadCharacter(t *testing.T) {
	base := "0110100111010010110"
	for i := 0; i < len(base); i++ {
		for _, bad := range []string{"x", "2", "/", "é"} {
			s := base[:i] + bad + base[i+1:]
			_, err := Parse(s)
			want := fmt.Sprintf("bitvec: invalid character %q at %d", []rune(bad)[0], i)
			if err == nil || err.Error() != want {
				t.Fatalf("Parse(%q) error %v, want %q", s, err, want)
			}
		}
	}
}

func TestSwapRangeMatchesPerBitSwap(t *testing.T) {
	rng := xrand.New(33)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(400)
		a, b := Random(n, 0.5, rng), Random(n, 0.5, rng)
		lo, hi := rng.Intn(n+1), rng.Intn(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		wantA, wantB := a.Clone(), b.Clone()
		for i := lo; i < hi; i++ {
			x, y := wantA.Get(i), wantB.Get(i)
			wantA.Set(i, y)
			wantB.Set(i, x)
		}
		a.SwapRange(b, lo, hi)
		if !a.Equal(wantA) || !b.Equal(wantB) {
			t.Fatalf("n=%d [%d,%d): word swap differs from per-bit swap", n, lo, hi)
		}
	}
}

func TestSwapRangePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"length":   func() { New(10).SwapRange(New(11), 0, 1) },
		"past end": func() { New(10).SwapRange(New(10), 5, 11) },
		"reversed": func() { New(10).SwapRange(New(10), 6, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SwapRange did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBytesRoundTripAndCanonical(t *testing.T) {
	rng := xrand.New(34)
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		v := Random(n, 0.5, rng)
		b := v.Bytes()
		if len(b) != 8*v.NumWords() {
			t.Fatalf("n=%d: %d packed bytes", n, len(b))
		}
		back, err := FromBytes(n, b)
		if err != nil || !back.Equal(v) {
			t.Fatalf("n=%d: FromBytes(Bytes) = %v, %v", n, back, err)
		}
	}
	good := FromUint64(0x0102030405060708).Bytes()
	if good[0] != 0x08 || good[7] != 0x01 {
		t.Fatalf("packed words are not little-endian: % x", good)
	}
	for name, tc := range map[string]struct {
		n int
		b []byte
	}{
		"short":     {64, good[:7]},
		"long":      {8, good},
		"tail bits": {4, []byte{0x10, 0, 0, 0, 0, 0, 0, 0}},
		"negative":  {-1, nil},
	} {
		if _, err := FromBytes(tc.n, tc.b); err == nil {
			t.Errorf("%s: FromBytes accepted a non-canonical buffer", name)
		}
	}
}

// blockBits is the length of the paper's 24-KByte block chromosome.
const blockBits = 24 * 1024 * 8

func BenchmarkBitString24K(b *testing.B) {
	v := Random(blockBits, 0.5, xrand.New(5))
	b.SetBytes(blockBits)
	for i := 0; i < b.N; i++ {
		_ = v.BitString()
	}
}

func BenchmarkParse24K(b *testing.B) {
	s := Random(blockBits, 0.5, xrand.New(6)).BitString()
	b.SetBytes(blockBits)
	for i := 0; i < b.N; i++ {
		if _, err := Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchCount4K(b *testing.B) {
	rng := xrand.New(4)
	x := Random(4096, 0.5, rng)
	y := Random(4096, 0.5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.MatchCount(y)
	}
}
