package ecc

import (
	"math/bits"
	"testing"
	"testing/quick"

	"dstress/internal/xrand"
)

func TestColumnsDistinctOddWeight(t *testing.T) {
	seen := map[uint8]bool{}
	for j, s := range colSyn {
		if bits.OnesCount8(s)%2 != 1 {
			t.Errorf("column %d has even weight syndrome %08b", j, s)
		}
		if seen[s] {
			t.Errorf("duplicate syndrome %08b", s)
		}
		seen[s] = true
	}
}

func TestCleanDecode(t *testing.T) {
	for _, d := range []uint64{0, 1, ^uint64(0), 0xDEADBEEFCAFEF00D} {
		r := Decode(Encode(d))
		if r.Status != OK || r.Data != d {
			t.Fatalf("clean word %x decoded as %v data %x", d, r.Status, r.Data)
		}
	}
}

func TestAllSingleBitErrorsCorrected(t *testing.T) {
	data := uint64(0x0123456789ABCDEF)
	w := Encode(data)
	for i := 0; i < CodeBits; i++ {
		r := Decode(w.FlipBit(i))
		if r.Status != Corrected {
			t.Fatalf("bit %d: status %v, want Corrected", i, r.Status)
		}
		if r.Bit != i {
			t.Fatalf("bit %d: corrected bit %d", i, r.Bit)
		}
		if r.Data != data {
			t.Fatalf("bit %d: data %x not restored", i, r.Data)
		}
	}
}

func TestAllDoubleBitErrorsDetected(t *testing.T) {
	data := uint64(0xFEDCBA9876543210)
	w := Encode(data)
	for i := 0; i < CodeBits; i++ {
		for j := i + 1; j < CodeBits; j++ {
			r := Decode(w.FlipBit(i).FlipBit(j))
			if r.Status != Uncorrectable {
				t.Fatalf("flips (%d,%d): status %v, want Uncorrectable",
					i, j, r.Status)
			}
		}
	}
}

func TestSingleErrorPropertyRandomData(t *testing.T) {
	f := func(data uint64, bit uint8) bool {
		i := int(bit) % CodeBits
		r := Decode(Encode(data).FlipBit(i))
		return r.Status == Corrected && r.Data == data && r.Bit == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleErrorPropertyRandomData(t *testing.T) {
	f := func(data uint64, b1, b2 uint8) bool {
		i, j := int(b1)%CodeBits, int(b2)%CodeBits
		if i == j {
			return true
		}
		r := Decode(Encode(data).FlipBit(i).FlipBit(j))
		return r.Status == Uncorrectable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Triple errors must never be silently "OK with wrong data" unless they are
// miscorrected; with odd-weight columns a 3-bit error has an odd-weight
// syndrome, which is either a column (miscorrection -> SDC) or detected.
// Crucially, the syndrome is never zero, so OK-with-wrong-data cannot occur
// for exactly 3 flips.
func TestTripleErrorNeverSilentOK(t *testing.T) {
	rng := xrand.New(99)
	for n := 0; n < 5000; n++ {
		data := rng.Uint64()
		w := Encode(data)
		i := rng.Intn(CodeBits)
		j := (i + 1 + rng.Intn(CodeBits-1)) % CodeBits
		k := j
		for k == i || k == j {
			k = rng.Intn(CodeBits)
		}
		r := Decode(w.FlipBit(i).FlipBit(j).FlipBit(k))
		if r.Status == OK {
			t.Fatalf("3-bit error (%d,%d,%d) decoded as OK", i, j, k)
		}
	}
}

func TestTripleErrorsCanMiscorrect(t *testing.T) {
	// Find at least one 3-bit data error that aliases to a single-column
	// syndrome: syn(i)^syn(j)^syn(k) == syn(m). This demonstrates the SDC
	// path the paper describes for >2-bit errors.
	data := uint64(0)
	w := Encode(data)
	found := false
outer:
	for i := 0; i < DataBits && !found; i++ {
		for j := i + 1; j < DataBits; j++ {
			for k := j + 1; k < DataBits; k++ {
				s := colSyn[i] ^ colSyn[j] ^ colSyn[k]
				if synToCol[s] >= 0 {
					bad := w.FlipBit(i).FlipBit(j).FlipBit(k)
					if !isSDC(bad, data) {
						t.Fatalf("expected SDC for flips (%d,%d,%d)", i, j, k)
					}
					found = true
					break outer
				}
			}
		}
	}
	if !found {
		t.Fatal("no miscorrecting 3-bit pattern found; code unexpectedly strong")
	}
}

func TestCheckBitErrorLeavesDataIntact(t *testing.T) {
	data := uint64(0xAAAA5555AAAA5555)
	for i := DataBits; i < CodeBits; i++ {
		r := Decode(Encode(data).FlipBit(i))
		if r.Status != Corrected || r.Data != data {
			t.Fatalf("check-bit %d error mishandled: %+v", i, r)
		}
	}
}

// isSDC reports whether decoding w yields data other than original without
// flagging an uncorrectable error: silent data corruption.
func isSDC(w Word, original uint64) bool {
	r := Decode(w)
	return r.Status != Uncorrectable && r.Data != original
}

func TestIsSDCFalseForCleanAndCE(t *testing.T) {
	data := uint64(42)
	if isSDC(Encode(data), data) {
		t.Fatal("clean word reported as SDC")
	}
	if isSDC(Encode(data).FlipBit(3), data) {
		t.Fatal("correctable word reported as SDC")
	}
}

func TestFlipBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FlipBit(72) did not panic")
		}
	}()
	Encode(0).FlipBit(CodeBits)
}

func TestStatusString(t *testing.T) {
	if OK.String() != "OK" || Corrected.String() != "CE" ||
		Uncorrectable.String() != "UE" {
		t.Fatal("Status strings wrong")
	}
	if Status(99).String() != "ecc.Status(?)" {
		t.Fatal("unknown status string wrong")
	}
}

func BenchmarkEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkDecodeCorrect(b *testing.B) {
	w := Encode(0xDEADBEEF).FlipBit(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Decode(w)
	}
}

// TestChecksumTablesMatchReference pins the byte-sliced encode tables to the
// definition-level column walk: every checksum the fast path produces must
// equal the reference parity computation.
func TestChecksumTablesMatchReference(t *testing.T) {
	rng := xrand.New(2020)
	cases := []uint64{0, ^uint64(0), 0x3333333333333333, 0xAAAAAAAAAAAAAAAA}
	for i := 0; i < 10000; i++ {
		cases = append(cases, rng.Uint64())
	}
	for _, data := range cases {
		if got, want := checksum(data), checksumRef(data); got != want {
			t.Fatalf("checksum(%#x) = %#x, reference %#x", data, got, want)
		}
		if Checksum(data) != Encode(data).Check {
			t.Fatalf("Checksum(%#x) disagrees with Encode", data)
		}
	}
}

func BenchmarkChecksumRef(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = checksumRef(uint64(i) * 0x9e3779b97f4a7c15)
	}
}
