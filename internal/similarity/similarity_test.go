package similarity

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dstress/internal/bitvec"
	"dstress/internal/xrand"
)

// OTU is the 2x2 contingency table of two binary feature vectors:
//
//	           y_i = 1   y_i = 0
//	x_i = 1       A         C
//	x_i = 0       B         D
//
// otuOf builds it bit by bit; its SokalMichener is the plain formula the
// packed SokalMichener is checked against.
type OTU struct {
	A, B, C, D int
}

func otuOf(x, y *bitvec.Vec) (OTU, error) {
	if x.Len() != y.Len() {
		return OTU{}, fmt.Errorf("length mismatch %d vs %d", x.Len(), y.Len())
	}
	var o OTU
	for i := 0; i < x.Len(); i++ {
		switch {
		case x.Get(i) && y.Get(i):
			o.A++
		case !x.Get(i) && y.Get(i):
			o.B++
		case x.Get(i) && !y.Get(i):
			o.C++
		default:
			o.D++
		}
	}
	return o, nil
}

func (o OTU) N() int { return o.A + o.B + o.C + o.D }

func (o OTU) SokalMichener() float64 {
	if o.N() == 0 {
		return 1
	}
	return float64(o.A+o.D) / float64(o.N())
}

func TestOTUCounts(t *testing.T) {
	x := bitvec.MustParse("110100")
	y := bitvec.MustParse("101100")
	o, err := otuOf(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// pos: (1,1)A (1,0)C (0,1)B (1,1)A (0,0)D (0,0)D
	want := OTU{A: 2, B: 1, C: 1, D: 2}
	if o != want {
		t.Fatalf("OTU = %+v, want %+v", o, want)
	}
	if o.N() != 6 {
		t.Fatalf("N = %d", o.N())
	}
	if got := o.SokalMichener(); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Fatalf("SMF = %v, want 4/6", got)
	}
}

func TestOTULengthMismatch(t *testing.T) {
	if _, err := otuOf(bitvec.New(3), bitvec.New(4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SokalMichener(bitvec.New(3), bitvec.New(4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSokalMichenerIdenticalAndComplement(t *testing.T) {
	rng := xrand.New(1)
	v := bitvec.Random(200, 0.5, rng)
	s, err := SokalMichener(v, v)
	if err != nil || s != 1 {
		t.Fatalf("self similarity %v err %v", s, err)
	}
	comp := v.Clone()
	for i := 0; i < comp.Len(); i++ {
		comp.Flip(i)
	}
	s, err = SokalMichener(v, comp)
	if err != nil || s != 0 {
		t.Fatalf("complement similarity %v err %v", s, err)
	}
}

func TestSokalMichenerMatchesOTU(t *testing.T) {
	rng := xrand.New(2)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(300)
		x := bitvec.Random(n, 0.5, rng)
		y := bitvec.Random(n, 0.5, rng)
		o, err := otuOf(x, y)
		if err != nil {
			return false
		}
		fast, err := SokalMichener(x, y)
		if err != nil {
			return false
		}
		return math.Abs(o.SokalMichener()-fast) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSokalMichenerSymmetric(t *testing.T) {
	rng := xrand.New(3)
	x := bitvec.Random(100, 0.3, rng)
	y := bitvec.Random(100, 0.7, rng)
	a, _ := SokalMichener(x, y)
	b, _ := SokalMichener(y, x)
	if a != b {
		t.Fatalf("asymmetric: %v vs %v", a, b)
	}
}

func TestEmptyVectors(t *testing.T) {
	s, err := SokalMichener(bitvec.New(0), bitvec.New(0))
	if err != nil || s != 1 {
		t.Fatalf("empty similarity %v err %v", s, err)
	}
	if (OTU{}).SokalMichener() != 1 {
		t.Fatal("empty OTU similarity != 1")
	}
}

func TestWeightedJaccardBasic(t *testing.T) {
	s, err := WeightedJaccardInts([]int{1, 2, 3}, []int{1, 2, 3})
	if err != nil || s != 1 {
		t.Fatalf("identical WJ = %v err %v", s, err)
	}
	s, err = WeightedJaccardInts([]int{2, 0}, []int{0, 2})
	if err != nil || s != 0 {
		t.Fatalf("disjoint WJ = %v err %v", s, err)
	}
	s, err = WeightedJaccardInts([]int{1, 1}, []int{2, 2})
	if err != nil || math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("WJ = %v, want 0.5", s)
	}
}

func TestWeightedJaccardEdgeCases(t *testing.T) {
	if _, err := WeightedJaccardInts([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := WeightedJaccardInts([]int{-1}, []int{1}); err == nil {
		t.Fatal("negative feature accepted")
	}
	s, err := WeightedJaccardInts([]int{0, 0}, []int{0, 0})
	if err != nil || s != 1 {
		t.Fatalf("all-zero WJ = %v err %v", s, err)
	}
}

func TestWeightedJaccardProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(40)
		x := make([]int, n)
		y := make([]int, n)
		for i := range x {
			x[i] = r.Intn(21)
			y[i] = r.Intn(21)
		}
		a, err1 := WeightedJaccardInts(x, y)
		b, err2 := WeightedJaccardInts(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		// Symmetric, bounded in [0,1].
		return a == b && a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedJaccardInts(t *testing.T) {
	s, err := WeightedJaccardInts([]int{4, 2}, []int{2, 4})
	if err != nil || math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("WJints = %v err %v", s, err)
	}
}

func TestMeanPairwiseBits(t *testing.T) {
	a := bitvec.MustParse("1111")
	b := bitvec.MustParse("1111")
	c := bitvec.MustParse("0000")
	// pairs: (a,b)=1, (a,c)=0, (b,c)=0 -> mean 1/3
	m, err := MeanPairwiseBits([]*bitvec.Vec{a, b, c})
	if err != nil || math.Abs(m-1.0/3.0) > 1e-12 {
		t.Fatalf("mean = %v err %v", m, err)
	}
	m, err = MeanPairwiseBits([]*bitvec.Vec{a})
	if err != nil || m != 1 {
		t.Fatal("singleton population not trivially converged")
	}
	if _, err := MeanPairwiseBits([]*bitvec.Vec{a, b, bitvec.New(5)}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	m, err = MeanPairwiseBits([]*bitvec.Vec{bitvec.New(0), bitvec.New(0)})
	if err != nil || m != 1 {
		t.Fatalf("empty vectors: mean = %v err %v", m, err)
	}
}

func BenchmarkMeanPairwise40x64(b *testing.B) {
	rng := xrand.New(9)
	pop := make([]*bitvec.Vec, 40)
	for i := range pop {
		pop[i] = bitvec.Random(64, 0.5, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeanPairwiseBits(pop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeanPairwise64x24K is the convergence check of a search_24k
// generation: all 2,016 pairs of 64 block-virus chromosomes.
func BenchmarkMeanPairwise64x24K(b *testing.B) {
	rng := xrand.New(9)
	pop := make([]*bitvec.Vec, 64)
	for i := range pop {
		pop[i] = bitvec.Random(196608, 0.5, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeanPairwiseBits(pop); err != nil {
			b.Fatal(err)
		}
	}
}
