package stats

import (
	"math"
	"testing"

	"dstress/internal/xrand"
)

func normalSample(n int, mean, sigma float64, seed uint64) []float64 {
	rng := xrand.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Norm(mean, sigma)
	}
	return xs
}

func TestSummarizeBasics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("mean %v n %d", s.Mean, s.N)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max %v/%v", s.Min, s.Max)
	}
	// population m2 = 4 -> sample variance = 4*8/7.
	if math.Abs(s.Variance-32.0/7.0) > 1e-12 {
		t.Fatalf("variance %v", s.Variance)
	}
}

func TestSummarizeRejectsTiny(t *testing.T) {
	if _, err := Summarize([]float64{1}); err == nil {
		t.Fatal("single sample accepted")
	}
}

func TestSummarizeNormalMoments(t *testing.T) {
	s, err := Summarize(normalSample(100000, 10, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-10) > 0.05 {
		t.Fatalf("mean %v", s.Mean)
	}
	if math.Abs(s.StdDev-2) > 0.05 {
		t.Fatalf("std %v", s.StdDev)
	}
	if math.Abs(s.Skewness) > 0.05 {
		t.Fatalf("skewness %v", s.Skewness)
	}
	if math.Abs(s.Kurtosis-3) > 0.1 {
		t.Fatalf("kurtosis %v", s.Kurtosis)
	}
}

func TestSummarizeConstantSample(t *testing.T) {
	s, err := Summarize([]float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Variance != 0 || s.Skewness != 0 || s.Kurtosis != 3 {
		t.Fatalf("degenerate sample moments: %+v", s)
	}
}

// TestNormalCDFKnownValues checks the standard normal CDF at known points,
// read as 1 - NormalTail.
func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{1, 0.841344746},
	}
	for _, c := range cases {
		if got := 1 - NormalTail(c.x, 0, 1); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// TestNormalTailComplement: the normal is symmetric about its mean, so the
// tails above x and above its mirror image 2·mean - x sum to 1.
func TestNormalTailComplement(t *testing.T) {
	for _, x := range []float64{-3, -1, 0, 0.5, 2, 4.9} {
		tail, mirror := NormalTail(x, 1, 2), NormalTail(2-x, 1, 2)
		if math.Abs(tail+mirror-1) > 1e-12 {
			t.Fatalf("tail+mirrored tail != 1 at %v: %v", x, tail+mirror)
		}
	}
}

func TestNormalTailPaperMagnitudes(t *testing.T) {
	// The paper reports P(stronger pattern exists) = 4e-7 for the 24-KByte
	// search; that corresponds to z ≈ 4.9. Sanity-check our tail there.
	got := NormalTail(4.93, 0, 1)
	if got < 2e-7 || got > 6e-7 {
		t.Fatalf("tail at z=4.93 is %v, want ~4e-7", got)
	}
}

func TestDegenerateSigma(t *testing.T) {
	if NormalTail(1, 2, 0) != 1 || NormalTail(3, 2, 0) != 0 {
		t.Fatal("zero-sigma tail wrong")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	centers, counts, err := Histogram(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 5 || len(counts) != 5 {
		t.Fatal("wrong bin count")
	}
	total := 0
	for _, c := range counts {
		total += c
		if c != 2 {
			t.Fatalf("uneven bins: %v", counts)
		}
	}
	if total != len(xs) {
		t.Fatal("histogram lost samples")
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	if _, _, err := Histogram(nil, 4); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, _, err := Histogram([]float64{1}, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	// Constant sample must not divide by zero.
	_, counts, err := Histogram([]float64{2, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 3 {
		t.Fatal("constant histogram lost samples")
	}
}

func TestDAgostinoPearsonAcceptsNormal(t *testing.T) {
	accepted := 0
	for seed := uint64(0); seed < 10; seed++ {
		r, err := DAgostinoPearson(normalSample(2000, 50, 5, seed))
		if err != nil {
			t.Fatal(err)
		}
		if r.IsNormal(0.05) {
			accepted++
		}
	}
	// At alpha=0.05 we expect ~9.5/10 acceptances; allow 8+.
	if accepted < 8 {
		t.Fatalf("normal samples accepted only %d/10 times", accepted)
	}
}

func TestDAgostinoPearsonRejectsUniform(t *testing.T) {
	rng := xrand.New(3)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	r, err := DAgostinoPearson(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r.IsNormal(0.05) {
		t.Fatalf("uniform sample passed normality (p=%v)", r.PValue)
	}
}

func TestDAgostinoPearsonRejectsExponential(t *testing.T) {
	rng := xrand.New(4)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = -math.Log(1 - rng.Float64())
	}
	r, err := DAgostinoPearson(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r.IsNormal(0.05) {
		t.Fatalf("exponential sample passed normality (p=%v)", r.PValue)
	}
}

func TestDAgostinoPearsonRequiresSamples(t *testing.T) {
	if _, err := DAgostinoPearson(make([]float64, 10)); err == nil {
		t.Fatal("small sample accepted")
	}
}
