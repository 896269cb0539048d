// Package stats provides the statistics the paper's GA-efficiency analysis
// needs (Section V.5 / Fig 13): fitting a Gaussian to the error-count
// distribution of randomized patterns, testing normality with the
// D'Agostino–Pearson omnibus test, and computing the normal tail
// probability that a pattern stronger than the GA's discovery exists.
package stats

import (
	"fmt"
	"math"
)

// Summary holds the sample moments of a data set.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1) sample variance
	StdDev   float64
	Min, Max float64
	Skewness float64 // g1, biased moment form
	Kurtosis float64 // b2 = m4/m2² (normal ≈ 3)
}

// Summarize computes the moments of xs. It requires at least two values.
func Summarize(xs []float64) (Summary, error) {
	n := len(xs)
	if n < 2 {
		return Summary{}, fmt.Errorf("stats: need >=2 samples, got %d", n)
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(n)
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - s.Mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= float64(n)
	m3 /= float64(n)
	m4 /= float64(n)
	s.Variance = m2 * float64(n) / float64(n-1)
	s.StdDev = math.Sqrt(s.Variance)
	if m2 > 0 {
		s.Skewness = m3 / math.Pow(m2, 1.5)
		s.Kurtosis = m4 / (m2 * m2)
	} else {
		s.Kurtosis = 3 // degenerate constant sample: treat as mesokurtic
	}
	return s, nil
}

// NormalTail returns P(X > x) for X ~ N(mean, sigma): the probability mass
// above x. Applied to a fitted random-pattern distribution with x the GA's
// best fitness, this is the paper's "probability that a stronger pattern
// exists"; 1 minus it is the probability DStress found the worst case.
func NormalTail(x, mean, sigma float64) float64 {
	if sigma <= 0 {
		if x >= mean {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc((x-mean)/(sigma*math.Sqrt2))
}

// Histogram bins xs into `bins` equal-width buckets over [min, max] and
// returns the bucket centers and counts — the PDF data of Fig 13.
func Histogram(xs []float64, bins int) (centers []float64, counts []int, err error) {
	if bins <= 0 {
		return nil, nil, fmt.Errorf("stats: bins = %d", bins)
	}
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("stats: empty sample")
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(bins)
	centers = make([]float64, bins)
	counts = make([]int, bins)
	for i := range centers {
		centers[i] = lo + (float64(i)+0.5)*width
	}
	for _, x := range xs {
		b := int((x - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return centers, counts, nil
}

// NormalityResult reports the D'Agostino–Pearson omnibus test.
type NormalityResult struct {
	ZSkew    float64 // skewness z-statistic (D'Agostino 1970)
	ZKurt    float64 // kurtosis z-statistic (Anscombe & Glynn 1983)
	KSquared float64 // omnibus statistic, ~ chi²(2) under normality
	PValue   float64
}

// IsNormal reports whether normality is NOT rejected at the given
// significance level (e.g. 0.05).
func (r NormalityResult) IsNormal(alpha float64) bool { return r.PValue > alpha }

// DAgostinoPearson runs the K² omnibus normality test. It requires at
// least 20 samples for the asymptotic approximations to hold.
func DAgostinoPearson(xs []float64) (NormalityResult, error) {
	if len(xs) < 20 {
		return NormalityResult{}, fmt.Errorf("stats: need >=20 samples, got %d",
			len(xs))
	}
	s, err := Summarize(xs)
	if err != nil {
		return NormalityResult{}, err
	}
	n := float64(s.N)

	// Skewness transform (D'Agostino 1970).
	y := s.Skewness * math.Sqrt((n+1)*(n+3)/(6*(n-2)))
	beta2 := 3 * (n*n + 27*n - 70) * (n + 1) * (n + 3) /
		((n - 2) * (n + 5) * (n + 7) * (n + 9))
	w2 := -1 + math.Sqrt(2*(beta2-1))
	delta := 1 / math.Sqrt(math.Log(math.Sqrt(w2)))
	alpha := math.Sqrt(2 / (w2 - 1))
	zSkew := delta * math.Log(y/alpha+math.Sqrt((y/alpha)*(y/alpha)+1))

	// Kurtosis transform (Anscombe & Glynn 1983).
	eb2 := 3 * (n - 1) / (n + 1)
	vb2 := 24 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1) * (n + 3) * (n + 5))
	x := (s.Kurtosis - eb2) / math.Sqrt(vb2)
	sqrtB1 := 6 * (n*n - 5*n + 2) / ((n + 7) * (n + 9)) *
		math.Sqrt(6*(n+3)*(n+5)/(n*(n-2)*(n-3)))
	a := 6 + 8/sqrtB1*(2/sqrtB1+math.Sqrt(1+4/(sqrtB1*sqrtB1)))
	num := 1 - 2/a
	den := 1 + x*math.Sqrt(2/(a-4))
	var zKurt float64
	if den <= 0 {
		// Extremely light-tailed sample: the transform degenerates; use a
		// large statistic so normality is rejected.
		zKurt = -10
	} else {
		zKurt = ((1 - 2/(9*a)) - math.Cbrt(num/den)) / math.Sqrt(2/(9*a))
	}

	k2 := zSkew*zSkew + zKurt*zKurt
	return NormalityResult{
		ZSkew:    zSkew,
		ZKurt:    zKurt,
		KSquared: k2,
		PValue:   math.Exp(-k2 / 2), // chi²(2) survival function
	}, nil
}
