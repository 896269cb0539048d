// Package xrand provides a deterministic, splittable pseudo-random number
// generator used throughout the simulator. Every experiment in this
// repository is reproducible from a single root seed: independent subsystems
// (device defect maps, per-run VRT noise, GA operators) each receive a
// generator split off the root, so adding randomness consumption in one
// subsystem never perturbs another.
//
// The core generator is xoshiro256**, seeded through SplitMix64 as its
// authors recommend. Only integer, float and a few distribution helpers are
// exposed; the simulator does not use math/rand so that the stream is fully
// under our control and stable across Go releases.
package xrand

import (
	"errors"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Rand is a xoshiro256** generator. The zero value is invalid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// State captures the generator's four state words. Together with Restore it
// lets a checkpointed search continue the exact deterministic stream: a
// generator restored from a State produces the same values the original
// would have produced next.
func (r *Rand) State() [4]uint64 { return r.s }

// Restore overwrites the generator state with a previously captured State.
// The all-zero state is invalid for xoshiro (the stream would be constant
// zero) and is rejected.
func (r *Rand) Restore(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("xrand: all-zero state")
	}
	r.s = s
	return nil
}

// FromState builds a generator positioned at a previously captured State.
func FromState(s [4]uint64) (*Rand, error) {
	r := &Rand{}
	if err := r.Restore(s); err != nil {
		return nil, err
	}
	return r, nil
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent generator from this one. The parent stream
// advances by one value; the child is seeded from that value, so repeated
// Splits yield distinct, decorrelated children.
func (r *Rand) Split() *Rand { return New(r.Uint64()) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// FlipBools makes n Bool(p) draws and flips bit i of words (bit i%64 of
// words[i/64]) for every draw i that comes up true, returning how many did.
// The draws, the flips and the generator's final state are exactly those of
// n Bool(p) calls: Float64() < p compares the 53-bit integer u>>11 scaled by
// 2^-53 against p, which is u>>11 < ceil(p·2^53) — exact, because scaling p
// by a power of two loses nothing. A call of at least 2·flipSplitBits draws
// is cut at word boundaries into up to GOMAXPROCS parts, each after the
// first starting from the state Jump reaches at its first draw and running
// on its own goroutine: draw i's outcome depends only on the state at draw
// i, so the parts make the same draws. It panics if words holds fewer than
// n bits.
func (r *Rand) FlipBools(words []uint64, n int, p float64) int {
	if n <= 0 {
		return 0
	}
	if n > 64*len(words) {
		panic("xrand: FlipBools past the end of words")
	}
	var thr uint64 // draws with u>>11 < thr come up true
	switch {
	case !(p > 0): // NaN too: Float64() < NaN never holds
	case p >= 1:
		// Every draw comes up true; thr<<11 would not fit a word.
		for i := 0; i < n/64; i++ {
			words[i] = ^words[i]
		}
		if t := n % 64; t != 0 {
			words[n/64] ^= 1<<uint(t) - 1
		}
		r.Jump(uint64(n))
		return n
	default:
		thr = uint64(math.Ceil(p * (1 << 53)))
	}
	parts := min(runtime.GOMAXPROCS(0), n/flipSplitBits)
	if parts < 2 {
		return flipRun(&r.s, words, n, thr<<11)
	}
	chunk := (n/parts + 63) &^ 63
	poly := jumpPoly(uint64(chunk))
	var (
		wg    sync.WaitGroup
		flips atomic.Int64
		end   [4]uint64 // the state after the last part's draws
	)
	s := r.s
	for lo := chunk; lo < n; lo += chunk {
		s = applyPoly(s, poly)
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(s [4]uint64, lo, hi int) {
			defer wg.Done()
			flips.Add(int64(flipRun(&s, words[lo/64:], hi-lo, thr<<11)))
			if hi == n {
				end = s
			}
		}(s, lo, hi)
	}
	first := flipRun(&r.s, words, chunk, thr<<11)
	wg.Wait()
	r.s = end
	return first + int(flips.Load())
}

// flipSplitBits is the least number of draws a FlipBools part takes: below
// it the goroutine and the jump cost more than the draws they move off the
// calling goroutine. A 24 KB chromosome (196,608 bits) splits; a 64-bit one
// and every integer genome never do.
const flipSplitBits = 1 << 16

// flipRun makes n draws from the state *st, XORing the mask of those with
// u < thr11 (u>>11 < thr, for thr11 = thr<<11) into words, and leaves *st at
// the state after them.
func flipRun(st *[4]uint64, words []uint64, n int, thr11 uint64) int {
	s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
	flips := 0
	for w := 0; n > 0; w++ {
		k := min(n, 64)
		var m uint64
		m, s0, s1, s2, s3 = drawMask(s0, s1, s2, s3, thr11, k)
		// Draw j sits at bit k-1-j; a short final word's draws end at the
		// top after the reversal.
		m = bits.Reverse64(m) >> uint(64-k)
		words[w] ^= m
		flips += bits.OnesCount64(m)
		n -= k
	}
	*st = [4]uint64{s0, s1, s2, s3}
	return flips
}

// drawMask makes k ≤ 64 draws from the state s0..s3 and returns the mask of
// those with u < thr11, the last draw at bit 0, and the state after them.
// The borrow of u - thr11 is the draw's outcome, and m+m+borrow shifts it
// in: a subtract and an add-with-carry, with no variable shift. It is its
// own function so the loop keeps every value in a register.
func drawMask(s0, s1, s2, s3, thr11 uint64, k int) (m, t0, t1, t2, t3 uint64) {
	for ; k > 0; k-- {
		u := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		_, b := bits.Sub64(u, thr11, 0)
		m, _ = bits.Add64(m, m, b)
	}
	return m, s0, s1, s2, s3
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the Box–Muller transform.
func (r *Rand) Norm(mean, sigma float64) float64 {
	// Avoid log(0) by excluding 0 from u1.
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + sigma*z
}

// LogNorm returns exp(N(mu, sigma)): a log-normally distributed value. The
// parameters are those of the underlying normal, as is conventional.
func (r *Rand) LogNorm(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
