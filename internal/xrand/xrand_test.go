package xrand

import (
	"math"
	"runtime"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split()
	c2 := root.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("zero seed produced all-zero state")
	}
	_ = r.Uint64()
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("IntRange(3,6) = %d out of range", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 6; v++ {
		if !seen[v] {
			t.Errorf("IntRange(3,6) never produced %d", v)
		}
	}
	if got := r.IntRange(9, 9); got != 9 {
		t.Fatalf("IntRange(9,9) = %d, want 9", got)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("normal sigma %v, want ~3", math.Sqrt(variance))
	}
}

func TestLogNormPositive(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		if v := r.LogNorm(0, 1); v <= 0 {
			t.Fatalf("LogNorm produced non-positive %v", v)
		}
	}
}

func TestLogNormMedian(t *testing.T) {
	r := New(23)
	const n = 50001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNorm(2, 0.5)
	}
	// Median of exp(N(2, .5)) is exp(2). Count how many fall below it.
	below := 0
	for _, v := range vals {
		if v < math.Exp(2) {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("fraction below median %v, want ~0.5", frac)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %v", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func TestStateRestoreContinuesStream(t *testing.T) {
	r := New(2020)
	for i := 0; i < 17; i++ {
		r.Uint64() // advance to an arbitrary mid-stream position
	}
	st := r.State()
	want := make([]uint64, 32)
	for i := range want {
		want[i] = r.Uint64()
	}

	fresh, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := fresh.Uint64(); got != w {
			t.Fatalf("value %d after FromState: %#x != %#x", i, got, w)
		}
	}

	other := New(1)
	if err := other.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := other.Uint64(); got != w {
			t.Fatalf("value %d after Restore: %#x != %#x", i, got, w)
		}
	}
}

func TestRestoreRejectsZeroState(t *testing.T) {
	r := New(1)
	if err := r.Restore([4]uint64{}); err == nil {
		t.Fatal("all-zero state accepted")
	}
	if _, err := FromState([4]uint64{}); err == nil {
		t.Fatal("FromState accepted the all-zero state")
	}
	// A failed Restore must leave the generator usable.
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("generator corrupted by rejected Restore")
	}
}

// TestFlipBoolsMatchesBool pins the bulk draw to n Bool(p) calls: the same
// bits flip and the generator ends in the same state, including at the
// threshold's edges (p just past one half, p past one, NaN, negative) and
// on calls long enough to split across goroutines, with tails that end
// inside a word. GOMAXPROCS is raised so the split runs three parts even
// on a machine with fewer CPUs.
func TestFlipBoolsMatchesBool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ps := []float64{0, 1.5 / 196608, 1.0 / 3, 0.5, math.Nextafter(0.5, 1), 1, 2,
		math.NaN(), -1}
	for _, n := range []int{1, 63, 64, 65, 196608} {
		for _, p := range ps {
			checkFlipBools(t, uint64(n)*1000003+math.Float64bits(p), n, p)
		}
	}
	for _, n := range []int{2*flipSplitBits - 1, 2 * flipSplitBits,
		2*flipSplitBits + 1, 196608 + 37, 4*flipSplitBits + 63} {
		for _, p := range []float64{0, math.NaN(), 1, 1.5 / float64(n), 0.5} {
			checkFlipBools(t, uint64(n)*1000003+math.Float64bits(p), n, p)
		}
	}
}

// checkFlipBools runs FlipBools(n, p) and n Bool(p) calls from the same seed
// over the same random words and fails unless the flips, the words and the
// final states agree.
func checkFlipBools(t *testing.T, seed uint64, n int, p float64) {
	t.Helper()
	bulk, ref := New(seed), New(seed)
	words := make([]uint64, (n+63)/64+1)
	for i := range words {
		words[i] = bulk.Uint64() // flips must XOR into existing bits
	}
	want := append([]uint64(nil), words...)
	for range words {
		ref.Uint64()
	}
	wantFlips := 0
	for i := 0; i < n; i++ {
		if ref.Bool(p) {
			want[i/64] ^= 1 << (i % 64)
			wantFlips++
		}
	}
	if got := bulk.FlipBools(words, n, p); got != wantFlips {
		t.Fatalf("n=%d p=%v: %d flips, Bool gave %d", n, p, got, wantFlips)
	}
	for i := range words {
		if words[i] != want[i] {
			t.Fatalf("n=%d p=%v: word %d = %#x, Bool gave %#x",
				n, p, i, words[i], want[i])
		}
	}
	if bulk.State() != ref.State() {
		t.Fatalf("n=%d p=%v: final state differs from n Bool calls", n, p)
	}
}

// FuzzFlipBools checks the bulk draw against a Bool loop from arbitrary
// start states, lengths up to past the split threshold and any p.
func FuzzFlipBools(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint(196608), 1.5/196608)
	f.Add(uint64(5), uint64(0), uint64(0), uint64(0), uint(65), 0.5)
	f.Add(uint64(7), uint64(8), uint64(9), uint64(10), uint(2*flipSplitBits+1), 1.0)
	f.Add(uint64(11), uint64(12), uint64(13), uint64(14), uint(1), math.NaN())
	f.Fuzz(func(t *testing.T, s0, s1, s2, s3 uint64, n uint, p float64) {
		st := [4]uint64{s0, s1, s2, s3}
		if st == ([4]uint64{}) {
			return
		}
		n %= 4*flipSplitBits + 128
		bulk, _ := FromState(st)
		ref, _ := FromState(st)
		words := make([]uint64, (n+63)/64)
		want := make([]uint64, len(words))
		wantFlips := 0
		for i := 0; i < int(n); i++ {
			if ref.Bool(p) {
				want[i/64] ^= 1 << (i % 64)
				wantFlips++
			}
		}
		if got := bulk.FlipBools(words, int(n), p); got != wantFlips {
			t.Fatalf("n=%d p=%v: %d flips, Bool gave %d", n, p, got, wantFlips)
		}
		for i := range words {
			if words[i] != want[i] {
				t.Fatalf("n=%d p=%v: word %d = %#x, Bool gave %#x",
					n, p, i, words[i], want[i])
			}
		}
		if bulk.State() != ref.State() {
			t.Fatalf("n=%d p=%v: final state differs from n Bool calls", n, p)
		}
	})
}

// TestJumpMatchesSequential pins Jump(n) to n Uint64 calls on both sides
// of the point where it switches from stepping to the polynomial.
func TestJumpMatchesSequential(t *testing.T) {
	for _, n := range []uint64{0, 1, 63, 64, 255, 256, 257, 4095, 4096, 4097,
		1<<20 + 3} {
		for _, seed := range []uint64{1, 2020} {
			jumped, seq := New(seed+n), New(seed+n)
			jumped.Jump(n)
			for i := uint64(0); i < n; i++ {
				seq.Uint64()
			}
			if jumped.State() != seq.State() {
				t.Fatalf("seed %d: Jump(%d) state differs from %d draws", seed, n, n)
			}
			if a, b := jumped.Uint64(), seq.Uint64(); a != b {
				t.Fatalf("seed %d: draw after Jump(%d) = %#x, want %#x", seed, n, a, b)
			}
		}
	}
}

// TestFlipBoolsThresholdEdges checks the integer threshold against
// Float64() < p on the draws straddling it.
func TestFlipBoolsThresholdEdges(t *testing.T) {
	for _, p := range []float64{1.0 / 3, 0.5, math.Nextafter(0.5, 1),
		math.Nextafter(0.5, 0), 0x1p-53, math.SmallestNonzeroFloat64} {
		thr := uint64(math.Ceil(p * (1 << 53)))
		for _, x := range []uint64{thr - 1, thr, thr + 1} {
			if x >= 1<<53 {
				continue
			}
			float := float64(x)/(1<<53) < p
			if integer := x < thr; float != integer {
				t.Fatalf("p=%v x=%d: Float64()<p is %v, x<thr is %v", p, x, float, integer)
			}
		}
	}
}

func TestFlipBoolsPanicsPastEnd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FlipBools past the end of words did not panic")
		}
	}()
	New(1).FlipBools(make([]uint64, 1), 65, 0.5)
}

func BenchmarkFlipBools196608(b *testing.B) {
	r := New(1)
	words := make([]uint64, 196608/64)
	for i := 0; i < b.N; i++ {
		r.FlipBools(words, 196608, 0.5)
	}
}

// BenchmarkFlipBools196608Breed draws at the rate breeding uses for a 24 KB
// chromosome, 1.5 expected flips per child.
func BenchmarkFlipBools196608Breed(b *testing.B) {
	r := New(1)
	words := make([]uint64, 196608/64)
	for i := 0; i < b.N; i++ {
		r.FlipBools(words, 196608, 1.5/196608)
	}
}

func BenchmarkBool196608(b *testing.B) {
	r := New(1)
	words := make([]uint64, 196608/64)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 196608; j++ {
			if r.Bool(0.5) {
				words[j/64] ^= 1 << (j % 64)
			}
		}
	}
}

func BenchmarkJump98304(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Jump(98304)
	}
}
