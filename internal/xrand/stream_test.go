package xrand

import (
	"math"
	"testing"
)

// streamOf builds a stream as the evaluation does: keyed off one draw of a
// sequential generator (StreamFrom), then derived by each sub-key.
func streamOf(seed uint64, subs ...uint64) Stream {
	s := StreamFrom(New(seed))
	for _, sub := range subs {
		s = s.Derive(sub)
	}
	return s
}

// TestDetV2StreamCounterIsPure: At is a pure function — any access order,
// repeated access and a freshly re-derived stream all agree.
func TestDetV2StreamCounterIsPure(t *testing.T) {
	s := streamOf(2020, 3, 17)
	forward := make([]uint64, 64)
	for i := range forward {
		forward[i] = s.At(uint64(i))
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := s.At(uint64(i)); got != forward[i] {
			t.Fatalf("At(%d) reverse = %#x, forward %#x", i, got, forward[i])
		}
	}
	again := streamOf(2020, 3, 17)
	for i := range forward {
		if got := again.At(uint64(i)); got != forward[i] {
			t.Fatalf("re-derived At(%d) = %#x, want %#x", i, got, forward[i])
		}
	}
}

// TestDetV2StreamSequentialMatchesIndexed: the sequential API is exactly a
// counter walk over At.
func TestDetV2StreamSequentialMatchesIndexed(t *testing.T) {
	s := streamOf(7)
	seq := s // copy: sequential draws advance only the copy's counter
	for i := 0; i < 32; i++ {
		if got, want := seq.Uint64(), s.At(uint64(i)); got != want {
			t.Fatalf("draw %d: sequential %#x, indexed %#x", i, got, want)
		}
	}
	// Norm consumes two counter positions, like its indexed twin.
	n := streamOf(9)
	seqN := n
	if got, want := seqN.Norm(1, 2), n.NormAt(0, 1, 2); got != want {
		t.Fatalf("Norm = %v, NormAt(0) = %v", got, want)
	}
	if got, want := seqN.Uint64(), n.At(2); got != want {
		t.Fatalf("post-Norm draw = %#x, want At(2) = %#x", got, want)
	}
}

// TestDetV2StreamKeyIndependence: disjoint (run, cell) sub-keys give
// decorrelated draws — no shared values in a prefix, and pairwise bit
// agreement near 50%.
func TestDetV2StreamKeyIndependence(t *testing.T) {
	const runs, cells, draws = 4, 64, 8
	seen := make(map[uint64][2]uint64)
	var bitAgree, bitTotal int
	root := streamOf(1)
	var prev *Stream
	for run := uint64(0); run < runs; run++ {
		for cell := uint64(0); cell < cells; cell++ {
			s := root.Derive(run).Derive(cell)
			for i := uint64(0); i < draws; i++ {
				v := s.At(i)
				if where, dup := seen[v]; dup {
					t.Fatalf("draw %#x repeats across keys %v and (%d,%d)",
						v, where, run, cell)
				}
				seen[v] = [2]uint64{run, cell}
			}
			if prev != nil {
				x := prev.At(0) ^ s.At(0)
				bitTotal += 64
				for ; x != 0; x &= x - 1 {
					bitAgree++ // counting differing bits via popcount
				}
			}
			cp := s
			prev = &cp
		}
	}
	frac := float64(bitAgree) / float64(bitTotal)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("adjacent-key bit difference fraction %.3f, want ~0.5", frac)
	}
}

// TestDetV2StreamUniformity: sequential Float64 draws have the mean and
// variance of U[0,1) and Norm has the requested moments, loosely.
func TestDetV2StreamUniformity(t *testing.T) {
	s := streamOf(42)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v", mean)
	}
	if v := sumSq/n - mean*mean; math.Abs(v-1.0/12) > 0.005 {
		t.Fatalf("uniform variance = %v", v)
	}

	g := streamOf(43)
	sum, sumSq = 0, 0
	for i := 0; i < n; i++ {
		v := g.Norm(3, 2)
		sum += v
		sumSq += v * v
	}
	mean = sum / n
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if sd := math.Sqrt(sumSq/n - mean*mean); math.Abs(sd-2) > 0.05 {
		t.Fatalf("normal sd = %v", sd)
	}
}

// TestDetV2StreamStateRoundTrip: State/Restore resume the exact sequential
// walk, and Derive does not disturb the parent.
func TestDetV2StreamStateRoundTrip(t *testing.T) {
	s := streamOf(99)
	for i := 0; i < 5; i++ {
		s.Uint64()
	}
	st := s.State()
	want := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}

	var r Stream
	r.Restore(st)
	_ = r.Derive(123) // pure: must not advance or re-key r
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("restored draw %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestDetV2StreamFromAdvancesRandByOne: StreamFrom consumes exactly one
// parent draw — the property that keeps v2 runs pinned to the existing
// split-per-run plumbing.
func TestDetV2StreamFromAdvancesRandByOne(t *testing.T) {
	a, b := New(555), New(555)
	s := StreamFrom(a)
	key := b.Uint64()
	if a.State() != b.State() {
		t.Fatal("StreamFrom advanced the parent by more than one draw")
	}
	if want := (Stream{key: mix64(key + streamGamma)}); s.At(0) != want.At(0) {
		t.Fatal("StreamFrom is not keyed on the drawn word")
	}
}

// TestV1StreamRegression pins the sequential Rand byte-for-byte: the v2
// work must not perturb the v1 generator, whose exact stream is part of the
// v1 determinism contract (checkpoints, differential suites, recorded
// experiments). Golden values were captured before the Stream refactor.
func TestV1StreamRegression(t *testing.T) {
	r := New(2020)
	golden := []uint64{
		0x2334c896b4cf8e03,
		0x47fe724559250b1e,
		0xd307788674632026,
		0x0a4ae4326790208b,
		0x8dbefb73ee7fe711,
		0x7567582265f7c78c,
	}
	for i, w := range golden {
		if got := r.Uint64(); got != w {
			t.Fatalf("Uint64 #%d = %#016x, want %#016x", i, got, w)
		}
	}

	r2 := New(7)
	if got := r2.Float64(); got != 0.7005764821796896 {
		t.Fatalf("Float64 #0 = %v", got)
	}
	if got := r2.Float64(); got != 0.2787512294737843 {
		t.Fatalf("Float64 #1 = %v", got)
	}
	if got := r2.Norm(0, 1); got != 1.8997685786889567 {
		t.Fatalf("Norm = %v", got)
	}

	r3 := New(7)
	child := r3.Split()
	if got := child.Uint64(); got != 0x214c58958ca2a8a5 {
		t.Fatalf("Split child draw = %#016x", got)
	}

	r4 := New(123)
	wantPerm := []int{4, 3, 7, 2, 0, 5, 6, 1}
	// A Fisher-Yates shuffle of 0..7 pins Intn's draws.
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := len(perm) - 1; i > 0; i-- {
		j := r4.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		if p != wantPerm[i] {
			t.Fatalf("shuffle = %v, want %v", perm, wantPerm)
		}
	}
	if got := r4.Intn(1000); got != 5 {
		t.Fatalf("Intn = %d", got)
	}
	if got := r4.IntRange(5, 9); got != 8 {
		t.Fatalf("IntRange = %d", got)
	}
}
