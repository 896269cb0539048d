package virus

import (
	"testing"

	"dstress/internal/dram"
	"dstress/internal/memctl"
	"dstress/internal/vpl"
)

func testRunner(t *testing.T, chunks int) *Runner {
	t.Helper()
	dev, err := dram.NewDevice(dram.DefaultConfig(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := memctl.NewController(memctl.DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ctl, chunks, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func bits64(word uint64) []int64 {
	out := make([]int64, 64)
	for i := range out {
		out[i] = int64((word >> uint(i)) & 1)
	}
	return out
}

func TestNewRunnerValidation(t *testing.T) {
	dev, err := dram.NewDevice(dram.DefaultConfig(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := memctl.NewController(memctl.DefaultConfig(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(nil, 4, 100); err == nil {
		t.Fatal("nil controller accepted")
	}
	if _, err := NewRunner(ctl, 0, 100); err == nil {
		t.Fatal("zero chunks accepted")
	}
	if _, err := NewRunner(ctl, 1<<30, 100); err == nil {
		t.Fatal("oversized region accepted")
	}
}

func TestData64VirusFillsRegion(t *testing.T) {
	r := testRunner(t, 16)
	a, err := r.Compile(Data64Template, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Execute(a, map[string]vpl.Value{
		"PATTERN": vpl.Value{Vector: bits64(0x3333333333333333)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stopped() {
		t.Fatal("data virus hit the step budget before finishing its fill")
	}
	// Every word of the 16-chunk region must hold the pattern.
	dev := r.Ctl.Device()
	geom := dev.Geometry()
	for c := 0; c < 16; c++ {
		addr := geom.ChunkAddr(0, c)
		v, ok := dev.ReadWord(geom.Map(addr + 512*8))
		if !ok || v != 0x3333333333333333 {
			t.Fatalf("chunk %d word 512 = %x ok=%v", c, v, ok)
		}
	}
}

// TestData64MatchesNativeFill: the minicc execution path and the native
// fast-fill must produce identical row images.
func TestData64MatchesNativeFill(t *testing.T) {
	const word = 0xDEADBEEF12345678
	r := testRunner(t, 8)
	a, err := r.Compile(Data64Template, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(a, map[string]vpl.Value{
		"PATTERN": vpl.Value{Vector: bits64(word)},
	}); err != nil {
		t.Fatal(err)
	}

	native, err := dram.NewDevice(dram.DefaultConfig(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	geom := native.Geometry()
	for c := 0; c < 8; c++ {
		native.FillRow(dram.Key(geom.ChunkLoc(0, c)), word)
	}
	for c := 0; c < 8; c++ {
		k := dram.Key(geom.ChunkLoc(0, c))
		a := r.Ctl.Device().RowImage(k)
		b := native.RowImage(k)
		if a == nil || b == nil {
			t.Fatalf("chunk %d missing image", c)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("chunk %d col %d: %x vs %x", c, i, a[i], b[i])
			}
		}
	}
}

func TestAccessRowsVirusActivations(t *testing.T) {
	r := testRunner(t, 64)
	consts := map[string]int64{"NT": 2, "XMAX": 32}
	a, err := r.Compile(AccessRowsTemplate, consts)
	if err != nil {
		t.Fatal(err)
	}
	sel := make([]int64, 64)
	sel[32-8] = 1 // offset -8: same-bank predecessor row
	sel[31+8] = 1 // offset +8: same-bank successor row
	m, err := r.Execute(a, map[string]vpl.Value{
		"ROWSEL":  vpl.Value{Vector: sel},
		"TARGETS": vpl.Value{Vector: []int64{24, 25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stopped() {
		t.Log("access virus stopped by budget (expected for long sweeps)")
	}
	// Chunks 16,17 (targets-8) and 32,33 (targets+8) must have been
	// activated; the targets themselves must not (beyond cache effects).
	acts := r.Ctl.ActsPerWindow()
	geom := r.Ctl.Device().Geometry()
	for _, c := range []int{16, 17, 32, 33} {
		k := dram.Key(geom.ChunkLoc(0, c))
		if acts[k] == 0 {
			t.Fatalf("aggressor chunk %d never activated", c)
		}
	}
	k := dram.Key(geom.ChunkLoc(0, 24))
	if acts[k] != 0 {
		t.Fatalf("target chunk itself was accessed (%v acts/window)", acts[k])
	}
}

func TestAccessCoeffsVirus(t *testing.T) {
	r := testRunner(t, 32)
	consts := map[string]int64{"NT": 1, "XMAX": 64}
	a, err := r.Compile(AccessCoeffsTemplate, consts)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := make([]int64, 32)
	for i := 0; i < 16; i++ {
		coeffs[i] = 3    // a_i
		coeffs[16+i] = 5 // b_i
	}
	m, err := r.Execute(a, map[string]vpl.Value{
		"COEFFS":  vpl.Value{Vector: coeffs},
		"TARGETS": vpl.Value{Vector: []int64{16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	// The 16 neighbour chunks of chunk 16 (8..15 and 17..24) see traffic.
	reads, _ := r.Ctl.DRAMTraffic()
	if reads == 0 {
		t.Fatal("coefficient virus produced no DRAM traffic")
	}
	acts := r.Ctl.ActsPerWindow()
	geom := r.Ctl.Device().Geometry()
	if acts[dram.Key(geom.ChunkLoc(0, 8))] == 0 {
		t.Fatal("offset -8 chunk not activated")
	}
	if acts[dram.Key(geom.ChunkLoc(0, 16))] != 0 {
		t.Fatal("victim chunk accessed directly")
	}
}

func TestZeroCoefficientStaysCached(t *testing.T) {
	// a_i = 0 pins every access of a row to one element: after the cold
	// miss, everything hits in the cache — the mechanism that makes the
	// coefficient virus weaker than the row-sweep virus.
	r := testRunner(t, 32)
	consts := map[string]int64{"NT": 1, "XMAX": 256}
	a, err := r.Compile(AccessCoeffsTemplate, consts)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := make([]int64, 32) // all a_i = b_i = 0
	if _, err := r.Execute(a, map[string]vpl.Value{
		"COEFFS":  vpl.Value{Vector: coeffs},
		"TARGETS": vpl.Value{Vector: []int64{16}},
	}); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := r.Ctl.CacheStats()
	if hits < misses*10 {
		t.Fatalf("constant-element virus not cache-resident: %d hits %d misses",
			hits, misses)
	}
}

func TestFig3TemplateCompilesAndRuns(t *testing.T) {
	r := testRunner(t, 8)
	consts := map[string]int64{
		"N1": 8, "N2": 4, "DB1": 0, "UP1": 1, "DB3": 0, "UP3": 1000,
		"VAR_ITERS": 50,
	}
	a, err := r.Compile(Fig3Template, consts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Execute(a, map[string]vpl.Value{
		"ARRAY1_VEC": {Vector: []int64{1, 1, 0, 0, 1, 1, 0, 0}},
		"ARRAY2_VEC": {Vector: []int64{0, 2, 4, 6}},
		"VAR1":       {Scalar: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m.Lookup("var3")
	if !ok {
		t.Fatal("var3 missing")
	}
	// var3 accumulated temp_array values: pattern elements 0,2,4,6 are
	// 1,0,1,0 -> sum per sweep = 2, 50 sweeps -> 100.
	if v.U != 100 {
		t.Fatalf("var3 = %d, want 100", v.U)
	}
}

func TestConstsLayout(t *testing.T) {
	r := testRunner(t, 16)
	c := r.Consts(map[string]int64{"NT": 3})
	if c["NCHUNKS"] != 16 || c["MAXCHUNK"] != 15 || c["WORDS_PER_CHUNK"] != 1024 {
		t.Fatalf("layout constants wrong: %+v", c)
	}
	if c["HEAP_BASE"] != 16*8192 {
		t.Fatalf("heap base %d", c["HEAP_BASE"])
	}
	if c["NT"] != 3 {
		t.Fatal("extra constant lost")
	}
}

func TestBadValuesRejected(t *testing.T) {
	r := testRunner(t, 8)
	a, err := r.Compile(Data64Template, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(a, map[string]vpl.Value{
		"PATTERN": {Vector: []int64{1, 0}}, // wrong size
	}); err == nil {
		t.Fatal("wrong-size chromosome accepted")
	}
}
