package core

import (
	"testing"

	"dstress/internal/bitvec"
	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

func TestRowOffsetsDecoding(t *testing.T) {
	v := bitvec.New(64)
	v.Set(0, true)  // offset -32
	v.Set(31, true) // offset -1
	v.Set(32, true) // offset +1
	v.Set(63, true) // offset +32
	got := rowOffsets(ga.NewBitGenome(v))
	want := []int{-32, -1, 1, 32}
	if len(got) != len(want) {
		t.Fatalf("offsets %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("offsets %v, want %v", got, want)
		}
	}
	// Zero offset never appears.
	all := bitvec.New(64)
	for i := 0; i < 64; i++ {
		all.Set(i, true)
	}
	for _, off := range rowOffsets(ga.NewBitGenome(all)) {
		if off == 0 {
			t.Fatal("offset 0 decoded")
		}
	}
}

func TestCoeffOffsetsSpanPlusMinus8(t *testing.T) {
	if len(coeffOffsets) != 16 {
		t.Fatalf("%d coefficient offsets", len(coeffOffsets))
	}
	seen := map[int]bool{}
	for _, off := range coeffOffsets {
		if off == 0 || off < -8 || off > 8 {
			t.Fatalf("offset %d out of spec", off)
		}
		seen[off] = true
	}
	if len(seen) != 16 {
		t.Fatal("duplicate offsets")
	}
}

func TestData64SpecRoundTrip(t *testing.T) {
	f := testFramework(t, 80)
	spec := Data64Spec{}
	g := spec.NewPopulation(f, 1, f.RNG.Split())[0]
	var rec virusdb.Record
	spec.Encode(g, &rec)
	back, err := spec.Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if back.SimilarityTo(g) != 1 {
		t.Fatal("data64 encode/decode round trip failed")
	}
	if _, err := spec.Decode(virusdb.Record{Bits: "101"}); err == nil {
		t.Fatal("wrong-length record accepted")
	}
	if _, err := spec.Decode(virusdb.Record{Bits: "10x"}); err == nil {
		t.Fatal("bad record accepted")
	}
}

func TestBlockSpecDeployErrors(t *testing.T) {
	f := testFramework(t, 81)
	spec := NewData24KSpec()
	// Deploy before Prepare.
	g := ga.NewBitGenome(bitvec.New(spec.BanksWide * spec.RowsDeep *
		f.Srv.MCU(f.MCU).Device().Geometry().WordsPerRow() * 64))
	if err := spec.Deploy(f, g); err == nil {
		t.Fatal("deploy before prepare accepted")
	}
	if err := spec.Prepare(f); err != nil {
		t.Fatal(err)
	}
	// Wrong genome length.
	if err := spec.Deploy(f, ga.NewBitGenome(bitvec.New(64))); err == nil {
		t.Fatal("wrong-length genome accepted")
	}
	// Wrong genome type.
	ig, err := ga.NewIntGenome([]int{1}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Deploy(f, ig); err == nil {
		t.Fatal("int genome accepted by block spec")
	}
}

// TestBlockSpecVictimsWinConflicts: when a victim row is also a neighbour
// of another victim, the victim image wins.
func TestBlockSpecVictimsWinConflicts(t *testing.T) {
	f := testFramework(t, 82)
	spec := NewData24KSpec()
	if err := spec.Prepare(f); err != nil {
		t.Fatal(err)
	}
	dev := f.Srv.MCU(f.MCU).Device()
	wordsPerRow := dev.Geometry().WordsPerRow()
	rowBits := wordsPerRow * 64
	// Victim rows (depth 1) get 0x3333..., neighbours 0xCCCC...
	v := bitvec.New(3 * rowBits)
	for i := 0; i < rowBits; i++ {
		if (i%4)/2 == 1 {
			v.Set(i, true) // bits 2,3 set: 0xCC word -> neighbours
			v.Set(2*rowBits+i, true)
		} else {
			v.Set(rowBits+i, true) // bits 0,1 set: 0x33 word -> victim row
		}
	}
	if err := spec.Deploy(f, ga.NewBitGenome(v)); err != nil {
		t.Fatal(err)
	}
	// Every weak row must hold the victim word, even if adjacent to
	// another weak row.
	for _, k := range dev.WeakRows() {
		img := dev.RowImage(k)
		if img == nil {
			t.Fatalf("victim row %+v unwritten", k)
		}
		if img[0] != 0x3333333333333333 {
			t.Fatalf("victim row %+v holds %x", k, img[0])
		}
	}
}

func TestAccessSpecsRejectWrongGenomes(t *testing.T) {
	f := testFramework(t, 83)
	rows := NewAccessRowsSpec(0x3333333333333333)
	if err := rows.Prepare(f); err != nil {
		t.Fatal(err)
	}
	ig, err := ga.NewIntGenome(make([]int, 32), 0, CoeffBound)
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Deploy(f, ig); err == nil {
		t.Fatal("access-rows accepted an int genome")
	}
	coeffs := NewAccessCoeffsSpec(0x3333333333333333)
	if err := coeffs.Prepare(f); err != nil {
		t.Fatal(err)
	}
	if err := coeffs.Deploy(f, ga.NewBitGenome(bitvec.New(64))); err == nil {
		t.Fatal("access-coeffs accepted a bit genome")
	}
}

func TestAccessSpecEncodeDecode(t *testing.T) {
	f := testFramework(t, 84)
	rows := NewAccessRowsSpec(1)
	g := rows.NewPopulation(f, 1, f.RNG.Split())[0]
	var rec virusdb.Record
	rows.Encode(g, &rec)
	back, err := rows.Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if back.SimilarityTo(g) != 1 {
		t.Fatal("access-rows round trip failed")
	}

	coeffs := NewAccessCoeffsSpec(1)
	cg := coeffs.NewPopulation(f, 1, f.RNG.Split())[0]
	var crec virusdb.Record
	coeffs.Encode(cg, &crec)
	cback, err := coeffs.Decode(crec)
	if err != nil {
		t.Fatal(err)
	}
	if cback.SimilarityTo(cg) != 1 {
		t.Fatal("access-coeffs round trip failed")
	}
}

// TestVictimKeysMatchTargets: Prepare targets exactly the device's rank-0
// weak rows, in order, and resolves each target's window so that slot
// targetWindow+off holds the row of chunk target+off wherever that chunk is
// inside the rank.
func TestVictimKeysMatchTargets(t *testing.T) {
	f := testFramework(t, 85)
	spec := NewAccessRowsSpec(0x3333333333333333)
	if err := spec.Prepare(f); err != nil {
		t.Fatal(err)
	}
	ctl := f.Srv.MCU(f.MCU)
	geom := ctl.Device().Geometry()
	var victims []dram.RowKey
	for _, k := range ctl.Device().WeakRows() {
		if k.Rank == 0 {
			victims = append(victims, k)
		}
	}
	targets := spec.targets
	if len(victims) == 0 || len(targets) != len(victims) {
		t.Fatalf("%d targets for %d rank-0 weak rows", len(targets), len(victims))
	}
	nchunks := geom.Banks * geom.Rows
	for i, c := range targets {
		if dram.Key(geom.ChunkLoc(0, c)) != victims[i] {
			t.Fatalf("target %d is chunk %d, not weak row %+v", i, c, victims[i])
		}
		for off := -targetWindow; off <= targetWindow; off++ {
			if c+off < 0 || c+off >= nchunks {
				continue
			}
			if got, want := spec.window[i*windowLen+targetWindow+off], ctl.RowAt(0, c+off); got != want {
				t.Fatalf("target %d offset %d: window row %+v, want %+v", i, off, got, want)
			}
		}
	}
}

// BenchmarkData64EvaluateBatch measures one chunk evaluation of a data64
// generation (the fleet_data64 benchmark's shape: 64 rows per bank,
// population 64, ten runs per genome, determinism v2). Every genome's
// deploy is a uniform fill of its 64-bit word over the whole DIMM.
func BenchmarkData64EvaluateBatch(b *testing.B) {
	const seed = 1
	srv, err := server.New(server.DefaultConfig(64, seed))
	if err != nil {
		b.Fatal(err)
	}
	_, chunk, err := NewWorkerEvaluators(srv, Data64Spec{}, MaxCE, Relaxed(55),
		server.MCU2, 10, dram.DeterminismV2)
	if err != nil {
		b.Fatal(err)
	}
	pop := ga.RandomBitPopulation(64, 64, xrand.New(seed))
	tasks := make([]farm.Assigned, len(pop))
	out := make([]float64, len(pop))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := xrand.New(seed)
		for j, g := range pop {
			tasks[j] = farm.Assigned{Idx: j, G: g, RNG: root.Split()}
		}
		if err := chunk(tasks, out); err != nil {
			b.Fatal(err)
		}
	}
}
