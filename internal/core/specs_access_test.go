package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/xrand"
)

// accessDeployGolden is the digest of TestAccessDeployActsGolden's
// controller state, recorded before the controller's counters moved from
// maps to dense arrays. A change here means the access viruses disturb
// DRAM differently, which moves every access-search result.
const accessDeployGolden = "b25527509d5aef576a68224e2dabb8607c7d3454a55e883dc32051dda47f3c69"

// TestAccessDeployActsGolden deploys seeded genomes of the three
// access-driven specs on a seeded 16-row server and hashes what the
// controller hands the DRAM model — the per-row activation rates — plus
// the activation, clock and traffic counters behind them.
func TestAccessDeployActsGolden(t *testing.T) {
	const seed = 1
	f := testFramework(t, seed)
	if err := f.Apply(Relaxed(55)); err != nil {
		t.Fatal(err)
	}
	ctl := f.Srv.MCU(f.MCU)
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	specs := []Spec{
		NewAccessRowsSpec(0x3333333333333333),
		NewAccessCoeffsSpec(0x3333333333333333),
		NewRowhammerSpec(0x3333333333333333),
	}
	for _, spec := range specs {
		if err := spec.Prepare(f); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, g := range spec.NewPopulation(f, 8, xrand.New(seed)) {
			if err := spec.Deploy(f, g); err != nil {
				t.Fatal(err)
			}
			acts := ctl.ActsPerWindow()
			keys := make([]dram.RowKey, 0, len(acts))
			for k := range acts {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				a, b := keys[i], keys[j]
				if a.Rank != b.Rank {
					return a.Rank < b.Rank
				}
				if a.Bank != b.Bank {
					return a.Bank < b.Bank
				}
				return a.Row < b.Row
			})
			rows += len(keys)
			put(uint64(len(keys)))
			for _, k := range keys {
				put(uint64(k.Rank)<<40 | uint64(k.Bank)<<32 | uint64(k.Row))
				put(math.Float64bits(acts[k]))
			}
			reads, writes := ctl.DRAMTraffic()
			hits, misses, wbs := ctl.CacheStats()
			for _, v := range []uint64{ctl.Activations(), ctl.ElapsedNs(),
				reads, writes, hits, misses, wbs} {
				put(v)
			}
		}
		if rows == 0 {
			t.Fatalf("%s: no genome activated a row", spec.Name())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != accessDeployGolden {
		t.Fatalf("access deploy digest %s, want %s", got, accessDeployGolden)
	}
}

// loadReplay is replay written the plain way: every rank's loads are
// issued, the word function is called for every load, and every load
// decodes its byte address through Load.
func loadReplay(f *Framework, b *accessSpecBase, offsets []int, wordIdx func(i, x int) int) {
	ctl := f.Srv.MCU(f.MCU)
	geom := ctl.Device().Geometry()
	nchunks := geom.Banks * geom.Rows
	ctl.ResetStats()
	for rank := 0; rank < geom.Ranks; rank++ {
		for _, target := range b.targets {
			for x := 0; x < b.SweepLen; x++ {
				for i, off := range offsets {
					if c := target + off; c >= 0 && c < nchunks {
						ctl.Load(geom.ChunkAddr(rank, c) + int64(wordIdx(i, x))*8)
					}
				}
			}
		}
	}
}

// controllerState is everything a deploy leaves for the DRAM model and the
// traces: the per-row activation rates and the controller's counters.
type controllerState struct {
	acts     map[dram.RowKey]float64
	counters [7]uint64
}

func snapshotController(f *Framework) controllerState {
	ctl := f.Srv.MCU(f.MCU)
	reads, writes := ctl.DRAMTraffic()
	hits, misses, wbs := ctl.CacheStats()
	return controllerState{ctl.ActsPerWindow(), [7]uint64{ctl.Activations(),
		ctl.ElapsedNs(), reads, writes, hits, misses, wbs}}
}

// TestAccessReplayMatchesLoads deploys seeded access-rows and access-coeffs
// genomes on 16- and 64-row servers through the table-driven replay on one
// server and through loadReplay on a twin, and requires the same
// activation rates and counters after every genome. It runs the default
// 16 sweeps, whose access-rows table the controller repeats from one
// simulated sweep, and 1, 3 and 17: at 17 the access-rows sweep wraps past
// the row's end, so its table is no longer a shift of its first sweep.
func TestAccessReplayMatchesLoads(t *testing.T) {
	const seed = 3
	// The plain word functions: offset i of an access-rows genome is read at
	// word x·64 + i of pass x, and of an access-coeffs genome at aᵢ·x + bᵢ.
	rowsPattern := func(f *Framework, g ga.Genome) ([]int, func(i, x int) int) {
		wordsPerRow := f.Srv.MCU(f.MCU).Device().Geometry().WordsPerRow()
		return rowOffsets(g.(*ga.BitGenome)), func(i, x int) int {
			return (x*64 + i) % wordsPerRow
		}
	}
	coeffsPattern := func(f *Framework, g ga.Genome) ([]int, func(i, x int) int) {
		wordsPerRow := f.Srv.MCU(f.MCU).Device().Geometry().WordsPerRow()
		vals := g.(*ga.IntGenome).Vals
		return coeffOffsets, func(i, x int) int {
			return (vals[i]*x + vals[i+16]) % wordsPerRow
		}
	}
	for _, sweepLen := range []int{16, 1, 3, 17} {
		for _, rows := range []int{16, 64} {
			rowsSpec := NewAccessRowsSpec(0x3333333333333333)
			coeffsSpec := NewAccessCoeffsSpec(0x3333333333333333)
			rowsSpec.SweepLen, coeffsSpec.SweepLen = sweepLen, sweepLen
			for _, c := range []struct {
				spec    Spec
				base    *accessSpecBase
				pattern func(*Framework, ga.Genome) ([]int, func(i, x int) int)
			}{
				{rowsSpec, &rowsSpec.accessSpecBase, rowsPattern},
				{coeffsSpec, &coeffsSpec.accessSpecBase, coeffsPattern},
			} {
				name := fmt.Sprintf("%d sweeps, %d rows, %s", sweepLen, rows, c.spec.Name())
				var fs [2]*Framework
				for i := range fs {
					srv, err := server.New(server.DefaultConfig(rows, seed))
					if err != nil {
						t.Fatal(err)
					}
					if fs[i], err = New(srv, xrand.New(seed)); err != nil {
						t.Fatal(err)
					}
					if err := fs[i].Apply(Relaxed(55)); err != nil {
						t.Fatal(err)
					}
					// Both twins are built alike, so each Prepare finds
					// the same targets.
					if err := c.spec.Prepare(fs[i]); err != nil {
						t.Fatal(err)
					}
				}
				pop := c.spec.NewPopulation(fs[0], 40, xrand.New(seed))
				rowsActivated := 0
				for j, g := range pop {
					if err := c.spec.Deploy(fs[0], g); err != nil {
						t.Fatal(err)
					}
					offsets, wordIdx := c.pattern(fs[1], g)
					loadReplay(fs[1], c.base, offsets, wordIdx)
					got, want := snapshotController(fs[0]), snapshotController(fs[1])
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s genome %d: replay left\n%+v\nloads left\n%+v",
							name, j, got, want)
					}
					rowsActivated += len(got.acts)
				}
				if rowsActivated == 0 {
					t.Fatalf("%s: no genome activated a row", name)
				}
			}
		}
	}
}

// BenchmarkAccessRowsEvaluateBatch is one generation of the access-rows
// search as a farm worker runs it: 32 genomes deployed through the
// controller and measured in one determinism-v2 batch of 4 runs on a
// 16-row server.
func BenchmarkAccessRowsEvaluateBatch(b *testing.B) {
	const seed = 1
	srv, err := server.New(server.DefaultConfig(16, seed))
	if err != nil {
		b.Fatal(err)
	}
	spec := NewAccessRowsSpec(0x3333333333333333)
	_, chunk, err := NewWorkerEvaluators(srv, spec, MaxCE, Relaxed(55),
		server.MCU2, 4, dram.DeterminismV2)
	if err != nil {
		b.Fatal(err)
	}
	pop := ga.RandomBitPopulation(32, 64, xrand.New(seed))
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

// BenchmarkAccessRowsDeploy is one access-rows genome's replay through the
// memory controller on a 16-row server, with no dram kernel: the
// controller's share of BenchmarkAccessRowsEvaluateBatch, per genome.
func BenchmarkAccessRowsDeploy(b *testing.B) {
	const seed = 1
	f := testFramework(b, seed)
	if err := f.Apply(Relaxed(55)); err != nil {
		b.Fatal(err)
	}
	spec := NewAccessRowsSpec(0x3333333333333333)
	if err := spec.Prepare(f); err != nil {
		b.Fatal(err)
	}
	g := ga.RandomBitPopulation(1, 64, xrand.New(seed))[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spec.Deploy(f, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessCoeffsDeploy is one access-coeffs genome's replay through
// the memory controller on a 16-row server: a table that is not a shift
// of its first sweep, so every load goes through the cache one by one.
func BenchmarkAccessCoeffsDeploy(b *testing.B) {
	const seed = 1
	f := testFramework(b, seed)
	if err := f.Apply(Relaxed(55)); err != nil {
		b.Fatal(err)
	}
	spec := NewAccessCoeffsSpec(0x3333333333333333)
	if err := spec.Prepare(f); err != nil {
		b.Fatal(err)
	}
	g := ga.RandomIntPopulation(1, 32, 0, CoeffBound, xrand.New(seed))[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spec.Deploy(f, g); err != nil {
			b.Fatal(err)
		}
	}
}
