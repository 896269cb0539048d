package dram

import (
	"fmt"
	"testing"

	"dstress/internal/addrmap"
	"dstress/internal/xrand"
)

// Micro-benchmarks of the evaluation hot path. The quick-scale (16 rows per
// bank) configuration matches the experiments.QuickConfig / dstressd
// default; 64 rows is the dram test scale. "fast" is the compiled-plan path
// every caller gets from Run; "reference" is the retained plan-free path the
// differential suite verifies against — their ratio is the speedup the fast
// path buys, recorded in the BENCH_*.json snapshots (make bench-json). "v2"
// is a determinism-v2 call, a batch of one on the batch engine: it compiles
// the plan on every call, even on an unchanged written state, because the
// batch engine keeps no plan across calls.

func benchDevice(b *testing.B, rows int) *Device {
	b.Helper()
	d := MustNewDevice(DefaultConfig(rows, 1))
	fillUniform(d, 0x3333333333333333)
	return d
}

func benchParams() RunParams {
	return RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD}
}

// averageRunsReference is AverageRuns driven through the reference path.
func averageRunsReference(b *testing.B, d *Device, p RunParams, n int,
	rng *xrand.Rand) {
	b.Helper()
	for i := 0; i < n; i++ {
		p.RNG = rng.Split()
		if _, err := d.runReference(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun measures one evaluation run on an unchanged written state
// (for v2, one plan compile plus the run).
func BenchmarkRun(b *testing.B) {
	for _, rows := range []int{16, 64} {
		d := benchDevice(b, rows)
		p := benchParams()
		b.Run(fmt.Sprintf("fast/rows=%d", rows), func(b *testing.B) {
			p.RNG = xrand.New(1)
			if _, err := d.Run(p); err != nil { // compile the plan
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.RNG = xrand.New(uint64(i))
				if _, err := d.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reference/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.RNG = xrand.New(uint64(i))
				if _, err := d.runReference(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("v2/rows=%d", rows), func(b *testing.B) {
			v2 := p
			v2.Version = DeterminismV2
			for i := 0; i < b.N; i++ {
				v2.RNG = xrand.New(uint64(i))
				if _, err := d.Run(v2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAverageRuns measures the paper's ten-run averaging batch — the
// unit of every GA fitness evaluation. The plan is compiled on the batch's
// first run and reused by the other nine (for v2, once per call).
func BenchmarkAverageRuns(b *testing.B) {
	for _, rows := range []int{16, 64} {
		d := benchDevice(b, rows)
		p := benchParams()
		b.Run(fmt.Sprintf("fast/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := d.AverageRuns(p, 10, xrand.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reference/rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				averageRunsReference(b, d, p, 10, xrand.New(uint64(i)))
			}
		})
		b.Run(fmt.Sprintf("v2/rows=%d", rows), func(b *testing.B) {
			v2 := p
			v2.Version = DeterminismV2
			for i := 0; i < b.N; i++ {
				if _, _, _, err := d.AverageRuns(v2, 10, xrand.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanInvalidationChurn is the fast path's worst case: every
// iteration writes one word (invalidating the plan) and then runs once, so
// each run pays a full plan compilation. This bounds the cost a
// write-heavy caller (March tests, per-generation refills) can see.
func BenchmarkPlanInvalidationChurn(b *testing.B) {
	for _, rows := range []int{16, 64} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			d := benchDevice(b, rows)
			p := benchParams()
			loc := addrmap.Loc{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.WriteWord(loc, uint64(i))
				p.RNG = xrand.New(uint64(i))
				if _, err := d.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTREFPSweep models the marginal-refresh search: many TREFP points
// evaluated on one unchanged written state, the other plan-reuse pattern
// (margins.go) beyond AverageRuns batches.
func BenchmarkTREFPSweep(b *testing.B) {
	d := benchDevice(b, 16)
	p := benchParams()
	points := make([]float64, 16)
	for i := range points {
		points[i] = nominalTREFP + float64(i)*(relaxedTREFP-nominalTREFP)/15
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, trefp := range points {
			p.TREFP = trefp
			p.RNG = xrand.New(uint64(i))
			if _, err := d.Run(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileFull measures one full plan compile of a 64-row hostile
// device (scrambled, phase-flipped and remapped rows) after a uniform fill:
// the compile a data64 deploy forces on every evaluation.
func BenchmarkCompileFull(b *testing.B) {
	d := MustNewDevice(hostileConfig(1))
	d.FillAllUniform(0x3333333333333333)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.compilePlan()
	}
}
