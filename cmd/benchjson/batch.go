package main

// The batch benchmark (-batch): population-batched evaluation vs
// per-genome v2 AverageRuns calls (each a batch of one), at growing
// population sizes. Both modes solve the identical workload — deploy a
// genome's row writes, then average `runs` evaluation runs — over the same
// simulated DIMM; the per-genome mode pays a full plan compile once per
// genome, the batch mode
// (AverageRunsBatch) compiles the device plan once per generation, splices
// only the rows each genome touched, and serves all scratch from a pool.
// The snapshot records ns/B/allocs per population pass for each mode and
// derives speedup_batch_pop* plus alloc/byte reduction ratios — the
// acceptance gauge is ≥3x throughput and ≥10x fewer allocations at pop 512.

import (
	"fmt"
	"os"
	"testing"

	"dstress/internal/dram"
	"dstress/internal/xrand"
)

// BatchPoint is the measurement at one population size. The *_ns_op /
// *_bytes_op / *_allocs_op figures are per full population pass (one GA
// generation's worth of evaluations), as Go benchmarks report them.
type BatchPoint struct {
	Pop int `json:"pop"`

	SingleNsOp     float64 `json:"single_ns_op"`
	SingleBytesOp  float64 `json:"single_bytes_op"`
	SingleAllocsOp float64 `json:"single_allocs_op"`

	BatchNsOp     float64 `json:"batch_ns_op"`
	BatchBytesOp  float64 `json:"batch_bytes_op"`
	BatchAllocsOp float64 `json:"batch_allocs_op"`
}

// BatchBench is the snapshot's "batch" section.
type BatchBench struct {
	Rows   int          `json:"rows"`
	Runs   int          `json:"runs"`
	Points []BatchPoint `json:"points"`
}

// batchBenchDeploy writes one synthetic genome: a handful of pattern words
// into weak-neighbourhood rows, varied per genome index so consecutive
// genomes dirty overlapping but not identical row sets — the access shape a
// real GA generation presents to the splicer.
func batchBenchDeploy(weak []dram.RowKey, gi int) func(*dram.Device) error {
	return func(d *dram.Device) error {
		for r := 0; r < 4; r++ {
			k := weak[(gi*3+r)%len(weak)]
			w := 0x9E3779B97F4A7C15 * uint64(gi*31+r+1)
			d.FillRowWords(k, []uint64{w, ^w, w >> 7})
		}
		return nil
	}
}

// runBatchBench measures both evaluation modes at each population size and
// derives the ratio keys merged into Snapshot.Derived.
func runBatchBench(pops []int, runs int) (*BatchBench, map[string]float64, error) {
	const rows = 64
	bb := &BatchBench{Rows: rows, Runs: runs}
	params := dram.RunParams{
		TREFP: 2.283, TempC: 60, VDD: 1.428,
		Version: dram.DeterminismV2,
	}

	for _, pop := range pops {
		pop := pop
		d := dram.MustNewDevice(dram.DefaultConfig(rows, 1))
		d.FillAllUniform(0x3333333333333333)
		weak := d.WeakRows()

		var benchErr error
		single := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root := xrand.New(uint64(i) + 1)
				for gi := 0; gi < pop; gi++ {
					rng := root.Split()
					if err := batchBenchDeploy(weak, gi)(d); err != nil {
						benchErr = err
						return
					}
					if _, _, _, err := d.AverageRuns(params, runs, rng); err != nil {
						benchErr = err
						return
					}
				}
			}
		})
		if benchErr != nil {
			return nil, nil, fmt.Errorf("single pop=%d: %w", pop, benchErr)
		}

		items := make([]dram.BatchItem, pop)
		batched := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root := xrand.New(uint64(i) + 1)
				for gi := range items {
					items[gi] = dram.BatchItem{
						Apply: batchBenchDeploy(weak, gi),
						RNG:   root.Split(),
					}
				}
				if _, err := d.AverageRunsBatch(params, runs, items); err != nil {
					benchErr = err
					return
				}
			}
		})
		if benchErr != nil {
			return nil, nil, fmt.Errorf("batch pop=%d: %w", pop, benchErr)
		}

		pt := BatchPoint{
			Pop:            pop,
			SingleNsOp:     float64(single.NsPerOp()),
			SingleBytesOp:  float64(single.AllocedBytesPerOp()),
			SingleAllocsOp: float64(single.AllocsPerOp()),
			BatchNsOp:      float64(batched.NsPerOp()),
			BatchBytesOp:   float64(batched.AllocedBytesPerOp()),
			BatchAllocsOp:  float64(batched.AllocsPerOp()),
		}
		bb.Points = append(bb.Points, pt)
		fmt.Fprintf(os.Stderr,
			"benchjson: batch @pop %3d: single %10.0f ns  batch %10.0f ns  (%.2fx, allocs %.0f -> %.0f)\n",
			pop, pt.SingleNsOp, pt.BatchNsOp, pt.SingleNsOp/pt.BatchNsOp,
			pt.SingleAllocsOp, pt.BatchAllocsOp)
	}

	derived := map[string]float64{}
	for _, pt := range bb.Points {
		if pt.BatchNsOp > 0 {
			derived[fmt.Sprintf("speedup_batch_pop%d", pt.Pop)] =
				pt.SingleNsOp / pt.BatchNsOp
		}
		if pt.BatchAllocsOp > 0 {
			derived[fmt.Sprintf("batch_allocs_ratio_pop%d", pt.Pop)] =
				pt.SingleAllocsOp / pt.BatchAllocsOp
		}
		if pt.BatchBytesOp > 0 {
			derived[fmt.Sprintf("batch_bytes_ratio_pop%d", pt.Pop)] =
				pt.SingleBytesOp / pt.BatchBytesOp
		}
	}
	return bb, derived, nil
}
