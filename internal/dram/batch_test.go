package dram

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dstress/internal/xrand"
)

// The batch differential suite: RunBatch / AverageRunsBatch must be
// bit-identical for every item to the plan-free v2 reference (run_v2_test.go)
// and to a batch of one — same draws, same ECC verdicts — across rewritten
// rows, brand new rows, per-item hammer maps and whole-device mutations
// mid-batch. Run and AverageRuns are the batch engine under v2, so the
// per-item oracle is the reference, not Run.

// batchGenome builds the Apply of one synthetic genome: a handful of
// defect-row rewrites with genome-specific data, the locality pattern
// (block specs around weak rows) the splice path is built for. Genomes
// gi%5==3 also write a brand-new row outside the defect set; genome 7 ages
// the device, forcing the trackAll full-recompile path mid-batch.
func batchGenome(weak []RowKey, gi int) func(*Device) error {
	return func(d *Device) error {
		if gi == 7 {
			if err := d.Age(0.999); err != nil {
				return err
			}
		}
		for r := 0; r < 4; r++ {
			k := weak[(gi*3+r)%len(weak)]
			w := 0x9E3779B97F4A7C15 * uint64(gi*31+r+1)
			d.FillRowWords(k, []uint64{w, ^w, w >> 7})
		}
		if gi%5 == 3 {
			k := weak[gi%len(weak)]
			k.Row = (k.Row + 5) % 64
			d.FillRow(k, uint64(gi)*0xABCD)
		}
		return nil
	}
}

// batchConditions builds shared run parameters plus per-item activation
// maps: even items inherit the shared ActsPerWindow, odd items carry their
// own, so both the hammer-equal copy and the hammer-changed rebuild paths
// are exercised on clean plan rows.
func batchConditions(weak []RowKey, pop int) (RunParams, []map[RowKey]float64) {
	shared := map[RowKey]float64{}
	for i := 0; i < 4 && i < len(weak); i++ {
		k := weak[i]
		k.Row++
		shared[k] = 40000
	}
	p := RunParams{
		TREFP:         relaxedTREFP,
		TempC:         60,
		VDD:           relaxedVDD,
		Version:       DeterminismV2,
		TempByRank:    map[int]float64{0: 63},
		TREFPByRow:    map[RowKey]float64{weak[0]: relaxedTREFP / 2},
		ActsPerWindow: shared,
	}
	acts := make([]map[RowKey]float64, pop)
	for gi := range acts {
		if gi%2 == 0 {
			continue
		}
		k := weak[(gi*3)%len(weak)]
		k.Row++
		acts[gi] = map[RowKey]float64{k: float64(20000 + gi*1000)}
	}
	return p, acts
}

// actsFn lifts a static per-item activation map into the BatchItem.Acts
// callback shape, laid out densely for d once (nil stays nil, selecting
// the shared map). Every batch test feeds its per-item maps through it.
func actsFn(d *Device, m map[RowKey]float64) func() []float64 {
	if m == nil {
		return nil
	}
	dense := d.denseActs(m, nil)
	return func() []float64 { return dense }
}

func TestBatchDetV2RunBatchBitIdentical(t *testing.T) {
	const pop = 24
	single := testDevice(t, 11)
	batched := testDevice(t, 11)
	fillUniform(single, 0x3333333333333333)
	fillUniform(batched, 0x3333333333333333)
	weak := single.WeakRows()
	p, acts := batchConditions(weak, pop)

	items := make([]BatchItem, pop)
	rootB := xrand.New(99)
	for gi := range items {
		items[gi] = BatchItem{
			Apply: batchGenome(weak, gi),
			Acts:  actsFn(batched, acts[gi]),
			RNG:   rootB.Split(),
		}
	}
	got, err := batched.RunBatch(p, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != pop {
		t.Fatalf("RunBatch returned %d results, want %d", len(got), pop)
	}

	rootS := xrand.New(99)
	for gi := 0; gi < pop; gi++ {
		rng := rootS.Split()
		if err := batchGenome(weak, gi)(single); err != nil {
			t.Fatal(err)
		}
		pg := p
		pg.RNG = rng
		if acts[gi] != nil {
			pg.ActsPerWindow = acts[gi]
		}
		want := runV2Reference(t, single, pg)
		if !reflect.DeepEqual(got[gi], want) {
			t.Fatalf("item %d: batch result diverges\n batch: %+v\nsingle: %+v",
				gi, got[gi], want)
		}
	}
}

func TestBatchDetV2AverageRunsBitIdentical(t *testing.T) {
	const pop, runs = 24, 5
	single := testDevice(t, 12)
	batched := testDevice(t, 12)
	fillUniform(single, 0x5555555555555555)
	fillUniform(batched, 0x5555555555555555)
	weak := single.WeakRows()
	p, acts := batchConditions(weak, pop)

	items := make([]BatchItem, pop)
	rootB := xrand.New(7)
	for gi := range items {
		items[gi] = BatchItem{
			Apply: batchGenome(weak, gi),
			Acts:  actsFn(batched, acts[gi]),
			RNG:   rootB.Split(),
		}
	}
	got, err := batched.AverageRunsBatch(p, runs, items)
	if err != nil {
		t.Fatal(err)
	}

	// The reference mirrors the server-level aggregation: one plan-free v2
	// run per split, integer sums, divide at the end.
	rootS := xrand.New(7)
	for gi := 0; gi < pop; gi++ {
		rng := rootS.Split()
		if err := batchGenome(weak, gi)(single); err != nil {
			t.Fatal(err)
		}
		pg := p
		if acts[gi] != nil {
			pg.ActsPerWindow = acts[gi]
		}
		var ce, sdc, ues int
		perRank := map[int]int{}
		for r := 0; r < runs; r++ {
			pg.RNG = rng.Split()
			res := runV2Reference(t, single, pg)
			ce += res.CE
			sdc += res.SDC
			if res.HasUE() {
				ues++
			}
			for rank, n := range res.CEByRank {
				perRank[rank] += n
			}
		}
		want := BatchResult{
			MeanCE:  float64(ce) / runs,
			MeanSDC: float64(sdc) / runs,
			UEFrac:  float64(ues) / runs,
		}
		for rank, n := range perRank {
			if n == 0 {
				continue
			}
			if want.CEByRank == nil {
				want.CEByRank = make([]float64, single.Geometry().Ranks)
			}
			want.CEByRank[rank] = float64(n) / runs
		}
		if !reflect.DeepEqual(got[gi], want) {
			t.Fatalf("item %d: batch average diverges\n batch: %+v\nsingle: %+v",
				gi, got[gi], want)
		}
	}
}

// TestBatchDetV2RepeatedGenerations drives several consecutive batch calls
// on one device — the GA's actual shape — so splices build on state left by
// earlier generations and pooled sessions are reused.
func TestBatchDetV2RepeatedGenerations(t *testing.T) {
	const pop, runs, gens = 8, 3, 4
	single := testDevice(t, 13)
	batched := testDevice(t, 13)
	fillUniform(single, 0xAAAAAAAAAAAAAAAA)
	fillUniform(batched, 0xAAAAAAAAAAAAAAAA)
	weak := single.WeakRows()
	p, acts := batchConditions(weak, pop)

	rootB := xrand.New(1234)
	rootS := xrand.New(1234)
	for gen := 0; gen < gens; gen++ {
		items := make([]BatchItem, pop)
		for gi := range items {
			items[gi] = BatchItem{
				Apply: batchGenome(weak, gen*pop+gi),
				Acts:  actsFn(batched, acts[gi]),
				RNG:   rootB.Split(),
			}
		}
		got, err := batched.AverageRunsBatch(p, runs, items)
		if err != nil {
			t.Fatal(err)
		}
		for gi := 0; gi < pop; gi++ {
			rng := rootS.Split()
			if err := batchGenome(weak, gen*pop+gi)(single); err != nil {
				t.Fatal(err)
			}
			pg := p
			if acts[gi] != nil {
				pg.ActsPerWindow = acts[gi]
			}
			ceM, sdcM, ueF, err := single.AverageRuns(pg, runs, rng)
			if err != nil {
				t.Fatal(err)
			}
			if got[gi].MeanCE != ceM || got[gi].MeanSDC != sdcM ||
				got[gi].UEFrac != ueF {
				t.Fatalf("gen %d item %d: (%v,%v,%v) != (%v,%v,%v)",
					gen, gi, got[gi].MeanCE, got[gi].MeanSDC, got[gi].UEFrac,
					ceM, sdcM, ueF)
			}
		}
	}
}

func TestBatchRejectsV1(t *testing.T) {
	d := testDevice(t, 3)
	fillUniform(d, 0)
	items := []BatchItem{{
		Apply: func(*Device) error { return nil },
		RNG:   xrand.New(1),
	}}
	p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD}
	if _, err := d.RunBatch(p, items); err == nil ||
		!strings.Contains(err.Error(), "determinism contract v2") {
		t.Fatalf("RunBatch under v1: err = %v, want v2-requirement error", err)
	}
	if _, err := d.AverageRunsBatch(p, 3, items); err == nil ||
		!strings.Contains(err.Error(), "determinism contract v2") {
		t.Fatalf("AverageRunsBatch under v1: err = %v, want v2-requirement error", err)
	}
}

func TestBatchValidation(t *testing.T) {
	d := testDevice(t, 3)
	p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD,
		Version: DeterminismV2}
	if _, err := d.RunBatch(p, []BatchItem{{RNG: xrand.New(1)}}); err == nil {
		t.Fatal("nil Apply accepted")
	}
	if _, err := d.RunBatch(p, []BatchItem{
		{Apply: func(*Device) error { return nil }}}); err == nil {
		t.Fatal("nil RNG accepted")
	}
	if _, err := d.AverageRunsBatch(p, 0, nil); err == nil {
		t.Fatal("n = 0 accepted")
	}
	if out, err := d.RunBatch(p, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// TestBatchAllocsSteadyState is the allocation regression guard of the
// pooled batch path: once the session pool is warm, a whole batched
// generation must stay under a committed per-item allocation budget. The
// unavoidable steady-state allocations are the per-run RNG splits the
// determinism contract demands (`runs` allocations per item, paid equally
// by the per-genome path), one CEByRank slice per item with CEs, and the
// result slice. The budget of (runs+4)·pop+64 leaves headroom for
// map-internal churn without letting per-item plan or scratch allocation
// (what pooling exists to prevent) back in.
func TestBatchAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation inflates allocation counts")
	}
	const pop, runs = 64, 4
	d := testDevice(t, 21)
	fillUniform(d, 0x3333333333333333)
	weak := d.WeakRows()
	p, acts := batchConditions(weak, pop)

	root := xrand.New(5)
	items := make([]BatchItem, pop)
	for gi := range items {
		items[gi] = BatchItem{
			Apply: batchGenome(weak, gi%7), // avoid the Age genome
			Acts:  actsFn(d, acts[gi]),
			RNG:   root.Split(),
		}
	}
	// Warm the pool and every growable buffer.
	for i := 0; i < 3; i++ {
		if _, err := d.AverageRunsBatch(p, runs, items); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := d.AverageRunsBatch(p, runs, items); err != nil {
			t.Fatal(err)
		}
	})
	budget := float64((runs+4)*pop + 64)
	if avg > budget {
		t.Fatalf("steady-state batched generation allocates %.0f objects, budget %.0f",
			avg, budget)
	}
}

// BenchmarkBatchEval compares a whole batched generation against
// per-genome AverageRuns calls — batches of one — at several population
// sizes. `make bench-json` pipes its output to cmd/benchjson, which derives
// speedup_batch_popN and the allocs/op and B/op ratios
// (batch_allocs_ratio_popN, batch_bytes_ratio_popN) from each single/batch
// pair.
func BenchmarkBatchEval(b *testing.B) {
	const runs = 10
	for _, pop := range []int{32, 128, 512} {
		d := benchDevice(b, 64)
		weak := d.WeakRows()
		p := benchParams()
		p.Version = DeterminismV2

		b.Run(fmt.Sprintf("single/pop=%d", pop), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root := xrand.New(uint64(i) + 1)
				for gi := 0; gi < pop; gi++ {
					rng := root.Split()
					if err := batchGenome(weak, gi%7)(d); err != nil {
						b.Fatal(err)
					}
					if _, _, _, err := d.AverageRuns(p, runs, rng); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("batch/pop=%d", pop), func(b *testing.B) {
			b.ReportAllocs()
			items := make([]BatchItem, pop)
			for i := 0; i < b.N; i++ {
				root := xrand.New(uint64(i) + 1)
				for gi := range items {
					items[gi] = BatchItem{
						Apply: batchGenome(weak, gi%7),
						RNG:   root.Split(),
					}
				}
				if _, err := d.AverageRunsBatch(p, runs, items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
