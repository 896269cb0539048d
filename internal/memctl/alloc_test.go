package memctl_test

import (
	"testing"

	"dstress/internal/core"
	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/memctl"
	"dstress/internal/server"
	"dstress/internal/xrand"
)

// TestDataVirusLeavesCacheUnallocated deploys and evaluates data64
// viruses as a farm worker does, one by one and as a v2 batch, and
// requires every MCU's cache tags, activation counters and dense rates to
// stay unallocated: a data virus never loads through the cache. The first
// load then allocates the tags and counters.
func TestDataVirusLeavesCacheUnallocated(t *testing.T) {
	srv, err := server.New(server.DefaultConfig(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	single, chunk, err := core.NewWorkerEvaluators(srv, core.Data64Spec{},
		core.MaxCE, core.Relaxed(55), server.MCU2, 2, dram.DeterminismV2)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	pop := core.Data64Spec{}.NewPopulation(nil, 6, rng)
	tasks := make([]farm.Assigned, len(pop))
	for i, g := range pop {
		tasks[i] = farm.Assigned{Idx: i, G: g, RNG: rng.Split()}
	}
	out := make([]float64, len(pop))
	if err := chunk(tasks, out); err != nil {
		t.Fatal(err)
	}
	if _, err := single(pop[0], rng.Split()); err != nil {
		t.Fatal(err)
	}
	if out[0] == 0 {
		t.Fatal("the batch saw no CE; the evaluation ran nothing")
	}
	for i := 0; i < server.NumMCUs; i++ {
		if tags, acts, rates := memctl.Allocated(srv.MCU(i)); tags || acts || rates {
			t.Fatalf("MCU%d after data deploys: tags %v, counters %v, rates %v allocated",
				i, tags, acts, rates)
		}
	}
	ctl := srv.MCU(server.MCU2)
	ctl.Load(0)
	if tags, acts, _ := memctl.Allocated(ctl); !tags || !acts {
		t.Fatalf("after a load: tags %v, counters %v allocated", tags, acts)
	}
}
