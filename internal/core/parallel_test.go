package core

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"dstress/internal/farm"
	"dstress/internal/fleet"
	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

// smallSearch returns a test-sized search configuration.
func smallSearch(spec Spec, workers int) SearchConfig {
	p := ga.DefaultParams()
	p.PopulationSize = 6
	p.ElitismCount = 2
	p.MaxGenerations = 2
	return SearchConfig{
		Spec:      spec,
		Criterion: MaxCE,
		Point:     Relaxed(55),
		GA:        p,
		Workers:   workers,
	}
}

// runSmall executes the search on a fresh framework (same seed every time,
// so any fitness difference between runs is the farm's fault).
func runSmall(t *testing.T, cfg SearchConfig) *SearchResult {
	t.Helper()
	f := testFramework(t, 7)
	f.Runs = 2
	res, err := f.RunSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFarmDeterminismAcrossWorkerCounts is the end-to-end reproducibility
// guarantee: a full synthesis run on the farm yields bit-identical fitness
// vectors no matter how many workers evaluate it.
func TestFarmDeterminismAcrossWorkerCounts(t *testing.T) {
	specs := []struct {
		name string
		spec Spec
	}{
		{"data64", Data64Spec{}},                       // bit genome
		{"access-coeffs", NewAccessCoeffsSpec(0x3333)}, // int genome
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			var want *SearchResult
			for _, workers := range []int{1, 4, 16} {
				got := runSmall(t, smallSearch(tc.spec, workers))
				if want == nil {
					want = got
					continue
				}
				if got.BestFitness != want.BestFitness ||
					got.Generations != want.Generations {
					t.Fatalf("workers=%d: best %v/%v gens %d/%d", workers,
						got.BestFitness, want.BestFitness,
						got.Generations, want.Generations)
				}
				for i := range got.Fitnesses {
					if got.Fitnesses[i] != want.Fitnesses[i] {
						t.Fatalf("workers=%d fitness %d: %v != %v", workers,
							i, got.Fitnesses[i], want.Fitnesses[i])
					}
				}
			}
		})
	}
}

// TestFarmSearchRecordsAndResumes: a farm-evaluated search writes the same
// kind of database records as the serial path, and a cancelled farm search
// still records its partial population for resume.
func TestFarmSearchCancelRecordsPartial(t *testing.T) {
	f := testFramework(t, 9)
	f.Runs = 2
	db, err := virusdb.Open(t.TempDir() + "/v.json")
	if err != nil {
		t.Fatal(err)
	}
	f.DB = db

	cfg := smallSearch(Data64Spec{}, 2)
	cfg.GA.MaxGenerations = 50
	cfg.GA.ConvergenceSim = 1.0
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnGeneration = func(st ga.GenStats) {
		if st.Generation >= 2 {
			cancel()
		}
	}
	res, err := f.RunSearchContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("Canceled not set")
	}
	if res.Generations >= 50 {
		t.Fatalf("ran %d generations after cancel", res.Generations)
	}
	if db.Len() != len(res.Population) {
		t.Fatalf("recorded %d of %d viruses", db.Len(), len(res.Population))
	}

	// Resuming seeds from the recorded partial population.
	f2 := testFramework(t, 9)
	f2.Runs = 2
	f2.DB = db
	cfg2 := smallSearch(Data64Spec{}, 2)
	cfg2.Resume = true
	res2, err := f2.RunSearch(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BestFitness < res.BestFitness {
		t.Fatalf("resume lost fitness: %v < %v", res2.BestFitness,
			res.BestFitness)
	}
}

// TestFarmSharedCache: repeating a search against a shared cache absorbs
// every evaluation the second time and reproduces the result exactly.
func TestFarmSharedCache(t *testing.T) {
	cache := farm.NewCache()
	met := farm.NewMetrics()
	run := func() *SearchResult {
		cfg := smallSearch(Data64Spec{}, 4)
		cfg.Cache = cache
		cfg.Metrics = met
		return runSmall(t, cfg)
	}
	first := run()
	evalsAfterFirst := met.Snapshot(4).Evaluations
	if evalsAfterFirst == 0 {
		t.Fatal("no evaluations counted")
	}
	second := run()
	if met.Snapshot(4).Evaluations != evalsAfterFirst {
		t.Fatalf("identical rerun re-evaluated: %d -> %d evals",
			evalsAfterFirst, met.Snapshot(4).Evaluations)
	}
	if second.BestFitness != first.BestFitness {
		t.Fatalf("cached rerun diverged: %v != %v", second.BestFitness,
			first.BestFitness)
	}
	if st := cache.Stats(); st.Hits == 0 || st.HitRate == 0 {
		t.Fatalf("cache stats: %+v", st)
	}
}

// TestServerClone: clones are independent, bit-identical machines.
func TestServerClone(t *testing.T) {
	srv, err := server.New(server.DefaultConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	clone, err := srv.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone == srv {
		t.Fatal("clone is the same server")
	}
	if clone.Config() != srv.Config() {
		t.Fatal("clone config differs")
	}
	// Same deployment + same noise stream → same measurement on both.
	for _, s := range []*server.Server{srv, clone} {
		if err := s.SetRelaxedParams(MaxTREFP, RelaxedVDD); err != nil {
			t.Fatal(err)
		}
	}
	a, err := srv.Evaluate(server.MCU2, 2, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := clone.Evaluate(server.MCU2, 2, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanCE != b.MeanCE || a.UEFrac != b.UEFrac {
		t.Fatalf("clone measured differently: %+v vs %+v", a, b)
	}
	// Relaxing the clone further must not touch the original.
	if err := clone.SetRelaxedParams(MaxTREFP, NominalVDD); err != nil {
		t.Fatal(err)
	}
	if srv.MCU(server.MCU2).VDD() == clone.MCU(server.MCU2).VDD() {
		t.Fatal("clone shares controller state with the original")
	}
}

// countingSpec counts the server clones a search's pool prepares: every
// Prepare on a framework other than the search's own is one clone. It also
// records how many clones were prepared when a clone first deployed.
type countingSpec struct {
	Spec
	home *Framework

	mu            sync.Mutex
	clones        int
	atFirstDeploy int // -1 until a clone deploys
}

func (s *countingSpec) Prepare(f *Framework) error {
	if f != s.home {
		s.mu.Lock()
		s.clones++
		s.mu.Unlock()
	}
	return s.Spec.Prepare(f)
}

func (s *countingSpec) Deploy(f *Framework, g ga.Genome) error {
	if f != s.home {
		s.mu.Lock()
		if s.atFirstDeploy < 0 {
			s.atFirstDeploy = s.clones
		}
		s.mu.Unlock()
	}
	return s.Spec.Deploy(f, g)
}

// TestEvalPoolClonesLazily: a search's pool builds its server clones on its
// first local evaluation, all of them under one build that ends before any
// clone deploys. A search a live fleet worker serves builds none; one whose
// shards are orphaned by a vanished worker builds every clone once, when it
// reclaims them, and reuses them for the rest of the search.
func TestEvalPoolClonesLazily(t *testing.T) {
	const workers = 3
	want := runSmall(t, smallSearch(Data64Spec{}, workers))
	// newSearch builds the search's framework, which takes a while under
	// -race, and returns the spec and a function that runs the search.
	newSearch := func(t *testing.T, c *fleet.Coordinator) (*countingSpec, func()) {
		t.Helper()
		f := testFramework(t, 7)
		f.Runs = 2
		spec := &countingSpec{Spec: Data64Spec{}, home: f, atFirstDeploy: -1}
		cfg := smallSearch(spec, workers)
		cfg.Fleet, cfg.FleetContext = c, json.RawMessage(`{}`)
		return spec, func() {
			t.Helper()
			got, err := f.RunSearch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.BestFitness != want.BestFitness ||
				!reflect.DeepEqual(got.Fitnesses, want.Fitnesses) {
				t.Fatalf("fleet search diverged from local: best %v/%v",
					got.BestFitness, want.BestFitness)
			}
		}
	}

	t.Run("served", func(t *testing.T) {
		c := fleet.NewCoordinator(fleet.Config{SweepEvery: 5 * time.Millisecond})
		mux := http.NewServeMux()
		c.Mount(mux)
		ts := httptest.NewServer(mux)
		defer ts.Close()
		tmpl := testFramework(t, 7)
		w := fleet.NewWorker(ts.URL, "w", func(json.RawMessage) (farm.ChunkEvalFunc, error) {
			srv, err := tmpl.Srv.Clone()
			if err != nil {
				return nil, err
			}
			_, chunk, err := NewWorkerEvaluators(srv, Data64Spec{}, MaxCE,
				Relaxed(55), tmpl.MCU, 2, 0)
			return chunk, err
		}, fleet.WithLeaseWait(200*time.Millisecond))
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = w.Run(ctx)
		}()
		defer func() {
			cancel()
			<-done
		}()
		for deadline := time.Now().Add(5 * time.Second); c.LiveWorkers() < 1; {
			if time.Now().After(deadline) {
				t.Fatal("the fleet worker never joined")
			}
			time.Sleep(5 * time.Millisecond)
		}

		spec, run := newSearch(t, c)
		run()
		if st := c.Snapshot(); st.RemoteTasks == 0 || st.LocalTasks != 0 {
			t.Fatalf("the worker did not serve the whole search: %+v", st)
		}
		if spec.clones != 0 {
			t.Fatalf("a fleet-served search built %d coordinator clones, want 0",
				spec.clones)
		}
	})

	t.Run("reclaimed", func(t *testing.T) {
		c := fleet.NewCoordinator(fleet.Config{
			WorkerTTL: 100 * time.Millisecond, SweepEvery: 5 * time.Millisecond})
		spec, run := newSearch(t, c)
		// The ghost joins once the framework is built, so it is still live
		// when the first batch is submitted. It never leases: that batch's
		// shards are orphaned when it expires.
		c.Join("ghost")
		run()
		st := c.Snapshot()
		if st.RemoteBatches != 1 || st.RemoteTasks != 0 || st.LocalTasks == 0 {
			t.Fatalf("the first batch was not reclaimed locally: %+v", st)
		}
		if spec.clones != workers || spec.atFirstDeploy != workers {
			t.Fatalf("built %d clones (%d before the first deploy), want %d once",
				spec.clones, spec.atFirstDeploy, workers)
		}
	})
}
