package core

import (
	"testing"

	"dstress/internal/ga"
	"dstress/internal/virus"
	"dstress/internal/virusdb"
	"dstress/internal/vpl"
)

func TestTemplateSpecPrepareAndLayout(t *testing.T) {
	f := testFramework(t, 40)
	spec := NewTemplateSpec("data64-tpl", virus.Data64Template)
	spec.Chunks = 16
	if err := spec.Prepare(f); err != nil {
		t.Fatal(err)
	}
	if len(spec.lo) != 64 {
		t.Fatalf("genome length %d, want 64", len(spec.lo))
	}
	pop := spec.NewPopulation(f, 5, f.RNG.Split())
	if len(pop) != 5 {
		t.Fatal("population size wrong")
	}
	for _, g := range pop {
		for _, v := range g.(*ga.MixedGenome).Vals {
			if v != 0 && v != 1 {
				t.Fatalf("binary gene %d out of range", v)
			}
		}
	}
}

func TestTemplateSpecErrors(t *testing.T) {
	f := testFramework(t, 41)
	// Broken template source.
	bad := NewTemplateSpec("broken", "body\nno params\n")
	if err := bad.Prepare(f); err == nil {
		t.Fatal("broken template accepted")
	}
	// All parameters fixed: nothing to search.
	fixedOnly := NewTemplateSpec("fixed", virus.Data64Template)
	fixedOnly.Chunks = 8
	fixedOnly.Fixed = map[string]vpl.Value{
		"PATTERN": {Vector: make([]int64, 64)},
	}
	if err := fixedOnly.Prepare(f); err == nil {
		t.Fatal("search space of size zero accepted")
	}
	// Deploy before Prepare is rejected.
	unprepared := NewTemplateSpec("data64-tpl", virus.Data64Template)
	g, err := ga.NewMixedGenome([]int{}, []int{}, []int{})
	if err != nil {
		t.Fatal(err)
	}
	if err := unprepared.Deploy(f, g); err == nil {
		t.Fatal("deploy before prepare accepted")
	}
	// Decode before Prepare is rejected.
	if _, err := unprepared.Decode(virusdb.Record{Ints: []int{1}}); err == nil {
		t.Fatal("decode before prepare accepted")
	}
}

func TestTemplateSpecDeployWritesDevice(t *testing.T) {
	f := testFramework(t, 42)
	if err := f.Apply(Relaxed(55)); err != nil {
		t.Fatal(err)
	}
	spec := NewTemplateSpec("data64-tpl", virus.Data64Template)
	spec.Chunks = 16
	if err := spec.Prepare(f); err != nil {
		t.Fatal(err)
	}
	// Chromosome encoding the charge-all word.
	vals := make([]int, 64)
	for i := 0; i < 64; i++ {
		vals[i] = int((uint64(0x3333333333333333) >> uint(i)) & 1)
	}
	lo := make([]int, 64)
	hi := make([]int, 64)
	for i := range hi {
		hi[i] = 1
	}
	g, err := ga.NewMixedGenome(vals, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Deploy(f, g); err != nil {
		t.Fatal(err)
	}
	dev := f.Srv.MCU(f.MCU).Device()
	geom := dev.Geometry()
	v, ok := dev.ReadWord(geom.Map(8192 + 64))
	if !ok || v != 0x3333333333333333 {
		t.Fatalf("virus fill missing: %x ok=%v", v, ok)
	}
	m, err := f.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanCE == 0 {
		t.Fatal("interpreted virus produced no errors under stress")
	}
}

// TestTemplateSpecSearch runs a small GA search entirely through the
// interpreter path — the fully general workflow of the paper's tool — and
// checks it beats the average random pattern.
func TestTemplateSpecSearch(t *testing.T) {
	f := testFramework(t, 43)
	spec := NewTemplateSpec("data64-tpl", virus.Data64Template)
	spec.Chunks = 16
	params := quickGA(12)
	params.PopulationSize = 16
	params.ElitismCount = 2
	res, err := f.RunSearch(SearchConfig{
		Spec:      spec,
		Criterion: MaxCE,
		Point:     Relaxed(60),
		GA:        params,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness <= 0 {
		t.Fatal("template search found nothing")
	}
	// The search must improve over its own first generation's mean.
	first := res.History[0]
	t.Logf("template search: gen1 mean %.1f -> best %.1f after %d gens",
		first.Mean, res.BestFitness, res.Generations)
	if res.BestFitness < first.Mean {
		t.Fatalf("no improvement: best %.1f vs first-gen mean %.1f",
			res.BestFitness, first.Mean)
	}
}

func TestTemplateSpecEncodeDecode(t *testing.T) {
	f := testFramework(t, 44)
	spec := NewTemplateSpec("data64-tpl", virus.Data64Template)
	spec.Chunks = 8
	if err := spec.Prepare(f); err != nil {
		t.Fatal(err)
	}
	g := spec.NewPopulation(f, 1, f.RNG.Split())[0]
	var dbrec virusdb.Record
	spec.Encode(g, &dbrec)
	back, err := spec.Decode(dbrec)
	if err != nil {
		t.Fatal(err)
	}
	if back.SimilarityTo(g) != 1 {
		t.Fatal("encode/decode round trip lost the chromosome")
	}
}

func TestFixedFromJSON(t *testing.T) {
	fixed, err := FixedFromJSON([]byte(`{"A": 3, "B": [1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	if fixed["A"].Scalar != 3 || len(fixed["B"].Vector) != 3 {
		t.Fatalf("parsed bindings wrong: %+v", fixed)
	}
	if _, err := FixedFromJSON([]byte(`{"A": "x"}`)); err == nil {
		t.Fatal("bad binding accepted")
	}
	if _, err := FixedFromJSON([]byte(`not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
