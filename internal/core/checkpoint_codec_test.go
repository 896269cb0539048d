package core

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/islands"
	"dstress/internal/predict"
	"dstress/internal/xrand"
)

// searchCheckpoints runs cfg to completion and returns every checkpoint it
// emitted, in order.
func searchCheckpoints(t *testing.T, cfg SearchConfig) []*Checkpoint {
	t.Helper()
	var cps []*Checkpoint
	cfg.OnCheckpoint = func(c *Checkpoint) { cps = append(cps, c) }
	if _, err := resumeFramework(t).RunSearchContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("the search emitted no checkpoint")
	}
	return cps
}

// codecCases are checkpoints of the three search shapes: one population,
// an archipelago, and an archipelago with a surrogate training window.
func codecCases(t *testing.T) map[string]*Checkpoint {
	t.Helper()
	cases := map[string]*Checkpoint{}
	for name, cfg := range map[string]SearchConfig{
		"classic":   resumeConfig(2),
		"islands":   islandsConfig(2, 2, dram.DeterminismV2),
		"surrogate": surrogateOn(islandsConfig(2, 2, dram.DeterminismV2)),
	} {
		cps := searchCheckpoints(t, cfg)
		cases[name] = cps[len(cps)-1]
	}
	if cases["surrogate"].Islands.Surrogate == nil ||
		len(cases["surrogate"].Islands.Surrogate.Samples) == 0 {
		t.Fatal("the surrogate checkpoint holds no training window")
	}
	return cases
}

// TestCheckpointCodecRoundTrip: EncodeCheckpoint and DecodeCheckpoint
// round-trip every checkpoint shape exactly, the tail holds exactly the
// packed words and the header none of them, plain JSON (what journals held
// before) still decodes, and a tail cut short or run long is an error.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	for name, cp := range codecCases(t) {
		enc, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		words := 0
		if err := cp.eachGenome(func(r *ga.GenomeRecord) error {
			words += len(r.Packed)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if words == 0 {
			t.Fatalf("%s: checkpoint holds no packed genome", name)
		}
		got, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("%s: decoded checkpoint differs from the encoded one", name)
		}
		if again, err := EncodeCheckpoint(got); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encoding is not stable (%v)", name, err)
		}
		js, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > len(js)-words/4 {
			t.Fatalf("%s: %d encoded bytes against %d of JSON; the words are not raw",
				name, len(enc), len(js))
		}
		if fromJSON, err := DecodeCheckpoint(js); err != nil || !reflect.DeepEqual(fromJSON, cp) {
			t.Fatalf("%s: JSON checkpoint does not decode to the same (%v)", name, err)
		}
		for label, bad := range map[string][]byte{
			"truncated by a byte": enc[:len(enc)-1],
			"truncated by a word": enc[:len(enc)-8],
			"overlong by a byte":  append(bytes.Clone(enc), 0),
			"overlong by a word":  append(bytes.Clone(enc), make([]byte, 8)...),
		} {
			if _, err := DecodeCheckpoint(bad); err == nil {
				t.Fatalf("%s: %s tail accepted", name, label)
			}
		}
	}
}

// TestCheckpointCodecResumes kills a search, carries its checkpoint through
// the codec, and requires the resumed search to finish bit-identical to the
// uninterrupted one, for one population and for an archipelago with
// surrogate screening.
func TestCheckpointCodecResumes(t *testing.T) {
	for name, cfg := range map[string]SearchConfig{
		"classic":   resumeConfig(2),
		"surrogate": surrogateOn(islandsConfig(2, 2, dram.DeterminismV2)),
	} {
		want, err := resumeFramework(t).RunSearch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back := killAt(t, cfg, 3)
		got, err := resumeFramework(t).RunSearchFrom(context.Background(), resumeConfig(2), back)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutcome(t, name, got, want)
	}
}

// fuzzCheckpoint is a small checkpoint of every record kind: packed bit
// genomes of several lengths, a legacy bit string, int and mixed genomes,
// two islands and a surrogate window.
func fuzzCheckpoint() *Checkpoint {
	rng := xrand.New(3)
	rec := func(g ga.Genome) ga.GenomeRecord {
		r, err := ga.EncodeGenome(g)
		if err != nil {
			panic(err)
		}
		return r
	}
	in, _ := ga.NewIntGenome([]int{1, 5}, 0, 9)
	mixed, _ := ga.NewMixedGenome([]int{2, 3}, []int{0, 1}, []int{4, 5})
	snap := func(gen int, n int) ga.Snapshot {
		return ga.Snapshot{Generation: gen, RNG: [4]uint64{1, 2, 3, 4}, Evaluations: 2,
			Population: []ga.GenomeRecord{
				rec(ga.RandomBitGenome(n, rng)), rec(ga.RandomBitGenome(n, rng))},
			Fitnesses: []float64{2, 1},
			History:   []ga.GenStats{{Generation: gen, Best: 2, Mean: 1.5}}}
	}
	return &Checkpoint{
		Experiment: "data64/max-ce/55C", Workers: 2, NoiseRNG: [4]uint64{9, 8, 7, 6},
		Params: ga.DefaultParams(),
		Engine: snap(1, 70),
		Islands: &islands.Snapshot{
			Config:     islands.Config{Count: 2},
			Generation: 1,
			Islands:    []ga.Snapshot{snap(1, 64), snap(1, 64)},
			Surrogate: &predict.SurrogateSnapshot{Samples: []predict.SurrogateSample{
				{Genome: rec(ga.RandomBitGenome(64, rng)), Fitness: 1},
				{Genome: ga.GenomeRecord{Type: "bit", Bits: "0110"}, Fitness: 2},
				{Genome: rec(in), Fitness: 3},
				{Genome: rec(mixed), Fitness: 4},
			}},
		},
		IslandNoise: [][4]uint64{{1, 1, 1, 1}, {2, 2, 2, 2}},
	}
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to DecodeCheckpoint. It must
// never panic, and whatever it accepts must re-encode stably: encoding the
// decoded checkpoint, decoding that and encoding again gives the same
// bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	cp := fuzzCheckpoint()
	enc, err := EncodeCheckpoint(cp)
	if err != nil {
		f.Fatal(err)
	}
	js, _ := json.Marshal(cp)
	classic := *cp
	classic.Islands, classic.IslandNoise = nil, nil
	encClassic, err := EncodeCheckpoint(&classic)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(js)
	f.Add(encClassic)
	f.Add(enc[:len(enc)-3])
	f.Add(append(bytes.Clone(encClassic), 1, 2))
	f.Add([]byte(`{"experiment":"e","engine":{"population":[{"type":"bit","n":3,"packed":"BQAAAAAAAAA="}]}}`))
	f.Add([]byte("\x01\x02{}\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		enc, err := EncodeCheckpoint(cp)
		if err != nil {
			return // e.g. a bit genome whose packed length does not match n
		}
		back, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		again, err := EncodeCheckpoint(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable (%v)", err)
		}
	})
}

// BenchmarkJournalCheckpoint24K journals one search_24k-sized checkpoint per
// iteration, the way the daemon does every generation: a population of 64
// 24-KByte chromosomes encoded with EncodeCheckpoint and handed to
// Job.Checkpoint on a real, fsyncing journal.
func BenchmarkJournalCheckpoint24K(b *testing.B) {
	rng := xrand.New(24)
	cp := &Checkpoint{Experiment: "data24k/max-ce/55C", Params: ga.DefaultParams(), Workers: 2,
		Engine: ga.Snapshot{Generation: 1, RNG: rng.State(), Evaluations: 64}}
	for i := 0; i < 64; i++ {
		r, err := ga.EncodeGenome(ga.RandomBitGenome(24*1024*8, rng))
		if err != nil {
			b.Fatal(err)
		}
		cp.Engine.Population = append(cp.Engine.Population, r)
		cp.Engine.Fitnesses = append(cp.Engine.Fitnesses, float64(64-i))
	}
	jl, err := farm.OpenJournal(filepath.Join(b.TempDir(), "jobs.journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer jl.Close()
	sched, err := farm.NewScheduler(1)
	if err != nil {
		b.Fatal(err)
	}
	defer sched.Close()
	sched.SetJournal(jl)
	j, err := sched.SubmitDurable(farm.JobSpec{Name: "bench", Workers: 1,
		Payload: json.RawMessage(`{}`)}, func(ctx context.Context, j *farm.Job) (any, error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			raw, err := EncodeCheckpoint(cp)
			if err != nil {
				return nil, err
			}
			if err := j.Checkpoint(raw); err != nil {
				return nil, err
			}
		}
		b.StopTimer()
		return nil, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	if _, err := j.Result(); err != nil {
		b.Fatal(err)
	}
}
