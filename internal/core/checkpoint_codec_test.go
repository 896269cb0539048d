package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/ga"
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

// TestCheckpointCodecRoundTrip: EncodeCheckpoint and DecodeCheckpoint
// round-trip a search's checkpoint exactly, the tail holds exactly the
// packed words and the header none of them, and a tail cut short or run
// long is an error, as is the all-JSON form journals held before the tail
// layout. A checkpoint without bit genomes round-trips as plain JSON.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	cps := searchCheckpoints(t, resumeConfig(2))
	cp := cps[len(cps)-1]
	enc, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	words := 0
	if err := cp.eachGenome(func(r *ga.GenomeRecord) error {
		words += len(r.Packed)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if words == 0 {
		t.Fatal("checkpoint holds no packed genome")
	}
	got, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatal("decoded checkpoint differs from the encoded one")
	}
	if again, err := EncodeCheckpoint(got); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding is not stable (%v)", err)
	}
	js, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(js)-words/4 {
		t.Fatalf("%d encoded bytes against %d of JSON; the words are not raw",
			len(enc), len(js))
	}
	for label, bad := range map[string][]byte{
		"all JSON":            js,
		"truncated by a byte": enc[:len(enc)-1],
		"truncated by a word": enc[:len(enc)-8],
		"overlong by a byte":  append(bytes.Clone(enc), 0),
		"overlong by a word":  append(bytes.Clone(enc), make([]byte, 8)...),
	} {
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Fatalf("%s tail accepted", label)
		}
	}
	in, _ := ga.NewIntGenome([]int{1, 5}, 0, 9)
	rec, err := ga.EncodeGenome(in)
	if err != nil {
		t.Fatal(err)
	}
	ints := &Checkpoint{Experiment: "access/max-ue/60C", Workers: 1,
		Engine: ga.Snapshot{Generation: 1, Population: []ga.GenomeRecord{rec}, Fitnesses: []float64{1}}}
	enc, err = EncodeCheckpoint(ints)
	if err != nil || !json.Valid(enc) {
		t.Fatalf("integer checkpoint is not plain JSON (%v)", err)
	}
	if got, err := DecodeCheckpoint(enc); err != nil || !reflect.DeepEqual(got, ints) {
		t.Fatalf("integer checkpoint does not round-trip (%v)", err)
	}
}

// TestCheckpointCodecResumes kills a search, carries its checkpoint through
// the codec, and requires the resumed search to finish bit-identical to the
// uninterrupted one.
func TestCheckpointCodecResumes(t *testing.T) {
	cfg := resumeConfig(2)
	want, err := resumeFramework(t).RunSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back := killAt(t, cfg, 3)
	got, err := resumeFramework(t).RunSearchFrom(context.Background(), resumeConfig(2), back)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "classic", got, want)
}

// fuzzCheckpoint is a small checkpoint of every record kind: packed bit
// genomes of several lengths, int and mixed genomes.
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
	return &Checkpoint{
		Experiment: "data64/max-ce/55C", Workers: 2, NoiseRNG: [4]uint64{9, 8, 7, 6},
		Params: ga.DefaultParams(),
		Engine: ga.Snapshot{Generation: 1, RNG: [4]uint64{1, 2, 3, 4}, Evaluations: 6,
			Population: []ga.GenomeRecord{
				rec(ga.RandomBitGenome(70, rng)), rec(ga.RandomBitGenome(64, rng)),
				rec(ga.RandomBitGenome(4, rng)), rec(in), rec(mixed)},
			Fitnesses: []float64{5, 4, 3, 2, 1},
			History:   []ga.GenStats{{Generation: 1, Best: 5, Mean: 3}}},
	}
}

// Checkpoints of the island model earlier builds ran, as those builds wrote
// them: one with bit genomes, so the words ride in the tail, and one with
// integer genomes, which is plain JSON. Their engine is empty; decoded
// without the "islands" key they would resume as an empty search.
const (
	islandCheckpointBits = "\x01\x89\x06{\"experiment\":\"data64/max-ce/55C\",\"params\":{\"PopulationSize\":40,\"CrossoverProb\":0.9,\"MutationProb\":0.5,\"MutationPerGene\":0,\"ElitismCount\":2,\"ConvergenceSim\":0.85,\"ConvergeMinBest\":0,\"UseConvergeMinBest\":false,\"MaxGenerations\":200,\"MaxDuration\":0},\"point\":{\"TREFP\":2.283,\"VDD\":1.428,\"TempC\":55},\"workers\":2,\"noise_rng\":[0,0,0,0],\"engine\":{\"generation\":0,\"population\":null,\"fitnesses\":null,\"rng\":[0,0,0,0],\"evaluations\":0},\"islands\":{\"config\":{\"count\":1,\"migrate_every\":5,\"migrate_count\":2,\"surrogate\":{}},\"generation\":2,\"migrations\":0,\"screened\":0,\"islands\":[{\"generation\":2,\"population\":[{\"type\":\"bit\",\"n\":64},{\"type\":\"bit\",\"n\":64}],\"fitnesses\":[2,1],\"rng\":[1,2,3,4],\"evaluations\":4,\"history\":[{\"Generation\":2,\"Best\":2,\"Mean\":1.5,\"Similarity\":0}]}]},\"island_noise\":[[1,1,1,1]]}i\xcfT\xcaxQ\xd5I\xdc$&MZ\x11\"\x9a"
	islandCheckpointInts = `{"experiment":"access-coeffs/max-ce/55C","params":{"PopulationSize":2,"CrossoverProb":0.9,"MutationProb":0.5,"MutationPerGene":0,"ElitismCount":2,"ConvergenceSim":0.85,"ConvergeMinBest":0,"UseConvergeMinBest":false,"MaxGenerations":200,"MaxDuration":0},"point":{"TREFP":2.283,"VDD":1.428,"TempC":55},"workers":2,"noise_rng":[0,0,0,0],"engine":{"generation":0,"population":null,"fitnesses":null,"rng":[0,0,0,0],"evaluations":0},"islands":{"config":{"count":1,"migrate_every":5,"migrate_count":2,"surrogate":{}},"generation":2,"migrations":0,"screened":0,"islands":[{"generation":2,"population":[{"type":"int","vals":[1,5,9],"lo":[0],"hi":[9]},{"type":"int","vals":[2,0,7],"lo":[0],"hi":[9]}],"fitnesses":[2,1],"rng":[1,2,3,4],"evaluations":4,"history":[{"Generation":2,"Best":2,"Mean":1.5,"Similarity":0}]}]},"island_noise":[[1,1,1,1]]}`
)

// TestDecodeCheckpointRefusesIslands: a checkpoint an earlier build wrote
// for an island-model search is an error naming the key, never an empty
// single-population search; so is any other key this build does not know,
// and data after the header's JSON value.
func TestDecodeCheckpointRefusesIslands(t *testing.T) {
	for name, data := range map[string]string{
		"island bits": islandCheckpointBits,
		"island ints": islandCheckpointInts,
	} {
		_, err := DecodeCheckpoint([]byte(data))
		if err == nil || !strings.Contains(err.Error(), `"islands"`) {
			t.Errorf("%s: DecodeCheckpoint error %v, want one naming \"islands\"", name, err)
		}
	}
	enc, err := EncodeCheckpoint(&Checkpoint{Experiment: "e", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(enc); err != nil {
		t.Fatalf("a known checkpoint does not decode: %v", err)
	}
	typo := bytes.Replace(enc, []byte(`"workers"`), []byte(`"wokers"`), 1)
	if _, err := DecodeCheckpoint(typo); err == nil {
		t.Fatal("a checkpoint with an unknown key decodes")
	}
	if _, err := DecodeCheckpoint(append(bytes.Clone(enc), ` {}`...)); err == nil {
		t.Fatal("a checkpoint with a second JSON value decodes")
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
	if _, err := DecodeCheckpoint(js); err == nil {
		f.Fatal("the all-JSON checkpoint decodes")
	}
	for _, bad := range []string{islandCheckpointBits, islandCheckpointInts} {
		if _, err := DecodeCheckpoint([]byte(bad)); err == nil {
			f.Fatal("an island checkpoint decodes")
		}
	}
	f.Add(enc)
	f.Add(js)
	f.Add([]byte(islandCheckpointBits))
	f.Add(enc[:len(enc)-3])
	f.Add(append(bytes.Clone(enc), 1, 2))
	f.Add([]byte(`{"experiment":"e","engine":{"population":[{"type":"bit","n":3,"packed":"BQAAAAAAAAA="}]}}`))
	f.Add([]byte("\x01\x02{}\x00"))
	f.Add([]byte(islandCheckpointInts))
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

// TestCheckpointWriterDigest pins the bytes EncodeCheckpoint writes for a
// fixed checkpoint of bit genomes and for one of integer genomes, so that
// a change to the decoder cannot move the layout journals hold.
func TestCheckpointWriterDigest(t *testing.T) {
	rng := xrand.New(29)
	rec := func(g ga.Genome) ga.GenomeRecord {
		r, err := ga.EncodeGenome(g)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	snap := func(gs ...ga.Genome) ga.Snapshot {
		s := ga.Snapshot{Generation: 3, RNG: [4]uint64{1, 2, 3, 4}, Evaluations: 12,
			History: []ga.GenStats{{Generation: 3, Best: 2, Mean: 1.5}}}
		for i, g := range gs {
			s.Population = append(s.Population, rec(g))
			s.Fitnesses = append(s.Fitnesses, float64(len(gs)-i))
		}
		return s
	}
	bits := func(n int) ga.Genome { return ga.RandomBitGenome(n, rng) }
	in1, _ := ga.NewIntGenome([]int{1, 5, 9}, 0, 9)
	in2, _ := ga.NewIntGenome([]int{2, 0, 7}, 0, 9)
	mixed, _ := ga.NewMixedGenome([]int{2, 3}, []int{0, 1}, []int{4, 5})
	bitCP := &Checkpoint{Experiment: "data24k/max-ce/55C", Params: ga.DefaultParams(),
		Point: Relaxed(55), Determinism: dram.DeterminismV2, Workers: 2,
		NoiseRNG: [4]uint64{9, 8, 7, 6}, Engine: snap(bits(24*1024*8), bits(24*1024*8), bits(24*1024*8))}
	intCP := &Checkpoint{Experiment: "access/max-ue/60C", Params: ga.DefaultParams(),
		Point: Relaxed(60), Workers: 1, Engine: snap(in1, in2, mixed)}
	for _, c := range []struct {
		name string
		cp   *Checkpoint
		want string
	}{
		{"bit", bitCP, "4fe9b1f0b662a6e815e976bd77248af4f0efb4737925401dea78830e955d7bbb"},
		{"int", intCP, "81409e3c0fdd2705cae8f2edace05512204393de9b874920b196a16ad26ec072"},
	} {
		enc, err := EncodeCheckpoint(c.cp)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s checkpoint: EncodeCheckpoint digest %s, want %s", c.name, got, c.want)
		}
	}
}
