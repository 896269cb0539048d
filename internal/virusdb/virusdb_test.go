package virusdb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dstress/internal/bitvec"
	"dstress/internal/seglog"
)

func tempDB(t *testing.T) *DB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "viruses.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func rec(exp string, fitness float64) Record {
	return Record{Experiment: exp, Bits: "1100", Fitness: fitness,
		MeanCE: fitness, TempC: 55, TREFP: 2.283, VDD: 1.428}
}

func TestOpenMissingFile(t *testing.T) {
	db := tempDB(t)
	if db.Len() != 0 {
		t.Fatal("new database not empty")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestAppendAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(rec("e1", 10), rec("e1", 30), rec("e2", 5)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 3 {
		t.Fatalf("reloaded %d records", re.Len())
	}
	recs := re.Records("e1")
	if len(recs) != 2 || recs[0].Fitness != 30 {
		t.Fatalf("records wrong: %+v", recs)
	}
}

func TestRecordValidation(t *testing.T) {
	db := tempDB(t)
	bad := []Record{
		{Experiment: "", Bits: "1"},
		{Experiment: "e"},
		{Experiment: "e", Bits: "10", Ints: []int{1}},
		{Experiment: "e", Bits: "10x"},
		// Regression: a non-nil but empty Ints slice is not a chromosome —
		// such a record can never seed a resumed search.
		{Experiment: "e", Ints: []int{}},
		{Experiment: "e", Vec: bitvec.MustParse("1010"), Bits: "1010"},
		{Experiment: "e", Vec: bitvec.MustParse("1010"), Ints: []int{1}},
		{Experiment: "e", Vec: bitvec.New(0)},
	}
	for i, r := range bad {
		if err := db.Append(r); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	if db.Len() != 0 {
		t.Fatal("bad records stored")
	}
}

func TestBestAndTopN(t *testing.T) {
	db := tempDB(t)
	for _, f := range []float64{5, 50, 20, 40} {
		if err := db.Append(rec("e", f)); err != nil {
			t.Fatal(err)
		}
	}
	best, ok, err := db.Best("e")
	if err != nil || !ok || best.Fitness != 50 {
		t.Fatalf("best = %+v ok=%v err=%v", best, ok, err)
	}
	top, err := db.TopN("e", 2)
	if err != nil || len(top) != 2 || top[0].Fitness != 50 || top[1].Fitness != 40 {
		t.Fatalf("top2 = %+v, %v", top, err)
	}
	if _, ok, err := db.Best("nope"); ok || err != nil {
		t.Fatalf("best of missing experiment: ok=%v err=%v", ok, err)
	}
	if got, err := db.TopN("e", 100); err != nil || len(got) != 4 {
		t.Fatalf("TopN overflow returned %d, %v", len(got), err)
	}
}

func TestExperiments(t *testing.T) {
	db := tempDB(t)
	if err := db.Append(rec("zeta", 1), rec("alpha", 2), rec("zeta", 3)); err != nil {
		t.Fatal(err)
	}
	exps := db.Experiments()
	if len(exps) != 2 || exps[0] != "alpha" || exps[1] != "zeta" {
		t.Fatalf("experiments = %v", exps)
	}
}

func TestIntChromosomeRecord(t *testing.T) {
	db := tempDB(t)
	r := Record{Experiment: "acc", Ints: []int{1, 2, 3}, Fitness: 7}
	if err := db.Append(r); err != nil {
		t.Fatal(err)
	}
	got := db.Records("acc")
	if len(got) != 1 || len(got[0].Ints) != 3 {
		t.Fatalf("ints record wrong: %+v", got)
	}
}

func TestCorruptFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corrupt database accepted")
	}
	// The rejected file is left exactly where it was.
	if fi, err := os.Stat(path); err != nil || fi.IsDir() {
		t.Fatal("rejected file was disturbed")
	}
}

func TestOpenSalvageIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(rec("e", 1), rec("e", 2)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	re, dropped, err := OpenSalvage(path)
	if err != nil || dropped != 0 || re.Len() != 2 {
		t.Fatalf("intact salvage: len=%d dropped=%d err=%v",
			re.Len(), dropped, err)
	}
}

// TestSalvageStoreThenAppendDurable mirrors dstressd's fallback path: a
// damaged store is opened with OpenSalvage and then appended to for the
// daemon's whole lifetime. Every record appended after the salvage must
// survive the next open — the salvage rebuilds the store rather than leaving
// the writer pointed into a segment replay would skip.
func TestSalvageStoreThenAppendDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	st, _, err := seglog.Open(path, seglog.Options{SyncEvery: 1, RotateBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		e, err := newEntry(rec("e", float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := encodeFrame(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// Flip a payload byte in the first (non-final) segment; ReadDir returns
	// names sorted, which for seg-NNNNNNNNN.log is segment order.
	var segNames []string
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segNames = append(segNames, e.Name())
		}
	}
	if len(segNames) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(segNames))
	}
	first := filepath.Join(path, segNames[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(path); err == nil {
		t.Fatal("strict open accepted a damaged store")
	}
	db, dropped, err := OpenSalvage(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 || db.Len() == 0 || db.Len() >= 40 {
		t.Fatalf("salvaged %d of 40, dropped %d", db.Len(), dropped)
	}
	salvaged := db.Len()
	if err := db.Append(rec("after", 1)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// The salvage compacted the damage away, so a strict open succeeds and
	// must hold both the salvaged prefix and the post-salvage append.
	re, err := Open(path)
	if err != nil {
		t.Fatalf("strict reopen after salvage: %v", err)
	}
	defer re.Close()
	if re.Len() != salvaged+1 {
		t.Fatalf("reopened %d records, want %d", re.Len(), salvaged+1)
	}
	if len(re.Records("after")) != 1 {
		t.Fatal("record appended after salvage was lost on reopen")
	}
}

func TestOpenSalvageHopeless(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.json")
	if err := os.WriteFile(path, []byte("{not an array"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSalvage(path); err == nil {
		t.Fatal("salvage invented records from junk")
	}
}

func TestCompactReclaims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Append(rec("e", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(rec("e", 99)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 51 {
		t.Fatalf("compacted database reloaded %d of 51", re.Len())
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				exp := fmt.Sprintf("job%d", w)
				if err := db.Append(rec(exp, float64(i))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != writers*each {
		t.Fatalf("stored %d of %d records", db.Len(), writers*each)
	}
	db.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != writers*each {
		t.Fatalf("reloaded %d of %d records", re.Len(), writers*each)
	}
	if got := len(re.Experiments()); got != writers {
		t.Fatalf("%d experiments on reload", got)
	}
}

func TestStoreLeavesNoStrayFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(rec("e", 1)); err != nil {
		t.Fatal(err)
	}
	// The parent holds exactly the store directory; the store holds exactly
	// the manifest and its segments.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Fatalf("parent directory has %d entries", len(entries))
	}
	inner, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range inner {
		if e.Name() != "MANIFEST" && !strings.HasPrefix(e.Name(), "seg-") {
			t.Fatalf("stray file %s in store", e.Name())
		}
	}
}
