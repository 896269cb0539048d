package virusdb

import (
	"bytes"
	"encoding/json"
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

// writeLegacy writes records in the pre-seglog single-file format: one
// indented JSON array, exactly what the old save() produced.
func writeLegacy(t *testing.T, path string, recs []Record) []byte {
	t.Helper()
	data, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
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
	best, ok := db.Best("e")
	if !ok || best.Fitness != 50 {
		t.Fatalf("best = %+v ok=%v", best, ok)
	}
	top := db.TopN("e", 2)
	if len(top) != 2 || top[0].Fitness != 50 || top[1].Fitness != 40 {
		t.Fatalf("top2 = %+v", top)
	}
	if _, ok := db.Best("nope"); ok {
		t.Fatal("best of missing experiment")
	}
	if got := db.TopN("e", 100); len(got) != 4 {
		t.Fatalf("TopN overflow returned %d", len(got))
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
	// The rejected legacy file is left exactly where it was.
	if fi, err := os.Stat(path); err != nil || fi.IsDir() {
		t.Fatal("rejected legacy file was disturbed")
	}
}

// writeTruncatedLegacy writes a legacy-format database with n records and
// chops the file after frac of its bytes, simulating a crash mid-write of a
// non-atomic writer. exp names the experiments (cycled over two suffixes).
func writeTruncatedLegacy(t *testing.T, n int, frac float64, exp func(i int) string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trunc.json")
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, rec(exp(i), float64(i)))
	}
	data := writeLegacy(t, path, recs)
	cut := int(float64(len(data)) * frac)
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenSalvageTruncatedLegacy(t *testing.T) {
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		path := writeTruncatedLegacy(t, 8, frac,
			func(i int) string { return fmt.Sprintf("e%d", i%2) })
		if _, err := Open(path); err == nil {
			t.Fatalf("frac %.1f: Open accepted a truncated file", frac)
		}
		db, dropped, err := OpenSalvage(path)
		if err != nil {
			t.Fatalf("frac %.1f: salvage failed: %v", frac, err)
		}
		// dropped counts only what is visible in the truncated bytes, so
		// salvaged+dropped is at most the original count and at least one
		// trailing record must have been lost to the cut.
		if db.Len() == 0 || db.Len() >= 8 {
			t.Fatalf("frac %.1f: salvaged %d of 8", frac, db.Len())
		}
		if dropped < 1 || db.Len()+dropped > 8 {
			t.Fatalf("frac %.1f: salvaged %d, dropped %d", frac,
				db.Len(), dropped)
		}
		// The salvaged prefix must be the original records, in order, and
		// the database must be fully usable: append and reload cleanly.
		for i, r := range db.Records("e0") {
			if r.Fitness != float64(2*(len(db.Records("e0"))-1-i)) &&
				r.Experiment != "e0" {
				t.Fatalf("frac %.1f: wrong salvaged record %+v", frac, r)
			}
		}
		if err := db.Append(rec("after", 99)); err != nil {
			t.Fatalf("frac %.1f: append after salvage: %v", frac, err)
		}
		db.Close()
		re, err := Open(path)
		if err != nil {
			t.Fatalf("frac %.1f: reload after salvage: %v", frac, err)
		}
		if best, ok := re.Best("after"); !ok || best.Fitness != 99 {
			t.Fatalf("frac %.1f: repaired file lost the new record", frac)
		}
	}
}

// TestSalvageCountSelfNamedExperiment pins the dropped-count fix: an
// experiment literally named "experiment" serializes its value as the same
// bytes as the key, which the old substring estimate counted as a second
// record. Tokenizing counts each array element once.
func TestSalvageCountSelfNamedExperiment(t *testing.T) {
	path := writeTruncatedLegacy(t, 4, 0.6,
		func(i int) string { return "experiment" })
	db, dropped, err := OpenSalvage(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 || db.Len() >= 4 {
		t.Fatalf("salvaged %d of 4", db.Len())
	}
	if dropped < 1 || db.Len()+dropped > 4 {
		t.Fatalf("salvaged %d, dropped %d: count inflated by the "+
			"experiment name", db.Len(), dropped)
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
		p, err := json.Marshal(rec("e", float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(p); err != nil {
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

// TestMigrationLosslessIdempotent: opening a legacy JSON-array database
// converts it to the segmented store with every record intact, keeps the
// original bytes at <path>.legacy, and re-opening converges (no re-migration,
// no duplication).
func TestMigrationLosslessIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "viruses.json")
	recs := []Record{rec("a", 1), rec("b", 2), rec("a", 3)}
	original := writeLegacy(t, path, recs)

	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("migrated %d of 3 records", db.Len())
	}
	if got := db.Records("a"); len(got) != 2 || got[0].Fitness != 3 {
		t.Fatalf("migrated records wrong: %+v", got)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatal("path is not a store directory after migration")
	}
	bak, err := os.ReadFile(path + ".legacy")
	if err != nil || !bytes.Equal(bak, original) {
		t.Fatalf("legacy bytes not preserved: err=%v", err)
	}
	if err := db.Append(rec("c", 9)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	for i := 0; i < 2; i++ { // idempotent across repeated opens
		re, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if re.Len() != 4 {
			t.Fatalf("reopen %d: %d records, want 4", i, re.Len())
		}
		re.Close()
	}
}

func TestMigrationEmptyLegacyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 0 {
		t.Fatalf("empty legacy file produced %d records", db.Len())
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
