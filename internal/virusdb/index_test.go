package virusdb

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dstress/internal/bitvec"
	"dstress/internal/seglog"
	"dstress/internal/xrand"
)

// smallSegments makes the store rotate every few records for one test.
func smallSegments(t *testing.T) {
	old := storeOptions
	storeOptions.RotateBytes = 4096
	t.Cleanup(func() { storeOptions = old })
}

// refDB is the reference the index is tested against: every record in
// append order, in the form a read returns it, queried by a scan and a
// stable sort.
type refDB []Record

func (ref refDB) query(exp string, minFitness float64, offset, limit int) []Record {
	out := []Record{}
	for _, r := range ref {
		if r.Experiment == exp && r.Fitness >= minFitness {
			out = append(out, r)
		}
	}
	slices.SortStableFunc(out, func(a, b Record) int { return cmp.Compare(b.Fitness, a.Fitness) })
	out = out[min(offset, len(out)):]
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// readForm is r as a read returns it: a bit chromosome spelled out in Bits.
func readForm(r Record) Record {
	if r.Vec != nil {
		r.Bits, r.Vec = r.Vec.BitString(), nil
	}
	return r
}

var refExps = []string{"data64/max-ce/55C", "data24k/max-ce/55C", "access/max-ue/60C"}

// randomRecords draws n records over refExps with few distinct fitnesses,
// so ties are common, and every chromosome form Append takes.
func randomRecords(rng *xrand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		r := Record{Experiment: refExps[rng.Intn(len(refExps))],
			Fitness: float64(rng.Intn(6)) / 2, Generation: i, TempC: 55, VDD: 1.428}
		switch rng.Intn(3) {
		case 0:
			r.Vec = bitvec.Random(1+rng.Intn(300), 0.5, rng)
		case 1:
			r.Bits = bitvec.Random(1+rng.Intn(100), 0.5, rng).BitString()
		default:
			r.Ints = []int{rng.Intn(21), rng.Intn(21), rng.Intn(21)}
		}
		recs[i] = r
	}
	return recs
}

// checkQueries compares Query, Count, Len and Experiments with the
// reference over filters, offsets and limits that cut through ties.
func checkQueries(t *testing.T, db *DB, ref refDB, stage string) {
	t.Helper()
	if db.Len() != len(ref) {
		t.Fatalf("%s: Len %d, want %d", stage, db.Len(), len(ref))
	}
	var exps []string
	for _, exp := range refExps {
		want := ref.query(exp, math.Inf(-1), 0, 0)
		if db.Count(exp) != len(want) {
			t.Fatalf("%s: Count(%s) = %d, want %d", stage, exp, db.Count(exp), len(want))
		}
		if len(want) > 0 {
			exps = append(exps, exp)
		}
		for _, minFit := range []float64{math.Inf(-1), 0, 1, 1.25, 2.5, 99, math.NaN()} {
			for _, offset := range []int{0, 1, 3, 17, 1000} {
				for _, limit := range []int{0, 1, 4, 10} {
					got, err := db.Query(exp, minFit, offset, limit)
					if err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					if want := ref.query(exp, minFit, offset, limit); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Query(%s, %v, %d, %d): %d records differ from the reference's %d",
							stage, exp, minFit, offset, limit, len(got), len(want))
					}
				}
			}
		}
	}
	sort.Strings(exps)
	if got := db.Experiments(); !slices.Equal(got, exps) {
		t.Fatalf("%s: Experiments %v, want %v", stage, got, exps)
	}
}

// TestCompactQueryMatchesReference drives one store through frames written
// straight through seglog, appends across segment rotation, reopen,
// Compact, salvage-open and reopen again, checking every read against the
// scan-and-sort reference at each stage.
func TestCompactQueryMatchesReference(t *testing.T) {
	smallSegments(t)
	rng := xrand.New(19)
	path := filepath.Join(t.TempDir(), "viruses.db")

	// Frames written by another handle on the store, then indexed by Open.
	var ref refDB
	st, _, err := seglog.Open(path, storeOptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range randomRecords(rng, 40) {
		e, err := newEntry(r)
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
		ref = append(ref, readForm(r))
	}
	st.Close()

	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, db, ref, "written")
	appendBatches := func(n int) {
		recs := randomRecords(rng, n)
		for len(recs) > 0 {
			k := min(len(recs), 1+rng.Intn(7))
			if err := db.Append(recs[:k]...); err != nil {
				t.Fatal(err)
			}
			for _, r := range recs[:k] {
				ref = append(ref, readForm(r))
			}
			recs = recs[k:]
		}
	}
	appendBatches(150)
	checkQueries(t, db, ref, "appended")
	db.Close()

	reopen := func(stage string) {
		t.Helper()
		var err error
		if db, err = Open(path); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		checkQueries(t, db, ref, stage)
	}
	reopen("reopened")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	checkQueries(t, db, ref, "compacted")
	appendBatches(60)
	checkQueries(t, db, ref, "appended after compaction")
	db.Close()
	reopen("reopened after compaction")

	// Damage the last frame of the first segment: salvage keeps the
	// records before it, a prefix of the append order.
	appendBatches(60)
	db.Close()
	segs, _ := filepath.Glob(filepath.Join(path, "seg-*.log"))
	sort.Strings(segs)
	if len(segs) < 2 {
		t.Fatalf("%d segments; the store never rotated", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	db, dropped, err := OpenSalvage(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 || db.Len() >= len(ref) {
		t.Fatalf("salvage kept %d of %d, dropped %d", db.Len(), len(ref), dropped)
	}
	ref = ref[:db.Len()]
	checkQueries(t, db, ref, "salvaged")
	appendBatches(20)
	checkQueries(t, db, ref, "appended after salvage")
	db.Close()
	reopen("reopened after salvage")
	db.Close()
}

// TestCorruptFrameAfterOpenIsAnError damages frames on disk under an open
// database. Every read either fails or returns exactly the records that
// were appended — never other bits — and reads that miss the damage work.
func TestCorruptFrameAfterOpenIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "viruses.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := xrand.New(5)
	var ref refDB
	for i := 0; i < 8; i++ {
		r := Record{Experiment: "e", Vec: bitvec.Random(256, 0.5, rng), Fitness: float64(i)}
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, readForm(r))
	}
	segs, _ := filepath.Glob(filepath.Join(path, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("%d segments", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the strongest record's frame (the last appended) with one
	// chromosome bit changed and its header CRC recomputed, so only the
	// CRC the database recorded can tell.
	frame := data[lastFrameOffset(t, data):]
	payload := frame[8:]
	payload[len(payload)-1] ^= 0x01 // bit 248 of the chromosome: still a valid frame
	if _, err := decodeFrame(payload); err != nil {
		t.Fatalf("damaged frame no longer decodes: %v", err)
	}
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ offset, limit int }{{0, 1}, {0, 0}, {1, 3}, {0, 10}} {
		got, err := db.Query("e", math.Inf(-1), q.offset, q.limit)
		want := ref.query("e", math.Inf(-1), q.offset, q.limit)
		if q.offset == 0 {
			if err == nil || !errors.Is(err, seglog.ErrCorrupt) {
				t.Fatalf("page %+v over the damaged frame: %d records, err %v", q, len(got), err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("page %+v missing the damage: err %v", q, err)
		}
	}
	if _, _, err := db.Best("e"); err == nil {
		t.Fatal("Best read the damaged frame")
	}
	if db.Records("e") != nil {
		t.Fatal("Records returned records over a damaged frame")
	}
	if err := db.Compact(); err == nil {
		t.Fatal("Compact rewrote a damaged frame")
	}
}

// lastFrameOffset walks a segment's frames and returns the last one's.
func lastFrameOffset(t *testing.T, seg []byte) int {
	t.Helper()
	off := bytes.IndexByte(seg, '\n') + 1
	last := -1
	for off < len(seg) {
		last = off
		off += 8 + int(binary.LittleEndian.Uint32(seg[off:]))
	}
	if last < 0 {
		t.Fatal("segment holds no frame")
	}
	return last
}

// TestConcurrentAppendQueryCompact runs appends, page reads and
// compactions at once (the store-test target runs it under -race). Every
// page must be ordered and hold only records that were appended; at the
// end the database holds every record, and a reopen pages identically.
func TestConcurrentAppendQueryCompact(t *testing.T) {
	smallSegments(t)
	path := filepath.Join(t.TempDir(), "viruses.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 3, 40
	// Every chromosome spells its writer and index, so a read can tell a
	// record's bits belong to it.
	mk := func(w, i int) Record {
		return Record{Experiment: refExps[i%2], Vec: bitvec.FromUint64(uint64(w)<<32 | uint64(i)),
			Fitness: float64(i % 5), Generation: w*each + i}
	}
	check := func(page []Record) error {
		for k, r := range page {
			w, i := r.Generation/each, r.Generation%each
			if want := readForm(mk(w, i)); !reflect.DeepEqual(r, want) {
				return fmt.Errorf("record %d read back as %+v", r.Generation, r)
			}
			if k > 0 && page[k-1].Fitness < r.Fitness {
				return fmt.Errorf("page out of order at %d", k)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i += 2 {
				if err := db.Append(mk(w, i), mk(w, i+1)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for q := 0; q < 2; q++ {
		readers.Add(1)
		go func(q int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				page, err := db.Query(refExps[q], 1, q, 6)
				if err == nil {
					err = check(page)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(q)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := db.Compact(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.Len() != writers*each {
		t.Fatalf("Len %d, want %d", db.Len(), writers*each)
	}
	var before [][]Record
	for _, exp := range refExps[:2] {
		page, err := db.Query(exp, math.Inf(-1), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(page); err != nil {
			t.Fatal(err)
		}
		before = append(before, page)
	}
	db.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, exp := range refExps[:2] {
		page, err := re.Query(exp, math.Inf(-1), 0, 0)
		if err != nil || !reflect.DeepEqual(page, before[k]) {
			t.Fatalf("%s pages differently after a reopen (%v)", exp, err)
		}
	}
}
