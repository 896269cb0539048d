package virusdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dstress/internal/bitvec"
	"dstress/internal/seglog"
	"dstress/internal/xrand"
)

// release drops db's store handle without Close, so no snapshot is
// written: the store stays as a killed process would leave it.
func release(db *DB) { db.log.Close() }

// openState is what one open of a store gives: the error, or the index,
// every experiment's records as a read returns them, and how many frames
// the snapshot vouched for.
type openState struct {
	err     error
	dropped int
	exps    map[string][]slot
	recs    map[string][]Record
	scanned int
}

func loadState(t testing.TB, path string, salvage bool) openState {
	t.Helper()
	var db *DB
	var st openState
	if salvage {
		db, st.dropped, st.err = OpenSalvage(path)
	} else {
		db, st.err = Open(path)
	}
	if st.err != nil {
		return st
	}
	defer release(db)
	st.exps, st.scanned, st.recs = db.exps, db.scanned, map[string][]Record{}
	for _, exp := range db.Experiments() {
		recs, err := db.Query(exp, math.Inf(-1), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		st.recs[exp] = recs
	}
	return st
}

// compareOpens opens the store at path as it stands and again with its
// snapshot removed, requires both to give the same error or the same index
// and records, and returns the first. It leaves the snapshot as it was.
func compareOpens(t *testing.T, path string, salvage bool) openState {
	t.Helper()
	idx := filepath.Join(path, snapName)
	saved, serr := os.ReadFile(idx)
	with := loadState(t, path, salvage)
	os.Remove(idx)
	scan := loadState(t, path, salvage)
	if serr == nil {
		if err := os.WriteFile(idx, saved, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if scan.scanned != 0 {
		t.Fatalf("an open without a snapshot scanned %d frames", scan.scanned)
	}
	if (with.err == nil) != (scan.err == nil) {
		t.Fatalf("open with the snapshot: %v; full scan: %v", with.err, scan.err)
	}
	if with.dropped != scan.dropped {
		t.Fatalf("dropped %d with the snapshot, %d by the full scan", with.dropped, scan.dropped)
	}
	if !reflect.DeepEqual(with.exps, scan.exps) {
		t.Fatal("the index differs from the full scan's")
	}
	if !reflect.DeepEqual(with.recs, scan.recs) {
		t.Fatal("the records read differ from the full scan's")
	}
	return with
}

// buildStore writes n random records to a new store through Append and
// closes it, which writes the snapshot.
func buildStore(t *testing.T, path string, seed uint64, n int) {
	t.Helper()
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := randomRecords(xrand.New(seed), n)
	for len(recs) > 0 {
		k := min(len(recs), 37)
		if err := db.Append(recs[:k]...); err != nil {
			t.Fatal(err)
		}
		recs = recs[k:]
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func snapBlocksOf(t *testing.T, path string) []block {
	t.Helper()
	p, err := os.ReadFile(filepath.Join(path, snapName))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := decodeIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

// lastSegment returns the path of the store's final segment.
func lastSegment(t *testing.T, path string) string {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(path, "seg-*.log"))
	if len(segs) == 0 {
		t.Fatal("no segment")
	}
	return segs[len(segs)-1]
}

// rewriteLastFrame changes the final segment's last frame in place with
// edit, which keeps its length, and gives it a valid CRC again.
func rewriteLastFrame(t *testing.T, path string, edit func(payload []byte)) {
	t.Helper()
	seg := lastSegment(t, path)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := data[lastFrameOffset(t, data):]
	edit(frame[8:])
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], crcTable))
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// badTail is a frame with a valid CRC that only a full decode refuses: its
// chromosome has a bit set past its length. A header scan reads it fine.
func badTail(t *testing.T) []byte {
	t.Helper()
	e, err := newEntry(Record{Experiment: refExps[0], Vec: bitvec.New(100), Fitness: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := encodeFrame(e)
	if err != nil {
		t.Fatal(err)
	}
	p[len(p)-1] |= 0x80 // bit 127 of a 100-bit chromosome
	if _, _, ok := headerFields(headerOf(p)); !ok {
		t.Fatal("the header scan declines the damaged frame")
	}
	if _, err := indexFrame(p); err == nil {
		t.Fatal("the damaged frame decodes")
	}
	return p
}

// appendFrame appends a raw payload to the store past virusdb.
func appendFrame(t *testing.T, path string, p []byte) {
	t.Helper()
	st, _, err := seglog.Open(path, storeOptions)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(p); err != nil {
		t.Fatal(err)
	}
	st.Close()
}

// TestIndexSnapshotMatchesFullScan opens stores in every state a snapshot
// can be in against its store — current, behind, rewritten, damaged,
// foreign — and requires each open to give what a full scan gives, reading
// through the snapshot exactly the frames it still vouches for.
func TestIndexSnapshotMatchesFullScan(t *testing.T) {
	for _, shape := range []struct {
		name    string
		n       int
		rotates bool
	}{{"rotating", 300, true}, {"one-segment", 2500, false}} {
		t.Run(shape.name, func(t *testing.T) {
			if shape.rotates {
				smallSegments(t)
			}
			fresh := func(t *testing.T) string {
				path := filepath.Join(t.TempDir(), "viruses.db")
				buildStore(t, path, 7, shape.n)
				return path
			}
			want := func(t *testing.T, st openState, n int) {
				t.Helper()
				if st.err != nil {
					t.Fatal(st.err)
				}
				if st.scanned != n {
					t.Fatalf("%d frames read through the snapshot, want %d", st.scanned, n)
				}
			}
			t.Run("clean close", func(t *testing.T) {
				path := fresh(t)
				want(t, compareOpens(t, path, false), shape.n)
				if blocks := snapBlocksOf(t, path); shape.rotates && len(blocks) < 3 ||
					!shape.rotates && len(blocks) != (shape.n+snapBlock-1)/snapBlock {
					t.Fatalf("%d blocks", len(blocks))
				}
			})
			t.Run("appends after the snapshot without Close", func(t *testing.T) {
				path := fresh(t)
				db, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Append(randomRecords(xrand.New(8), 50)...); err != nil {
					t.Fatal(err)
				}
				release(db)
				want(t, compareOpens(t, path, false), shape.n)
				// A corrupt frame appended after the snapshot is decoded,
				// so a strict open refuses it and salvage drops it.
				appendFrame(t, path, badTail(t))
				if st := compareOpens(t, path, false); st.err == nil {
					t.Fatal("strict open accepted a corrupt frame past the snapshot")
				}
				if st := compareOpens(t, path, true); st.dropped != 1 || st.scanned != shape.n {
					t.Fatalf("salvage dropped %d, read %d through the snapshot", st.dropped, st.scanned)
				}
			})
			t.Run("compact", func(t *testing.T) {
				path := fresh(t)
				db, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Append(randomRecords(xrand.New(9), 20)...); err != nil {
					t.Fatal(err)
				}
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
				release(db)
				want(t, compareOpens(t, path, false), shape.n+20)
			})
			t.Run("salvage rebuild", func(t *testing.T) {
				if !shape.rotates {
					t.Skip("needs a damaged segment before the final one")
				}
				path := fresh(t)
				segs, _ := filepath.Glob(filepath.Join(path, "seg-*.log"))
				data, err := os.ReadFile(segs[0])
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xff
				if err := os.WriteFile(segs[0], data, 0o644); err != nil {
					t.Fatal(err)
				}
				db, dropped, err := OpenSalvage(path)
				if err != nil || dropped == 0 {
					t.Fatalf("salvage: dropped %d, %v", dropped, err)
				}
				release(db)
				// The rebuild moved every frame: the snapshot vouches for none.
				want(t, compareOpens(t, path, false), 0)
			})
			t.Run("torn tail after the snapshot", func(t *testing.T) {
				path := fresh(t)
				// One more record, so the final segment holds a frame to tear.
				db, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Append(rec("e", 1)); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				blocks := snapBlocksOf(t, path)
				seg := lastSegment(t, path)
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(seg, fi.Size()-3); err != nil {
					t.Fatal(err)
				}
				// The last block lost a frame, so none of its frames is vouched.
				want(t, compareOpens(t, path, false), shape.n+1-int(blocks[len(blocks)-1].frames))
			})
			damage := []struct {
				name  string
				edit  func(t *testing.T, path string)
				wantN int
			}{
				{"truncated snapshot", func(t *testing.T, path string) {
					idx := filepath.Join(path, snapName)
					p, _ := os.ReadFile(idx)
					os.WriteFile(idx, p[:len(p)/2], 0o644)
				}, 0},
				{"bit-flipped snapshot", func(t *testing.T, path string) {
					idx := filepath.Join(path, snapName)
					p, _ := os.ReadFile(idx)
					p[len(p)/2] ^= 0x10
					os.WriteFile(idx, p, 0o644)
				}, 0},
				{"leftover temp file", func(t *testing.T, path string) {
					os.WriteFile(filepath.Join(path, ".index-4242"), []byte("junk"), 0o644)
				}, shape.n},
				{"snapshot of another store", func(t *testing.T, path string) {
					other := filepath.Join(t.TempDir(), "other.db")
					buildStore(t, other, 99, shape.n)
					p, err := os.ReadFile(filepath.Join(other, snapName))
					if err != nil {
						t.Fatal(err)
					}
					os.WriteFile(filepath.Join(path, snapName), p, 0o644)
				}, 0},
			}
			for _, d := range damage {
				t.Run(d.name, func(t *testing.T) {
					path := fresh(t)
					d.edit(t, path)
					want(t, compareOpens(t, path, false), d.wantN)
				})
			}
			t.Run("leftover temp file removed", func(t *testing.T) {
				path := fresh(t)
				tmp := filepath.Join(path, ".index-4242")
				os.WriteFile(tmp, []byte("junk"), 0o644)
				db, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				release(db)
				if _, err := os.Stat(tmp); !os.IsNotExist(err) {
					t.Fatal("the snapshot's temp file survived open")
				}
			})
			t.Run("frame rewritten in place", func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "viruses.db")
				buildStore(t, path, 7, shape.n)
				db, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Append(Record{Experiment: "e", Vec: bitvec.New(100), Fitness: 1}); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				blocks := snapBlocksOf(t, path)
				lastBlock := int(blocks[len(blocks)-1].frames)
				// Same length, new fitness, valid CRC: indexed with the new
				// value, and its block is no longer vouched for.
				rewriteLastFrame(t, path, func(p []byte) {
					i := bytes.Index(p, []byte(`"fitness":1,`))
					p[i+len(`"fitness":`)] = '7'
				})
				st := compareOpens(t, path, false)
				want(t, st, shape.n+1-lastBlock)
				if ix := st.exps["e"]; len(ix) != 1 || ix[0].fitness != 7 {
					t.Fatalf("rewritten frame indexed as %+v", ix)
				}
				// A rewrite only a full decode refuses is refused.
				rewriteLastFrame(t, path, func(p []byte) { p[len(p)-1] |= 0x80 })
				if st := compareOpens(t, path, false); st.err == nil {
					t.Fatal("strict open accepted a frame rewritten corrupt")
				}
				if st := compareOpens(t, path, true); st.dropped != 1 {
					t.Fatalf("salvage dropped %d", st.dropped)
				}
			})
		})
	}
}

// TestIndexSnapshotWrittenOnCloseAndCompact checks when the file appears
// and changes: never on Open or Append, on Close and on Compact.
func TestIndexSnapshotWrittenOnCloseAndCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "viruses.db")
	idx := filepath.Join(path, snapName)
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(rec("e", 1), rec("e", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(idx); !os.IsNotExist(err) {
		t.Fatalf("snapshot written before Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(rec("e", 3)); err != nil {
		t.Fatal(err)
	}
	if p, _ := os.ReadFile(idx); !bytes.Equal(p, first) {
		t.Fatal("Open or Append rewrote the snapshot")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if p, _ := os.ReadFile(idx); bytes.Equal(p, first) {
		t.Fatal("Compact left the snapshot behind")
	}
	release(db)
	if st := compareOpens(t, path, false); st.scanned != 3 {
		t.Fatalf("scanned %d after Compact", st.scanned)
	}
}

// TestCloseWaitsForQueryAndAppend races page reads and appends against
// Close (run it with -race): Close waits for the calls in flight, no call
// panics or returns a short page without an error, and after Close every
// call fails.
func TestCloseWaitsForQueryAndAppend(t *testing.T) {
	db := tempDB(t)
	rng := xrand.New(3)
	for i := 0; i < 100; i++ {
		if err := db.Append(Record{Experiment: "e", Vec: bitvec.Random(64, 0.5, rng),
			Fitness: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	const page = 40
	var wg sync.WaitGroup
	var calls sync.WaitGroup // done once each goroutine is well into its loop
	calls.Add(8)
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var once sync.Once
			running := func() { once.Do(calls.Done) }
			defer running()
			for i := 0; ; i++ {
				var err error
				if g%2 == 0 {
					var recs []Record
					recs, err = db.Query("e", math.Inf(-1), 0, page)
					if err == nil && len(recs) != page {
						errs <- fmt.Errorf("short page: %d records", len(recs))
						return
					}
				} else {
					err = db.Append(Record{Experiment: "e", Ints: []int{g, i}, Fitness: float64(i)})
				}
				if i == 5 {
					running()
				}
				if err != nil {
					if !errors.Is(err, errClosed) {
						errs <- err
					}
					return
				}
			}
		}(g)
	}
	calls.Wait() // every goroutine is in its loop
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("e", 0, 0, 1); !errors.Is(err, errClosed) {
		t.Fatalf("Query after Close: %v", err)
	}
	if err := db.Append(rec("e", 1)); !errors.Is(err, errClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if _, err := db.TopN("e", 3); !errors.Is(err, errClosed) {
		t.Fatalf("TopN after Close: %v", err)
	}
	if err := db.Compact(); !errors.Is(err, errClosed) {
		t.Fatalf("Compact after Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Close waited for the appends: every acknowledged record reopens.
	st := compareOpens(t, db.Path(), false)
	if st.scanned != db.Len() {
		t.Fatalf("reopen read %d of %d records through the snapshot", st.scanned, db.Len())
	}
}

// TestHeaderFieldsMatchesJSON pins the header scan against json.Unmarshal
// on the headers encodeFrame writes and on ones it must decline.
func TestHeaderFieldsMatchesJSON(t *testing.T) {
	for _, c := range []struct {
		h  string
		ok bool
	}{
		{`{"experiment":"data64/max-ce/55C","fitness":12.5,"mean_ce":12.5,"ue_frac":0,"generation":3,"temp_c":55,"trefp":2.283,"vdd":1.2}`, true},
		{`{"experiment":"e","ints":[1,-2,30],"fitness":-0,"mean_ce":0,"ue_frac":1e-300,"generation":0,"temp_c":0,"trefp":0,"vdd":0}`, true},
		{`{"experiment":"e","fitness":3,"mean_ce":0,"ue_frac":0,"generation":0,"temp_c":0,"trefp":0}`, false},
		{`{"experiment":"e","fitness":3,"mean_ce":0,"ue_frac":0,"generation":0,"temp_c":0,"trefp":0,"vdd":0,"x":1}`, false},
		{`{"fitness":3,"experiment":"e"}`, false},
		{`{"experiment":"e","fitness":1,"fitness":2}`, false},
		{`{"experiment":"e","fitness":1,"FITNESS":2}`, false},
		{`{"experiment":"e","Experiment":"f","fitness":1}`, false},
		{`{"experiment":"e\u0041","fitness":1}`, false},
		{`{"experiment":"é","fitness":1}`, false},
		{`{"experiment":"e", "fitness":1}`, false},
		{`{"experiment":"e","fitness":null}`, false},
		{`{"experiment":"e","fitness":"1"}`, false},
		{`{"experiment":"e","x":{"fitness":2},"fitness":1}`, false},
		{`{"experiment":"e","x":["a"],"fitness":1}`, false},
		{`{"fitness":1}`, false},
		{`{"experiment":"e","fitness":1,}`, false},
	} {
		exp, fit, ok := headerFields([]byte(c.h))
		if ok != c.ok {
			t.Fatalf("%s: ok %v", c.h, ok)
		}
		if !ok {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(c.h), &r); err != nil {
			t.Fatalf("%s: %v", c.h, err)
		}
		if string(exp) != r.Experiment || math.Float64bits(fit) != math.Float64bits(r.Fitness) {
			t.Fatalf("%s: scan reads (%q, %v), json (%q, %v)", c.h, exp, fit, r.Experiment, r.Fitness)
		}
	}
}

// TestDecodeIndexRefusesHugeCount checks that a block count the file is
// too short for is refused before anything is allocated.
func TestDecodeIndexRefusesHugeCount(t *testing.T) {
	p := append([]byte(snapMagic), 0xff, 0xff, 0xff, 0xff)
	p = binary.LittleEndian.AppendUint32(p, crc32.Checksum(p, crcTable))
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := decodeIndex(p); !errors.Is(err, errIndexLen) {
			t.Fatalf("huge count: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("refusing a huge count allocated %v times", allocs)
	}
}

// FuzzDecodeIndex feeds arbitrary bytes to the snapshot decoder and, as the
// INDEX of a fixed small store, to Open. The decoder must not panic, and
// what it accepts must re-encode byte for byte. Open must give the full
// scan's index and records whatever the file holds, and read nothing
// through a file the decoder refuses.
func FuzzDecodeIndex(f *testing.F) {
	old := storeOptions
	storeOptions.RotateBytes = 2048
	f.Cleanup(func() { storeOptions = old })
	path := filepath.Join(f.TempDir(), "viruses.db")
	db, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := db.Append(randomRecords(xrand.New(12), 60)...); err != nil {
		f.Fatal(err)
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(path, snapName))
	if err != nil {
		f.Fatal(err)
	}
	idx := filepath.Join(path, snapName)
	os.Remove(idx)
	scan := loadState(f, path, false)
	if scan.err != nil {
		f.Fatal(scan.err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte(snapMagic))
	huge := append([]byte(snapMagic), 0xff, 0xff, 0xff, 0x7f)
	f.Add(binary.LittleEndian.AppendUint32(huge, crc32.Checksum(huge, crcTable)))
	f.Add(encodeIndex(nil))
	f.Fuzz(func(t *testing.T, p []byte) {
		blocks, derr := decodeIndex(p)
		if derr == nil && !bytes.Equal(encodeIndex(blocks), p) {
			t.Fatalf("accepted snapshot does not re-encode: %x", p)
		}
		if err := os.WriteFile(idx, p, 0o644); err != nil {
			t.Fatal(err)
		}
		st := loadState(t, path, false)
		if st.err != nil {
			t.Fatalf("open failed where the full scan succeeds: %v", st.err)
		}
		if derr != nil && st.scanned != 0 {
			t.Fatalf("read %d frames through a refused snapshot", st.scanned)
		}
		if !reflect.DeepEqual(st.exps, scan.exps) || !reflect.DeepEqual(st.recs, scan.recs) {
			t.Fatal("open differs from the full scan")
		}
	})
}

// BenchmarkOpen opens data64 stores of 10k, 50k and 200k records, the shape
// a long campaign leaves (50 experiments, 64-bit chromosomes), through the
// index snapshot Close wrote and without it. Both read and CRC-check every
// frame; ns/record is the slope.
func BenchmarkOpen(b *testing.B) {
	for _, n := range []int{10_000, 50_000, 200_000} {
		path := filepath.Join(b.TempDir(), "viruses.db")
		db, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(uint64(n))
		recs := make([]Record, 0, 5000)
		for i := 0; i < n; i++ {
			temp := float64(30 + i%50)
			fit := rng.Float64() * 300
			recs = append(recs, Record{Experiment: fmt.Sprintf("data64/max-ce/%.0fC", temp),
				Vec: bitvec.Random(64, 0.5, rng), Fitness: fit, MeanCE: fit,
				Generation: 1 + rng.Intn(120), TempC: temp, TREFP: 2.283, VDD: 1.428})
			if len(recs) == cap(recs) || i == n-1 {
				if err := db.Append(recs...); err != nil {
					b.Fatal(err)
				}
				recs = recs[:0]
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		snap, err := os.ReadFile(filepath.Join(path, snapName))
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"snapshot", "scan"} {
			b.Run(fmt.Sprintf("records=%d/%s", n, mode), func(b *testing.B) {
				if mode == "scan" {
					os.Remove(filepath.Join(path, snapName))
					defer os.WriteFile(filepath.Join(path, snapName), snap, 0o644)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					db, err := Open(path)
					if err != nil {
						b.Fatal(err)
					}
					if db.Len() != n || mode == "snapshot" && db.scanned != n {
						b.Fatalf("%d records, %d through the snapshot", db.Len(), db.scanned)
					}
					release(db)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
			})
		}
	}
}
