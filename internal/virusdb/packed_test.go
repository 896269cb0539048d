package virusdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dstress/internal/bitvec"
	"dstress/internal/seglog"
	"dstress/internal/xrand"
)

// openPayloads reads a store's raw frames without going through the DB.
func openPayloads(t *testing.T, path string) [][]byte {
	t.Helper()
	st, res, err := seglog.Open(path, storeOptions)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return res.Payloads
}

// legacyRecords are records as the previous version wrote them: bit
// chromosomes spelled out in Bits, beside an integer one.
func legacyRecords() []Record {
	rng := xrand.New(8)
	var recs []Record
	for i, n := range []int{64, 130, 24 * 1024 * 8} {
		recs = append(recs, Record{Experiment: fmt.Sprintf("e%d", i%2),
			Bits: bitvec.Random(n, 0.5, rng).BitString(), Fitness: float64(i),
			MeanCE: float64(i), Generation: i, TempC: 55, TREFP: 2.283, VDD: 1.428})
	}
	return append(recs, Record{Experiment: "e0", Ints: []int{3, 1, 4},
		Fitness: 7, TempC: 60})
}

// TestLegacyBitsFramesOpenAndCompactPacked writes a store the way the
// previous version did — one JSON Record per frame, chromosome as a bit
// string — straight through seglog. The new code must read back identical
// records, and Compact must leave only packed frames with the same
// contents.
func TestLegacyBitsFramesOpenAndCompactPacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.db")
	want := legacyRecords()
	st, _, err := seglog.Open(path, storeOptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		p, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(db *DB, stage string) {
		t.Helper()
		for _, exp := range []string{"e0", "e1"} {
			var exact []Record
			for _, r := range want {
				if r.Experiment == exp {
					exact = append(exact, r)
				}
			}
			got := db.Records(exp)
			byFit := map[float64]Record{}
			for _, r := range got {
				byFit[r.Fitness] = r
			}
			if len(got) != len(exact) {
				t.Fatalf("%s: %s holds %d records, want %d", stage, exp, len(got), len(exact))
			}
			for _, r := range exact {
				if !reflect.DeepEqual(byFit[r.Fitness], r) {
					t.Fatalf("%s: record %v did not survive", stage, r.Fitness)
				}
			}
			if page := db.Query(exp, noFloor, 0, 0); !reflect.DeepEqual(page, got) {
				t.Fatalf("%s: Query differs from Records", stage)
			}
		}
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	check(db, "legacy")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	for i, p := range openPayloads(t, path) {
		if bytes.Contains(p, []byte(`"bits"`)) {
			t.Fatalf("frame %d still carries a bit string after Compact", i)
		}
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "compacted")
}

// noFloor is a minimum fitness that filters nothing out.
var noFloor = math.Inf(-1)

func TestAppendStoresPackedFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	v := bitvec.Random(24*1024*8, 0.5, xrand.New(9))
	if err := db.Append(Record{Experiment: "e", Vec: v, Fitness: 1},
		Record{Experiment: "e", Bits: v.BitString(), Fitness: 2}); err != nil {
		t.Fatal(err)
	}
	v.Flip(0) // the store must hold its own copy
	db.Close()
	frames := openPayloads(t, path)
	if len(frames) != 2 {
		t.Fatalf("%d frames", len(frames))
	}
	for i, p := range frames {
		if bytes.Contains(p, []byte(`"bits"`)) || len(p) > 24*1024*8/5 {
			t.Fatalf("frame %d is not packed (%d bytes)", i, len(p))
		}
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	v.Flip(0)
	for _, r := range re.Records("e") {
		if r.Bits != v.BitString() || r.Vec != nil {
			t.Fatalf("record %v did not read back as the appended chromosome", r.Fitness)
		}
	}
}

func TestQueryFiltersSortsAndWindows(t *testing.T) {
	db := tempDB(t)
	defer db.Close()
	fits := []float64{3, 9, 1, 9, 5, 7, 2}
	for i, f := range fits {
		r := rec("e", f)
		r.Generation = i // ties must keep append order
		if err := db.Append(r, rec("other", f+100)); err != nil {
			t.Fatal(err)
		}
	}
	gens := func(recs []Record) string {
		var b strings.Builder
		for _, r := range recs {
			fmt.Fprintf(&b, "%v/%d ", r.Fitness, r.Generation)
		}
		return b.String()
	}
	for _, tc := range []struct {
		min           float64
		offset, limit int
		want          string
	}{
		{noFloor, 0, 0, "9/1 9/3 7/5 5/4 3/0 2/6 1/2 "},
		{5, 0, 0, "9/1 9/3 7/5 5/4 "},
		{noFloor, 2, 3, "7/5 5/4 3/0 "},
		{3, 3, 10, "5/4 3/0 "},
		{noFloor, 7, 0, ""},
		{noFloor, 99, 5, ""},
		{100, 0, 0, ""},
	} {
		got := gens(db.Query("e", tc.min, tc.offset, tc.limit))
		if got != tc.want {
			t.Errorf("Query(min %v, offset %d, limit %d) = %q, want %q",
				tc.min, tc.offset, tc.limit, got, tc.want)
		}
	}
	if got := db.Count("e"); got != len(fits) {
		t.Fatalf("Count = %d, want %d", got, len(fits))
	}
	if got := len(db.TopN("e", 0)); got != 0 {
		t.Fatalf("TopN(0) returned %d records", got)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the frame decoder. It must
// never panic, and an accepted frame must round-trip: re-encoding it and
// decoding again gives the same chromosome, and re-encoding is stable.
func FuzzDecodeFrame(f *testing.F) {
	v := bitvec.Random(130, 0.5, xrand.New(10))
	for _, r := range []Record{
		{Experiment: "e", Vec: v, Fitness: 1.5, TempC: 55},
		{Experiment: "e", Ints: []int{1, 2}, MeanCE: 3},
	} {
		e, err := newEntry(r)
		if err != nil {
			f.Fatal(err)
		}
		p, err := encodeFrame(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	legacy, _ := json.Marshal(Record{Experiment: "e", Bits: "0110", Fitness: 2})
	f.Add(legacy)
	for _, s := range []string{
		`{"experiment":"e","bits":"01x"}`,
		`{"experiment":"e","n":4,"packed":"EAAAAAAAAAA="}`,
		`{"experiment":"e","n":64,"packed":"AQIDBAUGBwg=","bits":"1"}`,
		`{"experiment":"e","n":0,"packed":""}`,
		`{"experiment":"e"}`,
		`{"experiment":"e","ints":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeFrame(data)
		if err != nil {
			return
		}
		p, err := encodeFrame(e)
		if err != nil {
			return // e.g. a fitness JSON cannot carry
		}
		back, err := decodeFrame(p)
		if err != nil {
			t.Fatalf("re-encoded frame %s does not decode: %v", p, err)
		}
		if (back.bits == nil) != (e.bits == nil) ||
			back.bits != nil && !back.bits.Equal(e.bits) {
			t.Fatalf("frame %s: chromosome did not round-trip", data)
		}
		if again, _ := encodeFrame(back); !bytes.Equal(again, p) {
			t.Fatalf("re-encoding is not stable: %s vs %s", again, p)
		}
	})
}
