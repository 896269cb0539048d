package virusdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
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
		page, err := db.Query("e", tc.min, tc.offset, tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		got := gens(page)
		if got != tc.want {
			t.Errorf("Query(min %v, offset %d, limit %d) = %q, want %q",
				tc.min, tc.offset, tc.limit, got, tc.want)
		}
	}
	if got := db.Count("e"); got != len(fits) {
		t.Fatalf("Count = %d, want %d", got, len(fits))
	}
	if got, err := db.TopN("e", 0); err != nil || len(got) != 0 {
		t.Fatalf("TopN(0) returned %d records, %v", len(got), err)
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
	// All-JSON bit frames, as builds before the tail layout wrote them (a
	// bit string, or the words base64 in "packed"), and frames with no
	// chromosome are corrupt.
	for _, s := range []string{
		`{"experiment":"e","bits":"0110","fitness":2}`,
		`{"experiment":"e","bits":"01x"}`,
		`{"experiment":"e","n":4,"packed":"EAAAAAAAAAA="}`,
		`{"experiment":"e","n":64,"packed":"AQIDBAUGBwg=","bits":"1"}`,
		`{"experiment":"e","n":0,"packed":""}`,
		`{"experiment":"e"}`,
		`{"experiment":"e","ints":[]}`,
	} {
		if _, err := decodeFrame([]byte(s)); err == nil {
			f.Fatalf("frame %s decodes", s)
		}
		f.Add([]byte(s))
	}
	// Integer frames whose keys a header scan must not misread.
	f.Add([]byte(`{"experiment":"e","fitness":1,"Fitness":2,"ints":[1]}`))
	f.Add([]byte(`{"experiment":"e","ints":[1],"fitness":1,"x":{"fitness":2}}`))
	// Header-plus-tail frames: a whole one, one cut short, bits set past
	// the length, a zero length, and a chromosome both in the header and
	// the tail.
	tailed := func(hdr string, tail ...byte) []byte {
		return append(seglog.AppendHeader(nil, []byte(hdr)), tail...)
	}
	f.Add(tailed(`{"experiment":"e","fitness":2}`, 4, 0x0b, 0, 0, 0, 0, 0, 0, 0))
	f.Add(tailed(`{"experiment":"e"}`, 70, 1, 2, 3))
	f.Add(tailed(`{"experiment":"e"}`, 4, 0x1f, 0, 0, 0, 0, 0, 0, 0))
	f.Add(tailed(`{"experiment":"e"}`, 0))
	f.Add(tailed(`{"experiment":"e","bits":"1"}`, 1, 1, 0, 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeFrame(data)
		rec, ierr := indexFrame(data)
		if (ierr == nil) != (err == nil) {
			t.Fatalf("Open's index and reads disagree on the frame: %v vs %v", ierr, err)
		}
		if err != nil {
			return
		}
		// A frame the snapshot vouches for is indexed by a header scan,
		// which must read what the full decode reads or decline.
		if exp, fit, ok := headerFields(headerOf(data)); ok &&
			(string(exp) != rec.Experiment || math.Float64bits(fit) != math.Float64bits(rec.Fitness)) {
			t.Fatalf("header scan of %q reads (%q, %v), the decode (%q, %v)",
				data, exp, fit, rec.Experiment, rec.Fitness)
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

// TestFrameWriterDigest pins the bytes encodeFrame writes for fixed bit and
// integer records, so that a change to the readers cannot move the layout
// stores are written in.
func TestFrameWriterDigest(t *testing.T) {
	rng := xrand.New(27)
	var recs []Record
	for i, n := range []int{1, 64, 130, 24 * 1024 * 8} {
		recs = append(recs, Record{Experiment: "data24k/max-ce/55C",
			Vec: bitvec.Random(n, 0.5, rng), Fitness: float64(i) + 0.25, MeanCE: 1.5,
			UEFrac: 0.125, Generation: i, TempC: 55, TREFP: 2.283, VDD: 1.428})
	}
	recs = append(recs,
		Record{Experiment: "access/max-ue/60C", Ints: []int{3, 1, 4, 1, 5}, Fitness: 7, TempC: 60},
		Record{Experiment: "e", Bits: "0110", Fitness: -1})
	h := sha256.New()
	for _, r := range recs {
		e, err := newEntry(r)
		if err != nil {
			t.Fatal(err)
		}
		p, err := encodeFrame(e)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	const want = "8241233304e759360ddb3418ce660233f39fe1c1a06740464104d4a906efcd51"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("encodeFrame digest %s, want %s", got, want)
	}
}
