package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

type payload struct {
	Gen  int       `json:"gen"`
	Best float64   `json:"best"`
	RNG  [4]uint64 `json:"rng"`
}

// recLine spells one record line the way earlier builds wrote it.
func recLine(seq uint64, p payload) string {
	data, err := json.Marshal(p)
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("rec %d %08x %s\n", seq, crc32.Checksum(data, crcTable), data)
}

// file spells a whole checkpoint file: the header, then one record per
// payload with sequence numbers from 1.
func file(ps ...payload) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s v%d\n", Magic, Version)
	for i, p := range ps {
		sb.WriteString(recLine(uint64(i+1), p))
	}
	return sb.String()
}

func load(t *testing.T, data string) (payload, LoadResult) {
	t.Helper()
	res, err := LoadBytes([]byte(data), "search.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := json.Unmarshal(res.Payload, &got); err != nil {
		t.Fatal(err)
	}
	return got, res
}

func TestLoadReturnsNewestRecord(t *testing.T) {
	// Full-range uint64 words must survive: the RNG state exceeds 2^53.
	want := payload{Gen: 7, Best: 42.5, RNG: [4]uint64{^uint64(0), 1, 2, 3}}
	got, res := load(t, file(payload{Gen: 6, Best: 40}, want))
	if got != want {
		t.Fatalf("loaded %+v, want %+v", got, want)
	}
	if res.Seq != 2 || res.Salvaged != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestLoadSalvagesPartialFinalRecord(t *testing.T) {
	// Cut the final record mid-payload, as a crash during a non-atomic
	// write would.
	data := file(payload{Gen: 1}, payload{Gen: 2})
	got, res := load(t, data[:len(data)-9])
	if got.Gen != 1 {
		t.Fatalf("salvage returned gen %d, want the intact predecessor 1", got.Gen)
	}
	if res.Salvaged == 0 {
		t.Fatal("salvage not reported")
	}
}

func TestLoadTruncatedToHeaderFailsLoudly(t *testing.T) {
	data := file(payload{Gen: 1})
	// Keep only the header line: every record is gone.
	head := data[:strings.Index(data, "\n")+1]
	if _, err := LoadBytes([]byte(head), "search.ckpt"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("err = %v, want ErrNoRecord", err)
	}
	// Truncated to nothing at all.
	if _, err := LoadBytes(nil, "search.ckpt"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("empty file: err = %v, want ErrNoRecord", err)
	}
}

func TestLoadWrongVersionAndForeignFiles(t *testing.T) {
	future := []byte("dstress-checkpoint v99\nrec 1 00000000 {}\n")
	if _, err := LoadBytes(future, "search.ckpt"); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}
	foreign := []byte("totally a json file\n")
	if _, err := LoadBytes(foreign, "search.ckpt"); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("foreign file: err = %v, want ErrBadHeader", err)
	}
}

func TestLoadRejectsBitrotChecksum(t *testing.T) {
	data := file(payload{Gen: 9, Best: 1})
	// Flip one payload byte without touching the structure.
	flipped := strings.Replace(data, `"gen":9`, `"gen":8`, 1)
	if flipped == data {
		t.Fatal("test setup: payload not found")
	}
	if _, err := LoadBytes([]byte(flipped), "search.ckpt"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("bitrot record loaded: err = %v", err)
	}
}

func TestLoadStopsAtFirstDamagedLine(t *testing.T) {
	// Records after a damaged line must not be trusted, even if they look
	// intact: they may be newer state the writer never committed in order.
	lines := strings.SplitAfter(file(payload{Gen: 1}, payload{Gen: 2}, payload{Gen: 3}), "\n")
	lines[2] = "rec garbage\n" // damage the middle record
	got, res := load(t, strings.Join(lines, ""))
	if got.Gen != 1 || res.Salvaged != 2 {
		t.Fatalf("got gen %d (salvaged %d), want gen 1 salvaging 2 lines",
			got.Gen, res.Salvaged)
	}
}
