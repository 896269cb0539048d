package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dstress/internal/seglog"
	"dstress/internal/xrand"
)

// journalCheckpoints are checkpoint bytes the journal must carry as they
// are: JSON and not, with and without newlines, one that looks like a
// header-plus-tail payload itself, and one of several megabytes, larger
// than a segment.
func journalCheckpoints() [][]byte {
	big := make([]byte, 3<<20)
	rng := xrand.New(11)
	for i := range big {
		big[i] = byte(rng.Uint64())
	}
	return [][]byte{
		[]byte(`{"gen":2}`),
		// Not JSON; the journal used to refuse these.
		[]byte(`{"gen":`), []byte(`{"gen":3}}`), []byte(`not json`),
		[]byte(`{"a":1} {"b":2}`), []byte("\xff"),
		{0},
		[]byte("line one\nline two\n"),
		append(seglog.AppendHeader(nil, []byte(`{"k":1}`)), 1, 2, 3),
		big,
	}
}

// TestJournalCheckpointBytesRoundTrip: checkpoints are opaque. Whatever
// bytes a job hands Job.Checkpoint, or a recovered entry carries into its
// "add" op, come back byte for byte from the live entry, from replay, and
// from the store OpenJournal compacted on the way.
func TestJournalCheckpointBytesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cps := journalCheckpoints()
	want := map[int][]byte{}
	for i, cp := range cps {
		// Odd ids take the checkpoint in their "add" op, even ids in a
		// later "checkpoint" op, after a checkpoint it replaces.
		id := 2*i + 1
		if err := jl.add(JournalEntry{ID: id, Name: "a", Spec: json.RawMessage(`{}`),
			Checkpoint: cp, Submitted: time.Unix(0, 0).UTC()}); err != nil {
			t.Fatal(err)
		}
		want[id] = cp
		id++
		if err := jl.add(JournalEntry{ID: id, Name: "c", Spec: json.RawMessage(`{}`),
			Submitted: time.Unix(0, 0).UTC()}); err != nil {
			t.Fatal(err)
		}
		for _, c := range [][]byte{[]byte("older"), cp} {
			if err := jl.setCheckpoint(id, c); err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
		}
		if err := jl.setState(id, "running"); err != nil {
			t.Fatal(err)
		}
		want[id] = cp
	}
	for id, cp := range want {
		if e, _ := jl.Entry(id); !bytes.Equal(e.Checkpoint, cp) {
			t.Fatalf("live entry %d: checkpoint changed", id)
		}
	}
	jl.Close()
	// The first reopen replays the ops and compacts them into "add" ops;
	// the second replays the compacted store.
	for _, stage := range []string{"replayed", "compacted"} {
		re, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		rec := re.Recovered()
		re.Close()
		if len(rec) != len(want) {
			t.Fatalf("%s: recovered %d entries, want %d", stage, len(rec), len(want))
		}
		for _, e := range rec {
			if !bytes.Equal(e.Checkpoint, want[e.ID]) {
				t.Fatalf("%s: entry %d: checkpoint of %d bytes, want %d bytes as written",
					stage, e.ID, len(e.Checkpoint), len(want[e.ID]))
			}
		}
	}
}

// TestJournalReplaysJSONOps: ops without a checkpoint are plain JSON, and a
// journal of them replays to the entries they leave live. A checkpoint
// embedded in an op's JSON, as builds before the tail layout wrote it, is
// not read: its entry recovers without a checkpoint, so the job restarts
// from scratch.
func TestJournalReplaysJSONOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	e1 := JournalEntry{ID: 1, Name: "one", Tenant: "alpha", Priority: 3, Workers: 2,
		TimeoutS: 1.5, Spec: json.RawMessage(`{"template":"data64"}`), State: "pending", Submitted: at}
	e2 := JournalEntry{ID: 2, Name: "two", Workers: 1,
		Spec: json.RawMessage(`{"template":"data24k"}`), State: "pending", Submitted: at}
	e3 := JournalEntry{ID: 3, Name: "gone", Workers: 1, Spec: json.RawMessage(`{}`),
		State: "pending", Submitted: at}
	var frames [][]byte
	for _, op := range []journalOp{
		{Op: "add", Entry: &e1},
		{Op: "add", Entry: &e2},
		{Op: "state", ID: 2, State: "running"},
		{Op: "add", Entry: &e3},
		{Op: "remove", ID: 3},
	} {
		p, err := encodeOp(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Tail) != 0 || !json.Valid(p.Header) {
			t.Fatalf("%s op without a checkpoint is not plain JSON: %q", op.Op, p.Bytes())
		}
		frames = append(frames, p.Header)
	}
	frames = append(frames,
		[]byte(`{"op":"checkpoint","id":2,"checkpoint":{"engine":{"generation":4}}}`))
	st, _, err := seglog.Open(path, journalStoreOptions)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(frames...); err != nil {
		t.Fatal(err)
	}
	st.Close()

	want1, want2 := e1, e2
	want1.State, want2.State = "interrupted", "interrupted"
	for _, stage := range []string{"written", "compacted"} {
		jl, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		rec := jl.Recovered()
		jl.Close()
		if !reflect.DeepEqual(rec, []JournalEntry{want1, want2}) {
			t.Fatalf("%s: recovered\n%+v\nwant\n%+v", stage, rec, []JournalEntry{want1, want2})
		}
	}
}

// recoveredForm renders recovered entries for comparison: each entry's JSON
// with the checkpoint left out, then the checkpoint's bytes quoted, which
// need not be JSON.
func recoveredForm(rec []JournalEntry) (string, error) {
	var b strings.Builder
	for _, e := range rec {
		cp := e.Checkpoint
		e.Checkpoint = nil
		j, err := json.Marshal(e)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s %q\n", j, cp)
	}
	return b.String(), nil
}

// FuzzJournalReplay replays arbitrary op frames (one per input line) the
// way OpenJournal does. Replay must never panic, and the recovered set must
// come back unchanged from the add ops compaction writes for it. One input
// in 32 also takes the round trip through a real store: written, opened
// (which compacts it) and reopened, it must recover that same set. The
// store round trip costs several fsyncs, so taking it on every input would
// spend the fuzzing time in the filesystem.
func FuzzJournalReplay(f *testing.F) {
	add := `{"op":"add","entry":{"id":1,"name":"a","workers":2,"spec":{"k":1},` +
		`"state":"pending","submitted":"2026-01-02T03:04:05Z"}}`
	f.Add([]byte(add + "\n" + `{"op":"checkpoint","id":1,"checkpoint":{"gen":2}}`))
	f.Add([]byte(add + "\n" + `{"op":"state","id":1,"state":"running"}` + "\n" +
		`{"op":"remove","id":1}`))
	f.Add([]byte(`{"op":"checkpoint","id":9,"checkpoint":[1,2]}` + "\n" + `{"op":"add"}`))
	f.Add([]byte(`{"op":"add","entry":{"id":-3,"spec":null,"checkpoint":"x"}}` + "\n" + `[]`))
	f.Add([]byte(`{"op":"add","entry":null}` + "\n" + `{"op":7}` + "\n" + `null`))
	// Header-plus-tail ops: a checkpoint op and an add op carrying the
	// checkpoint as their tail, a tail where the op has no place for one,
	// and a tail beside a checkpoint in the header's JSON, which is not
	// read.
	tailed := func(hdr, tail string) string {
		return string(append(seglog.AppendHeader(nil, []byte(hdr)), tail...))
	}
	f.Add([]byte(add + "\n" + tailed(`{"op":"checkpoint","id":1}`, "\x01\x02{raw}")))
	f.Add([]byte(tailed(`{"op":"add","entry":{"id":4,"name":"t","workers":1,"spec":{},`+
		`"state":"running","submitted":"2026-01-02T03:04:05Z"}}`, `{"gen":5}`) + "\n" +
		tailed(`{"op":"checkpoint","id":4}`, "\xff")))
	f.Add([]byte(add + "\n" + tailed(`{"op":"state","id":1,"state":"x"}`, "t") + "\n" +
		tailed(`{"op":"checkpoint","id":1,"checkpoint":{"gen":1}}`, "t")))
	f.Fuzz(func(t *testing.T, data []byte) {
		var frames [][]byte
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(line) > 0 {
				frames = append(frames, line)
			}
		}
		rec := replayOps(frames)
		compacted, err := addOps(rec)
		if err != nil {
			return // OpenJournal refuses a journal it cannot compact
		}
		first, err := recoveredForm(rec)
		if err != nil {
			t.Fatalf("recovered entries do not marshal: %v", err)
		}
		if again, err := recoveredForm(replayOps(compacted)); err != nil || first != again {
			t.Fatalf("recovered set moved across compaction:\n%s\n%s", first, again)
		}
		if crc32.ChecksumIEEE(data)%32 != 0 {
			return
		}
		dir := filepath.Join(t.TempDir(), "jobs.journal")
		st, _, err := seglog.Open(dir, journalStoreOptions)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(frames...); err != nil {
			t.Fatal(err)
		}
		st.Close()
		for _, stage := range []string{"written", "compacted"} {
			jl, err := OpenJournal(dir)
			if err != nil {
				t.Fatalf("opening the %s journal: %v", stage, err)
			}
			got, err := recoveredForm(jl.Recovered())
			jl.Close()
			if err != nil || got != first {
				t.Fatalf("%s journal recovered\n%s\nwant\n%s", stage, got, first)
			}
		}
	})
}

// TestOpWriterDigest pins the bytes encodeOp writes for each op kind, with
// and without a checkpoint tail, so that a change to the replay cannot move
// the layout journals are written in.
func TestOpWriterDigest(t *testing.T) {
	entry := func(cp []byte) *JournalEntry {
		return &JournalEntry{ID: 7, Name: "data64/max-ce/55C", Tenant: "alpha", Priority: 3,
			Workers: 2, TimeoutS: 1.5, Spec: json.RawMessage(`{"template":"data64","seed":5}`),
			Checkpoint: cp, State: "running", Submitted: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
	}
	cp := append(seglog.AppendHeader(nil, []byte(`{"experiment":"e"}`)), 1, 2, 3, 4, 5, 6, 7, 8)
	h := sha256.New()
	for _, op := range []journalOp{
		{Op: "add", Entry: entry(nil)},
		{Op: "add", Entry: entry(cp)},
		{Op: "add", Entry: entry([]byte(`{"gen":2}`))},
		{Op: "state", ID: 7, State: "running"},
		{Op: "checkpoint", ID: 7, Checkpoint: cp},
		{Op: "checkpoint", ID: 7, Checkpoint: []byte("not json")},
		{Op: "checkpoint", ID: 7},
		{Op: "remove", ID: 7},
	} {
		p, err := encodeOp(op)
		if err != nil {
			t.Fatal(err)
		}
		b := p.Bytes()
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	const want = "ab8aff17c8a1de70206fa4a462397d882fa74ec87cae03bf94e63cd92e941b39"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("encodeOp digest %s, want %s", got, want)
	}
}
