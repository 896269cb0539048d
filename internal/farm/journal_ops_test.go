package farm

import (
	"bytes"
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

// TestJournalReplaysJSONOps: a journal whose ops are the plain JSON
// the previous format wrote for every op, checkpoints embedded in them,
// replays to the same entries, and so does the store that replay compacts
// it into. Ops without a checkpoint are still written as exactly those
// bytes.
func TestJournalReplaysJSONOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	e1 := JournalEntry{ID: 1, Name: "one", Tenant: "alpha", Priority: 3, Workers: 2,
		TimeoutS: 1.5, Spec: json.RawMessage(`{"template":"data64"}`),
		Checkpoint: json.RawMessage(`{"engine":{"generation":1}}`), State: "pending", Submitted: at}
	e2 := JournalEntry{ID: 2, Name: "two", Workers: 1,
		Spec: json.RawMessage(`{"template":"data24k"}`), State: "pending", Submitted: at}
	e3 := JournalEntry{ID: 3, Name: "gone", Workers: 1, Spec: json.RawMessage(`{}`),
		State: "pending", Submitted: at}
	ops := []journalOp{
		{Op: "add", Entry: &e1},
		{Op: "add", Entry: &e2},
		{Op: "state", ID: 2, State: "running"},
		{Op: "checkpoint", ID: 2, Checkpoint: json.RawMessage(`{"engine":{"generation":4}}`)},
		{Op: "add", Entry: &e3},
		{Op: "checkpoint", ID: 1, Checkpoint: json.RawMessage(`{"engine":{"generation":2}}`)},
		{Op: "remove", ID: 3},
	}
	st, _, err := seglog.Open(path, journalStoreOptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		p, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(p); err != nil {
			t.Fatal(err)
		}
		if len(op.Checkpoint) > 0 || op.Entry != nil && len(op.Entry.Checkpoint) > 0 {
			continue
		}
		if got, err := encodeOp(op); err != nil || !bytes.Equal(got.Bytes(), p) {
			t.Fatalf("%s op without a checkpoint encodes as %q, want %q", op.Op, got.Bytes(), p)
		}
	}
	st.Close()

	want1, want2 := e1, e2
	want1.Checkpoint = json.RawMessage(`{"engine":{"generation":2}}`)
	want2.Checkpoint = json.RawMessage(`{"engine":{"generation":4}}`)
	want1.State, want2.State = "interrupted", "interrupted"
	for _, stage := range []string{"previous format", "compacted"} {
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
	// and a tail beside an embedded checkpoint.
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
