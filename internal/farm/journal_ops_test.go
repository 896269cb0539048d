package farm

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dstress/internal/seglog"
)

// TestJournalCheckpointOpMatchesMarshal pins the hand-framed checkpoint op
// to the bytes json.Marshal gives the same journalOp, for checkpoints that
// encoding/json produced: HTML-escaped and non-ASCII strings, nesting, a
// multi-megabyte body, and the omitempty cases of a zero id and an empty
// checkpoint.
func TestJournalCheckpointOpMatchesMarshal(t *testing.T) {
	big := make([]int, 300000)
	for i := range big {
		big[i] = i * 7919
	}
	values := []any{
		map[string]any{"gen": 3},
		map[string]any{"html": "<a href=\"x\">&</a>", "utf8": "µ  é", "nul": "\x00"},
		[]any{1.5, nil, true, "s", map[string]any{"deep": []int{1, 2}}},
		"just a string",
		42,
		map[string]any{"genomes": big},
	}
	for _, id := range []int{0, 1, 17, 1 << 40} {
		for k, v := range values {
			cp, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(journalOp{Op: "checkpoint", ID: id, Checkpoint: cp})
			if err != nil {
				t.Fatal(err)
			}
			got, raw, err := checkpointOp(id, cp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("id %d value %d: frame differs from json.Marshal", id, k)
			}
			if !bytes.Equal(raw, cp) {
				t.Fatalf("id %d value %d: shared checkpoint differs from the input", id, k)
			}
		}
		want, _ := json.Marshal(journalOp{Op: "checkpoint", ID: id})
		for _, empty := range []json.RawMessage{nil, {}} {
			got, raw, err := checkpointOp(id, empty)
			if err != nil || !bytes.Equal(got, want) || raw != nil {
				t.Fatalf("id %d empty checkpoint: %q, %q, %v; want %q", id, got, raw, err, want)
			}
		}
	}
}

// TestJournalRefusesInvalidCheckpoint: a checkpoint that is not JSON is an
// error, nothing reaches the log, and the entry keeps its last good state
// across a restart.
func TestJournalRefusesInvalidCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.add(JournalEntry{ID: 1, Name: "j", Workers: 1,
		Spec: json.RawMessage(`{}`), State: "running", Submitted: time.Unix(0, 0).UTC()}); err != nil {
		t.Fatal(err)
	}
	if err := jl.setCheckpoint(1, json.RawMessage(`{"gen":2}`)); err != nil {
		t.Fatal(err)
	}
	before := jl.log.Appended()
	for _, bad := range []string{`{"gen":`, `{"gen":3}}`, `not json`, `{"a":1} {"b":2}`, "\xff"} {
		if err := jl.setCheckpoint(1, json.RawMessage(bad)); err == nil {
			t.Fatalf("checkpoint %q accepted", bad)
		}
	}
	if got := jl.log.Appended(); got != before {
		t.Fatalf("refused checkpoints appended %d frames", got-before)
	}
	if e, _ := jl.Entry(1); string(e.Checkpoint) != `{"gen":2}` {
		t.Fatalf("live entry checkpoint = %s after refusals", e.Checkpoint)
	}
	jl.Close()
	re, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec := re.Recovered()
	if len(rec) != 1 || string(rec[0].Checkpoint) != `{"gen":2}` {
		t.Fatalf("recovered %+v, want job 1 at checkpoint {\"gen\":2}", rec)
	}
}

// FuzzJournalReplay writes arbitrary op frames (one per input line) into a
// journal store and opens it. OpenJournal must never panic; when it opens,
// the recovered set it compacted to must reopen unchanged.
func FuzzJournalReplay(f *testing.F) {
	add := `{"op":"add","entry":{"id":1,"name":"a","workers":2,"spec":{"k":1},` +
		`"state":"pending","submitted":"2026-01-02T03:04:05Z"}}`
	f.Add([]byte(add + "\n" + `{"op":"checkpoint","id":1,"checkpoint":{"gen":2}}`))
	f.Add([]byte(add + "\n" + `{"op":"state","id":1,"state":"running"}` + "\n" +
		`{"op":"remove","id":1}`))
	f.Add([]byte(`{"op":"checkpoint","id":9,"checkpoint":[1,2]}` + "\n" + `{"op":"add"}`))
	f.Add([]byte(`{"op":"add","entry":{"id":-3,"spec":null,"checkpoint":"x"}}` + "\n" + `[]`))
	f.Add([]byte(`{"op":"add","entry":null}` + "\n" + `{"op":7}` + "\n" + `null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := filepath.Join(t.TempDir(), "jobs.journal")
		st, _, err := seglog.Open(dir, journalStoreOptions)
		if err != nil {
			t.Fatal(err)
		}
		var frames [][]byte
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(line) > 0 {
				frames = append(frames, line)
			}
		}
		if _, err := st.Append(frames...); err != nil {
			t.Fatal(err)
		}
		st.Close()
		jl, err := OpenJournal(dir)
		if err != nil {
			return
		}
		first, err := json.Marshal(jl.Recovered())
		jl.Close()
		if err != nil {
			t.Fatalf("recovered entries do not marshal: %v", err)
		}
		re, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("reopening the compacted journal: %v", err)
		}
		defer re.Close()
		again, err := json.Marshal(re.Recovered())
		if err != nil || !bytes.Equal(first, again) {
			t.Fatalf("recovered set moved across a reopen:\n%s\n%s",
				first, strings.TrimSpace(string(again)))
		}
	})
}
