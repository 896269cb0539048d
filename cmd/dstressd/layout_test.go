package main

import (
	"bytes"
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dstress/internal/core"
	"dstress/internal/farm"
	"dstress/internal/ga"
	"dstress/internal/seglog"
	"dstress/internal/virusdb"
)

// plantStore writes payloads straight into a fresh seglog store at path.
func plantStore(t *testing.T, path string, payloads ...seglog.Payload) {
	t.Helper()
	st, _, err := seglog.Open(path, seglog.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.AppendPayloads(payloads...)
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
}

// TestRemovedLayoutsRefused plants each on-disk layout that only earlier
// builds wrote and checks that it is refused or takes an existing path: a
// single-file store names the build that converts it, an all-JSON bit frame
// is a corrupt record, a genome spelled as a bit string does not decode,
// and a journaled job whose checkpoint is in a removed layout re-queues
// from scratch.
func TestRemovedLayoutsRefused(t *testing.T) {
	req := jobRequest{Template: "data64", Criterion: "max-ce", TempC: 55,
		Generations: 3, Population: 8, Workers: 2, Seed: 41, Rows: 4, Runs: 1}
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceResult(t, req)
	// addOp is the JSON of an "add" op for a running job of req; extra
	// members go into its entry.
	addOp := func(extra map[string]any) []byte {
		entry := map[string]any{"id": 1, "name": "planted", "workers": 2, "spec": json.RawMessage(spec),
			"state": "running", "submitted": time.Now()}
		for k, v := range extra {
			entry[k] = v
		}
		op, err := json.Marshal(map[string]any{"op": "add", "entry": entry})
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	// requeuedFromScratch recovers the journal at path in a daemon and
	// requires the job to run from scratch to the uninterrupted result.
	requeuedFromScratch := func(t *testing.T, path, logged string) {
		t.Helper()
		var logs bytes.Buffer
		log.SetOutput(&logs)
		_, ts := journaledDaemon(t, path)
		view := finishedJob(t, ts.URL, 1)
		log.SetOutput(os.Stderr)
		if view.State.String() != "done" || view.Result == nil || *view.Result != want {
			t.Fatalf("re-queued job: state %s, error %q, result %+v, want %+v",
				view.State, view.Error, view.Result, want)
		}
		if !strings.Contains(logs.String(), logged) {
			t.Fatalf("no log line says %q:\n%s", logged, logs.String())
		}
	}
	// strictRefusesSalvageDrops opens a store holding one good record and
	// the planted frame: the strict open refuses it, the salvage open drops
	// and counts it.
	strictRefusesSalvageDrops := func(frame string) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			db, err := virusdb.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Append(virusdb.Record{Experiment: "e", Bits: "0110", Fitness: 1}); err != nil {
				t.Fatal(err)
			}
			db.Close()
			plantStore(t, path, seglog.Payload{Header: []byte(frame)})
			if _, err := virusdb.Open(path); err == nil {
				t.Fatal("strict open accepted the frame")
			}
			db, dropped, err := virusdb.OpenSalvage(path)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if dropped != 1 || db.Len() != 1 {
				t.Fatalf("salvage kept %d records and dropped %d, want 1 and 1", db.Len(), dropped)
			}
		}
	}
	// singleFile writes data as a file at path and requires open to refuse
	// it with an error that names each of hints.
	singleFile := func(data string, open func(string) error, hints ...string) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			err := open(path)
			if err == nil {
				t.Fatal("the single-file store opened")
			}
			for _, h := range hints {
				if !strings.Contains(err.Error(), h) {
					t.Fatalf("error %q does not name %q", err, h)
				}
			}
			if fi, err := os.Stat(path); err != nil || fi.IsDir() {
				t.Fatal("the refused file was disturbed")
			}
		}
	}
	bitsGenome := `{"type":"bit","bits":"0110"}`

	for _, tc := range []struct {
		name  string
		check func(t *testing.T, path string)
	}{
		{"single-file database", singleFile(`[{"experiment":"e","bits":"0110","fitness":1}]`,
			func(p string) error {
				if _, _, err := virusdb.OpenSalvage(p); err == nil {
					return nil
				}
				_, err := virusdb.Open(p)
				return err
			}, "virusdb -db", "-compact", "67701f1")},
		{"single-file journal", singleFile("dstress-checkpoint v1\nrec 1 00000000 {\"jobs\":[]}\n",
			func(p string) error {
				_, err := farm.OpenJournal(p)
				return err
			}, "dstressd", "67701f1")},
		{"all-JSON bits frame", strictRefusesSalvageDrops(
			`{"experiment":"e","bits":"0110","fitness":2}`)},
		{"all-JSON packed frame", strictRefusesSalvageDrops(
			`{"experiment":"e","n":4,"packed":"CgAAAAAAAAA=","fitness":2}`)},
		{"bits genome record", func(t *testing.T, path string) {
			var rec ga.GenomeRecord
			if err := json.Unmarshal([]byte(bitsGenome), &rec); err != nil {
				t.Fatal(err)
			}
			if _, err := ga.DecodeGenome(rec); err == nil {
				t.Fatal("a genome spelled as a bit string decodes")
			}
			// In a journaled checkpoint, the job restarts with the reason
			// logged.
			cp := []byte(`{"experiment":"data64/max-ce/55C","workers":2,"engine":{"generation":1,` +
				`"population":[` + bitsGenome + `],"fitnesses":[1]}}`)
			if _, err := core.DecodeCheckpoint(cp); err == nil {
				t.Fatal("a checkpoint with a bit-string genome decodes")
			}
			plantStore(t, path, seglog.Payload{Header: addOp(nil), Tail: cp})
			requeuedFromScratch(t, path, "restarting it from scratch")
		}},
		{"embedded-checkpoint journal op", func(t *testing.T, path string) {
			plantStore(t, path, seglog.Payload{Header: addOp(map[string]any{
				"checkpoint": json.RawMessage(`{"experiment":"data64/max-ce/55C","workers":2}`)})})
			rec, err := openRecoveredSet(path)
			if err != nil || len(rec) != 1 || rec[0].Checkpoint != nil {
				t.Fatalf("recovered %+v (%v), want one entry without a checkpoint", rec, err)
			}
			requeuedFromScratch(t, path, "resuming from scratch")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, filepath.Join(t.TempDir(), "store"))
		})
	}
}
