package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"dstress/internal/core"
	"dstress/internal/farm"
	"dstress/internal/fleet"
	"dstress/internal/seglog"
	"dstress/internal/virusdb"
)

// openRecoveredSet reads what a restarted daemon would find to re-queue.
func openRecoveredSet(path string) ([]farm.JournalEntry, error) {
	jl, err := farm.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	defer jl.Close()
	return jl.Recovered(), nil
}

// TestMain doubles as the daemon entry point for the kill/resume integration
// test: the test binary re-executes itself with DSTRESSD_RUN_MAIN set and
// real daemon flags, giving the test a genuine separate process to SIGKILL.
func TestMain(m *testing.M) {
	if os.Getenv("DSTRESSD_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// listeningRE matches the line a daemon logs once its listener is bound.
var listeningRE = regexp.MustCompile(`dstressd: listening on (\S+) `)

// startDaemonProc launches the daemon as a child process with args on a
// port the kernel picks, and returns it with its base URL, read from the
// address its log says it bound: no other server can answer there. It
// fails the test at once if the child exits before it listens. The child's
// log is copied to the test's stderr.
func startDaemonProc(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "DSTRESSD_RUN_MAIN=1")
	cmd.Stdout = os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = w
	err = cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer r.Close()
		defer close(addrc) // at EOF: the child has exited
		sc := bufio.NewScanner(r)
		sent := false
		for sc.Scan() {
			fmt.Fprintln(os.Stderr, sc.Text())
			if m := listeningRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		io.Copy(os.Stderr, r) // past a line too long to scan: keep the pipe drained
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			cmd.Wait()
			t.Fatal("daemon process exited before listening")
		}
		return cmd, "http://" + addr
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon process did not come up")
		return nil, ""
	}
}

// TestDaemonKillResumeIntegration is the acceptance scenario: SIGKILL a
// daemon mid-search, restart it over the same journal, and require the
// re-queued job to finish with exactly the result an uninterrupted daemon
// produces. The restarted daemon then exits on SIGTERM, which must close
// its database: the index snapshot is written, and a reopen through it
// reads what a full scan reads.
func TestDaemonKillResumeIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	journal := filepath.Join(t.TempDir(), "jobs.journal")
	dbPath := filepath.Join(t.TempDir(), "viruses.db")

	// Slow enough that the kill lands mid-search, fast enough that the
	// resumed leg and the reference finish in test time.
	req := jobRequest{
		Template:    "data24k",
		Criterion:   "max-ce",
		TempC:       55,
		Generations: 12,
		Population:  8,
		Workers:     2,
		Seed:        99,
		Rows:        256,
		Runs:        16,
	}

	daemonArgs := []string{"-budget", "2", "-journal", journal, "-db", dbPath, "-drain", "20s"}
	proc1, base1 := startDaemonProc(t, daemonArgs...)

	if code := postJSON(t, base1+"/api/v1/jobs", req, nil); code != http.StatusAccepted {
		proc1.Process.Kill()
		t.Fatalf("submit: HTTP %d", code)
	}

	// Let the search get past its first checkpoints, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			proc1.Process.Kill()
			t.Fatal("job never reached generation 2")
		}
		var view jobView
		getJSON(t, base1+"/api/v1/jobs/1", &view)
		if view.State.String() == "done" {
			proc1.Process.Kill()
			t.Fatalf("job finished before the kill; slow the search down: %+v", view)
		}
		if view.Generation >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := proc1.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	proc1.Wait()

	// Restart over the same journal: the job must be re-queued and complete.
	proc2, base2 := startDaemonProc(t, daemonArgs...)
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()

	var jobs []jobView
	if code := getJSON(t, base2+"/api/v1/jobs", &jobs); code != http.StatusOK {
		t.Fatalf("list after restart: HTTP %d", code)
	}
	if len(jobs) != 1 {
		t.Fatalf("restarted daemon has %d jobs, want the 1 re-queued", len(jobs))
	}

	var resumed jobView
	if code := getJSON(t, base2+"/api/v1/jobs/1/wait", &resumed); code != http.StatusOK {
		t.Fatalf("wait: HTTP %d", code)
	}
	if resumed.State.String() != "done" || resumed.Result == nil {
		t.Fatalf("resumed job: state %s, error %q", resumed.State, resumed.Error)
	}

	if err := proc2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc2.Wait(); err != nil {
		t.Fatalf("daemon exit on SIGTERM: %v", err)
	}
	checkSnapshotOpen(t, dbPath, req.Population)

	// The journal must be clean again: nothing to re-queue next time.
	jl, err := openRecoveredSet(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(jl) != 0 {
		t.Fatalf("journal still holds %d entries after the job finished", len(jl))
	}

	// Reference: the same search, uninterrupted, in-process.
	_, ts := testDaemon(t, 2, false)
	var status struct {
		ID int `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/jobs", req, &status); code != http.StatusAccepted {
		t.Fatalf("reference submit: HTTP %d", code)
	}
	ref := waitJob(t, ts, fmt.Sprint(status.ID))
	if ref.Result == nil {
		t.Fatalf("reference job: state %s, error %q", ref.State, ref.Error)
	}

	if *resumed.Result != *ref.Result {
		t.Fatalf("kill+resume diverged from the uninterrupted run:\n got %+v\nwant %+v",
			*resumed.Result, *ref.Result)
	}
}

// dbView is what a reader sees of a database: its experiments, each one's
// count and top-10 page.
type dbView struct {
	Experiments []string
	Counts      []int
	Top         [][]virusdb.Record
}

func readDBView(t *testing.T, path string) dbView {
	t.Helper()
	db, err := virusdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v := dbView{Experiments: db.Experiments()}
	for _, exp := range v.Experiments {
		top, err := db.TopN(exp, 10)
		if err != nil {
			t.Fatal(err)
		}
		v.Counts = append(v.Counts, db.Count(exp))
		v.Top = append(v.Top, top)
	}
	return v
}

// checkSnapshotOpen requires the index snapshot a closed database leaves,
// and the same view of the store through it as with it deleted, holding at
// least minRecords records.
func checkSnapshotOpen(t *testing.T, path string, minRecords int) {
	t.Helper()
	idx := filepath.Join(path, "INDEX")
	if _, err := os.Stat(idx); err != nil {
		t.Fatalf("no index snapshot after SIGTERM: %v", err)
	}
	with := readDBView(t, path)
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	scan := readDBView(t, path)
	if !reflect.DeepEqual(with, scan) {
		t.Fatalf("opened through the snapshot:\n%+v\nby a full scan:\n%+v", with, scan)
	}
	total := 0
	for _, n := range scan.Counts {
		total += n
	}
	if total < minRecords {
		t.Fatalf("database holds %d records, want at least %d", total, minRecords)
	}
}

// journaledDaemon starts an in-process daemon over the journal at path,
// re-queueing whatever the journal holds, the way main does on startup.
func journaledDaemon(t *testing.T, path string) (*daemon, *httptest.Server) {
	t.Helper()
	jl, err := farm.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(2, 4, 7, nil, jl, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		d.sched.Close()
		d.sched.Wait()
		ts.Close()
		jl.Close()
	})
	d.recoverJobs()
	return d, ts
}

// finishedJob long-polls job id to its end through the wait endpoint, which
// answers once the job's result is attached; a status poll can already
// read "done" while the journal retires the entry, before it is.
func finishedJob(t *testing.T, base string, id int) jobView {
	t.Helper()
	var view jobView
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/jobs/%d/wait", base, id), &view); code != http.StatusOK {
		t.Fatalf("wait for job %d: HTTP %d", id, code)
	}
	return view
}

// referenceResult runs req uninterrupted on a daemon without a journal.
func referenceResult(t *testing.T, req jobRequest) jobResult {
	t.Helper()
	_, ts := testDaemon(t, 2, false)
	var status struct {
		ID int `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/jobs", req, &status); code != http.StatusAccepted {
		t.Fatalf("reference submit: HTTP %d", code)
	}
	ref := finishedJob(t, ts.URL, status.ID)
	if ref.Result == nil {
		t.Fatalf("reference job: state %s, error %q", ref.State, ref.Error)
	}
	return *ref.Result
}

// TestRecoverJobsRestartsUndecodableCheckpoint: a journaled job whose
// checkpoint no longer decodes is re-queued from scratch, with the reason
// logged, instead of being dropped, and finishes with the result an
// uninterrupted run gives.
func TestRecoverJobsRestartsUndecodableCheckpoint(t *testing.T) {
	req := jobRequest{Template: "data64", Criterion: "max-ce", TempC: 55,
		Generations: 3, Population: 8, Workers: 2, Seed: 31, Rows: 4, Runs: 1}
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// A header-plus-tail checkpoint whose tail holds a byte no genome owns.
	bad := append(seglog.AppendHeader(nil, []byte(`{"experiment":"data64/max-ce/55C"}`)), 7)
	if _, err := core.DecodeCheckpoint(bad); err == nil {
		t.Fatal("the planted checkpoint decodes")
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	st, _, err := seglog.Open(path, seglog.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := json.Marshal(map[string]any{"op": "add", "entry": farm.JournalEntry{
		ID: 1, Name: "planted", Workers: 2, Spec: spec, State: "running", Submitted: time.Now()}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.AppendPayloads(seglog.Payload{Header: hdr, Tail: bad})
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := openRecoveredSet(path); err != nil || len(rec) != 1 ||
		!bytes.Equal(rec[0].Checkpoint, bad) {
		t.Fatalf("the bad checkpoint was not planted (%v)", err)
	}

	var logs bytes.Buffer
	log.SetOutput(&logs)
	_, ts := journaledDaemon(t, path)
	view := finishedJob(t, ts.URL, 1)
	log.SetOutput(os.Stderr)
	if view.State.String() != "done" || view.Result == nil {
		t.Fatalf("recovered job finished %s (error %q)", view.State, view.Error)
	}
	if !strings.Contains(logs.String(), "restarting it from scratch") {
		t.Fatalf("no log line says why the job restarted:\n%s", logs.String())
	}
	if want := referenceResult(t, req); *view.Result != want {
		t.Fatalf("restarted job diverged from the uninterrupted run:\n got %+v\nwant %+v",
			*view.Result, want)
	}
}

// TestRecoverJobsRefusesIslandJob: a journaled job whose spec carries a key
// the request does not know — an island job an earlier build journaled — is
// logged with the key and not run; it is never re-queued as a classic
// search under its name. The job journaled beside it still runs (as job 1:
// a restarted daemon numbers the jobs it re-queues afresh).
func TestRecoverJobsRefusesIslandJob(t *testing.T) {
	req := jobRequest{Template: "data64", Criterion: "max-ce", TempC: 55,
		Generations: 3, Population: 8, Workers: 2, Seed: 31, Rows: 4, Runs: 1}
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	st, _, err := seglog.Open(path, seglog.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ops []seglog.Payload
	for _, e := range []farm.JournalEntry{
		{ID: 1, Name: "islands", Workers: 2, Spec: json.RawMessage(islandsJobBody),
			State: "running", Submitted: time.Now()},
		{ID: 2, Name: "classic", Workers: 2, Spec: spec, State: "queued",
			Submitted: time.Now()},
	} {
		hdr, err := json.Marshal(map[string]any{"op": "add", "entry": e})
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, seglog.Payload{Header: hdr})
	}
	_, err = st.AppendPayloads(ops...)
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := openRecoveredSet(path); err != nil || len(rec) != 2 {
		t.Fatalf("the journal was not planted: %d entries (%v)", len(rec), err)
	}

	var logs bytes.Buffer
	log.SetOutput(&logs)
	_, ts := journaledDaemon(t, path)
	view := finishedJob(t, ts.URL, 1)
	log.SetOutput(os.Stderr)
	if view.State.String() != "done" || view.Result == nil {
		t.Fatalf("classic job finished %s (error %q)", view.State, view.Error)
	}
	var jobs []json.RawMessage
	if code := getJSON(t, ts.URL+"/api/v1/jobs", &jobs); code != http.StatusOK || len(jobs) != 1 {
		t.Fatalf("job list: HTTP %d, %d jobs, want the classic job alone", code, len(jobs))
	}
	if !strings.Contains(logs.String(), `journal entry 1 (islands): unreadable spec: json: unknown field "islands"`) {
		t.Fatalf("no log line says why the island job did not run:\n%s", logs.String())
	}
}

// TestRecoverJSONJournal drains a daemon mid-search, then restarts from its
// journal as written — each op a JSON header, the checkpoint its tail —
// and requires the resumed job to finish with the result of the
// uninterrupted run.
func TestRecoverJSONJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a block-virus search twice")
	}
	// Long enough that the drain lands mid-search.
	req := jobRequest{Template: "data24k", Criterion: "max-ce", TempC: 55,
		Generations: 24, Population: 8, Workers: 2, Seed: 77, Rows: 32, Runs: 16}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	d, ts := journaledDaemon(t, path)
	if code := postJSON(t, ts.URL+"/api/v1/jobs", req, nil); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var view jobView
		getJSON(t, ts.URL+"/api/v1/jobs/1", &view)
		if view.State.String() == "done" {
			t.Fatal("job finished before the drain; slow the search down")
		}
		if view.Generation >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached generation 2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.sched.Drain(30 * time.Second)
	d.journal.Close()

	rec, err := openRecoveredSet(path)
	if err != nil || len(rec) != 1 || len(rec[0].Checkpoint) == 0 {
		t.Fatalf("drained journal: %d entries (%v)", len(rec), err)
	}
	cp, err := core.DecodeCheckpoint(rec[0].Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Generation() < 2 {
		t.Fatalf("journaled checkpoint at generation %d", cp.Generation())
	}

	_, ts = journaledDaemon(t, path)
	view := finishedJob(t, ts.URL, 1)
	if view.State.String() != "done" || view.Result == nil {
		t.Fatalf("resumed job finished %s (error %q)", view.State, view.Error)
	}
	if want := referenceResult(t, req); *view.Result != want {
		t.Fatalf("resumed job diverged from the uninterrupted run:\n got %+v\nwant %+v",
			*view.Result, want)
	}
}
