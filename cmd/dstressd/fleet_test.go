package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dstress/internal/farm"
	"dstress/internal/fleet"
	"dstress/internal/seglog"
)

// fastFleetConfig keeps failure detection snappy enough for tests: a killed
// worker's shard re-queues within a few hundred milliseconds.
func fastFleetConfig() fleet.Config {
	return fleet.Config{
		LeaseTTL:   500 * time.Millisecond,
		WorkerTTL:  250 * time.Millisecond,
		SweepEvery: 5 * time.Millisecond,
	}
}

// rawStatus fetches a URL and reports status code, content type and the
// envelope's error message.
func rawStatus(t *testing.T, method, url string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body errorBody
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), body.Error.Message
}

// TestJSONNotFoundEverywhere: unknown job ids across GET/wait/cancel, unknown
// paths and the removed pre-/api/v1 spellings all answer 404 with a JSON
// error body, never Go's plain-text 404 page — fleet clients must be able to
// tell "gone" from a transport failure mechanically.
func TestJSONNotFoundEverywhere(t *testing.T) {
	d, ts := testDaemon(t, 2, false)
	// Job 1 exists, so its legacy spelling 404s for the route, not the id.
	j, err := d.sched.SubmitJob(farm.JobSpec{Name: "one", Workers: 1},
		func(ctx context.Context, j *farm.Job) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	cases := []struct {
		method, path string
	}{
		{http.MethodGet, "/api/v1/jobs/999"},
		{http.MethodGet, "/api/v1/jobs/999/wait"},
		{http.MethodPost, "/api/v1/jobs/999/cancel"},
		{http.MethodGet, "/api/no/such/path"},
		{http.MethodGet, "/api/v1/jobs/999/"},
		{http.MethodPost, "/api/v1/fleet/nonsense"},
		{http.MethodGet, "/api/jobs/1"},
		{http.MethodGet, "/api/jobs"},
		{http.MethodGet, "/api/virusdb"},
		{http.MethodGet, "/metrics"},
		{http.MethodGet, "/debug/vars"},
		{http.MethodPost, "/api/fleet/join"},
	}
	for _, c := range cases {
		code, ctype, errMsg := rawStatus(t, c.method, ts.URL+c.path)
		if code != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", c.method, c.path, code)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("%s %s: Content-Type %q, want application/json",
				c.method, c.path, ctype)
		}
		if errMsg == "" {
			t.Errorf("%s %s: no JSON error field in the body", c.method, c.path)
		}
	}
}

// TestDurableOverBudgetSubmitRejected: with a journal, a submission asking
// for more workers than the daemon will ever have is a client error, not
// something to silently shrink and journal.
func TestDurableOverBudgetSubmitRejected(t *testing.T) {
	jl, err := farm.OpenJournal(filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(2, 4, 7, nil, jl, fastFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	defer func() {
		d.sched.Close()
		d.sched.Wait()
		ts.Close()
	}()

	var body errorBody
	code := postJSON(t, ts.URL+"/api/v1/jobs", jobRequest{
		Template: "data64", Generations: 1, Population: 4,
		Workers: 16, Runs: 1,
	}, &body)
	if code != http.StatusBadRequest {
		t.Fatalf("over-budget durable submit: HTTP %d, want 400", code)
	}
	if body.Error.Code != "budget_exceeded" {
		t.Fatalf("error code %q, want budget_exceeded", body.Error.Code)
	}
	if !strings.Contains(body.Error.Message, "budget") {
		t.Fatalf("error %q does not mention the budget", body.Error.Message)
	}
	if jl.Len() != 0 {
		t.Fatalf("rejected job left %d journal entries", jl.Len())
	}
}

// TestRecoverJobsClampsToBudget: a journaled job from a bigger daemon must
// still run after a restart under a smaller budget — explicitly clamped, not
// rejected and lost.
func TestRecoverJobsClampsToBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	spec, err := json.Marshal(jobRequest{
		Template: "data64", Criterion: "max-ce", TempC: 55,
		Generations: 1, Population: 4, Workers: 8, Seed: 5, Rows: 4, Runs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-craft the journal a budget-8 daemon would have left behind: one
	// "add" op for a running job.
	op, err := json.Marshal(map[string]any{"op": "add", "entry": farm.JournalEntry{
		ID: 1, Name: "big", Workers: 8, Spec: spec, State: "running", Submitted: time.Now()}})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := seglog.Open(path, seglog.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.AppendPayloads(seglog.Payload{Header: op})
	st.Close()
	if err != nil {
		t.Fatal(err)
	}

	jl, err := farm.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(2, 4, 7, nil, jl, fastFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	defer func() {
		d.sched.Close()
		d.sched.Wait()
		ts.Close()
	}()
	d.recoverJobs()

	view := waitJob(t, ts, "1")
	if view.State.String() != "done" {
		t.Fatalf("recovered job finished %s (error %q)", view.State, view.Error)
	}
	if view.Workers != 2 {
		t.Fatalf("recovered job ran with %d workers, want the budget's 2",
			view.Workers)
	}
}

// fleetVariant runs one job on a fresh daemon with n in-process fleet
// workers (0 = pure local fallback). killOne cancels one worker once the
// search passes generation 2, simulating a worker death mid-lease.
func fleetVariant(t *testing.T, req jobRequest, n int, killOne bool) jobResult {
	t.Helper()
	d, err := newDaemon(4, 4, 7, nil, nil, fastFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	defer func() {
		d.sched.Close()
		d.sched.Wait()
		ts.Close()
	}()

	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancelAll()
	var cancelFirst context.CancelFunc = func() {}
	for i := 0; i < n; i++ {
		wctx := ctx
		if i == 0 {
			var c context.CancelFunc
			wctx, c = context.WithCancel(ctx)
			cancelFirst = c
			defer c()
		}
		w := fleet.NewWorker(ts.URL, fmt.Sprintf("w%d", i), buildFleetEvaluators,
			fleet.WithLeaseWait(200*time.Millisecond),
			fleet.WithBackoff(5*time.Millisecond, 50*time.Millisecond, 2))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(wctx)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.fleet.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d fleet workers joined", d.fleet.LiveWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var status struct {
		ID int `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/jobs", req, &status); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	if killOne {
		killDeadline := time.Now().Add(60 * time.Second)
		for {
			if time.Now().After(killDeadline) {
				t.Fatal("job never reached generation 2")
			}
			var view jobView
			getJSON(t, ts.URL+"/api/v1/jobs/1", &view)
			if view.State.String() == "done" {
				t.Fatal("job finished before the kill; slow the search down")
			}
			if view.Generation >= 2 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		cancelFirst()
	}

	view := waitJob(t, ts, fmt.Sprint(status.ID))
	if view.State.String() != "done" || view.Result == nil {
		t.Fatalf("fleet job (%d workers, kill=%v): state %s, error %q",
			n, killOne, view.State, view.Error)
	}
	if n > 0 {
		if st := d.fleet.Snapshot(); st.RemoteTasks == 0 {
			t.Fatalf("no evaluations ran remotely with %d workers: %+v", n, st)
		}
	}
	return *view.Result
}

// TestFleetEndToEndBitIdentical is the acceptance scenario: the same search
// distributed over 1, 2 and 4 workers — and over 2 workers with one killed
// mid-job — produces bit-identical results to the purely local run.
func TestFleetEndToEndBitIdentical(t *testing.T) {
	req := jobRequest{
		Template: "data64", Criterion: "max-ce", TempC: 55,
		Generations: 3, Population: 8, Workers: 2, Seed: 1234, Rows: 4, Runs: 2,
	}
	ref := fleetVariant(t, req, 0, false)
	for _, n := range []int{1, 2, 4} {
		if got := fleetVariant(t, req, n, false); got != ref {
			t.Fatalf("%d fleet workers diverged from local:\n got %+v\nwant %+v",
				n, got, ref)
		}
	}

	if testing.Short() {
		t.Skip("kill-mid-job variant needs a slower search")
	}
	slow := jobRequest{
		Template: "data24k", Criterion: "max-ce", TempC: 55,
		Generations: 10, Population: 8, Workers: 2, Seed: 77, Rows: 32, Runs: 16,
	}
	slowRef := fleetVariant(t, slow, 0, false)
	if got := fleetVariant(t, slow, 2, true); got != slowRef {
		t.Fatalf("kill-mid-job run diverged from local:\n got %+v\nwant %+v",
			got, slowRef)
	}
}

// TestBatchDetV2FleetBitIdentical: the fleet leg of the batch differential
// matrix. Under determinism v2 every fleet worker evaluates its shards
// through the chunked batch engine (buildFleetEvaluators), split across one
// server clone per GOMAXPROCS, so the same v2 search at 0, 1 and 2 fleet
// nodes — local fallback included — and at 1, 2 and 3 clones per node must
// produce the result of the purely local run. data24k and access-rows cover
// the specs whose Prepare writes state their deploys read, which clones
// evaluating side by side must not share. The kill-mid-job leg rides in
// TestFleetEndToEndBitIdentical; this pins the batched evaluation.
func TestBatchDetV2FleetBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		template string
		rows     int
	}{{"data64", 4}, {"data24k", 4}, {"access-rows", 16}} {
		t.Run(tc.template, func(t *testing.T) {
			req := jobRequest{
				Template: tc.template, Criterion: "max-ce", TempC: 55,
				Generations: 3, Population: 8, Workers: 2, Seed: 1234,
				Rows: tc.rows, Runs: 2, Determinism: "v2",
			}
			ref := fleetVariant(t, req, 0, false)
			if got := fleetVariant(t, req, 2, false); got != ref {
				t.Fatalf("2 fleet workers (v2 batched) diverged from local:\n got %+v\nwant %+v",
					got, ref)
			}
			for _, clones := range []int{1, 2, 3} {
				// A worker reads its clone count from GOMAXPROCS when built.
				prev := runtime.GOMAXPROCS(clones)
				got := fleetVariant(t, req, 1, false)
				runtime.GOMAXPROCS(prev)
				if got != ref {
					t.Fatalf("1 fleet worker at %d clones diverged from local:\n got %+v\nwant %+v",
						clones, got, ref)
				}
			}
		})
	}
}

// startWorkerProc launches a genuine separate worker process against the
// coordinator, so the integration test has something real to SIGKILL.
func startWorkerProc(t *testing.T, coordinator, name string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0],
		"-worker", "-coordinator", coordinator, "-worker-name", name)
	cmd.Env = append(os.Environ(), "DSTRESSD_RUN_MAIN=1")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestFleetKillWorkerIntegration is the cross-process acceptance scenario:
// a coordinator daemon with two real worker processes, one SIGKILLed
// mid-job, must finish the search with exactly the local-only result.
func TestFleetKillWorkerIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	cmd, base := startDaemonProc(t, "-budget", "2",
		"-fleet-lease", "2s", "-fleet-worker-ttl", "500ms")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	w1 := startWorkerProc(t, base, "w1")
	defer func() {
		w1.Process.Kill()
		w1.Wait()
	}()
	w2 := startWorkerProc(t, base, "w2")
	defer func() {
		w2.Process.Kill()
		w2.Wait()
	}()

	var mv struct {
		Fleet fleet.Status `json:"fleet"`
	}
	joinDeadline := time.Now().Add(20 * time.Second)
	for len(mv.Fleet.Workers) < 2 {
		if time.Now().After(joinDeadline) {
			t.Fatalf("only %d worker processes joined", len(mv.Fleet.Workers))
		}
		getJSON(t, base+"/api/v1/metrics", &mv)
		time.Sleep(20 * time.Millisecond)
	}

	req := jobRequest{
		Template: "data24k", Criterion: "max-ce", TempC: 55,
		Generations: 10, Population: 8, Workers: 2, Seed: 99, Rows: 32, Runs: 16,
	}
	if code := postJSON(t, base+"/api/v1/jobs", req, nil); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	killDeadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(killDeadline) {
			t.Fatal("job never reached generation 2")
		}
		var view jobView
		getJSON(t, base+"/api/v1/jobs/1", &view)
		if view.State.String() == "done" {
			t.Fatal("job finished before the kill; slow the search down")
		}
		if view.Generation >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := w1.Process.Kill(); err != nil { // SIGKILL: no report, no goodbye
		t.Fatal(err)
	}
	w1.Wait()

	var finished jobView
	if code := getJSON(t, base+"/api/v1/jobs/1/wait", &finished); code != http.StatusOK {
		t.Fatalf("wait: HTTP %d", code)
	}
	if finished.State.String() != "done" || finished.Result == nil {
		t.Fatalf("job after worker kill: state %s, error %q",
			finished.State, finished.Error)
	}
	getJSON(t, base+"/api/v1/metrics", &mv)
	if mv.Fleet.RemoteTasks == 0 {
		t.Fatalf("no evaluations ran on the worker processes: %+v", mv.Fleet)
	}
	t.Logf("fleet after kill: requeues=%d workerExpiries=%d remoteTasks=%d",
		mv.Fleet.Requeues, mv.Fleet.WorkerExpiries, mv.Fleet.RemoteTasks)

	// Reference: the same search on a plain in-process daemon, no fleet.
	ref := fleetVariant(t, req, 0, false)
	if *finished.Result != ref {
		t.Fatalf("fleet run with a killed worker diverged from local:\n got %+v\nwant %+v",
			*finished.Result, ref)
	}
}
