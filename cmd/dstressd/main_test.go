package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dstress/internal/farm"
	"dstress/internal/fleet"
	"dstress/internal/virusdb"
)

func testDaemon(t *testing.T, budget int, withDB bool) (*daemon, *httptest.Server) {
	t.Helper()
	var db *virusdb.DB
	if withDB {
		var err error
		db, err = virusdb.Open(filepath.Join(t.TempDir(), "viruses.json"))
		if err != nil {
			t.Fatal(err)
		}
	}
	d, err := newDaemon(budget, 4, 7, db, nil, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		d.sched.Close()
		d.sched.Wait()
		ts.Close()
	})
	return d, ts
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitJob polls the job endpoint until the job leaves pending/running.
func waitJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var view jobView
		if code := getJSON(t, ts.URL+"/api/v1/jobs/"+id, &view); code != http.StatusOK {
			t.Fatalf("GET job: HTTP %d", code)
		}
		switch view.State.String() {
		case "done":
			// A done job's result is set with its state: a done view
			// without one is the window before the journal retires it.
			if view.Result == nil {
				t.Fatalf("job %s is done but its view carries no result", id)
			}
			return view
		case "failed", "canceled":
			return view
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return jobView{}
}

// TestJobViewCarriesResultOnceDone polls durable jobs' views as they
// finish: a view that says done must carry the result. The scheduler closes
// Done() only after the journal's fsynced retirement of the job, so a view
// keyed on Done() answers done without a result for that long; a tight
// poll catches that window on most jobs.
func TestJobViewCarriesResultOnceDone(t *testing.T) {
	jl, err := farm.OpenJournal(filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	s, err := farm.NewScheduler(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Wait()
	defer s.Close()
	s.SetJournal(jl)
	for i := 0; i < 50; i++ {
		j, err := s.SubmitDurable(farm.JobSpec{Name: "quick", Workers: 1,
			Payload: json.RawMessage(`{}`)},
			func(context.Context, *farm.Job) (any, error) {
				return jobResult{BestFitness: 1}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for {
			v := viewOf(j)
			if v.State == farm.JobPending || v.State == farm.JobRunning {
				continue
			}
			if v.State != farm.JobDone || v.Result == nil {
				t.Fatalf("job %d: state %v with result %v", i, v.State, v.Result)
			}
			break
		}
		<-j.Done()
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	_, ts := testDaemon(t, 4, true)

	var status struct {
		ID int `json:"id"`
	}
	code := postJSON(t, ts.URL+"/api/v1/jobs", jobRequest{
		Template:    "data64",
		Criterion:   "max-ce",
		TempC:       55,
		Generations: 2,
		Population:  6,
		Workers:     2,
		Runs:        2,
	}, &status)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if status.ID != 1 {
		t.Fatalf("job id = %d", status.ID)
	}

	view := waitJob(t, ts, "1")
	if view.State.String() != "done" {
		t.Fatalf("job finished %s (error %q)", view.State, view.Error)
	}
	if view.Result == nil {
		t.Fatal("finished job has no result")
	}
	if view.Result.Experiment != "data64/max-ce/55C" {
		t.Fatalf("experiment = %q", view.Result.Experiment)
	}
	if view.Result.Population != 6 || view.Result.Evaluations == 0 {
		t.Fatalf("result = %+v", view.Result)
	}

	// The shared database recorded the final population.
	var dbInfo struct {
		Experiments []string `json:"experiments"`
		Records     int      `json:"records"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/virusdb", &dbInfo); code != http.StatusOK {
		t.Fatalf("virusdb: HTTP %d", code)
	}
	if len(dbInfo.Experiments) != 1 || dbInfo.Records != 6 {
		t.Fatalf("virusdb = %+v", dbInfo)
	}
	var recs []virusdb.Record
	getJSON(t, ts.URL+"/api/v1/virusdb?experiment=data64/max-ce/55C&limit=3", &recs)
	if len(recs) != 3 || recs[0].Fitness < recs[2].Fitness {
		t.Fatalf("top records = %+v", recs)
	}

	// Metrics counted the evaluations and the cache traffic.
	var mv metricsView
	if code := getJSON(t, ts.URL+"/api/v1/metrics", &mv); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if mv.Farm.Evaluations == 0 {
		t.Fatalf("no evaluations in metrics: %+v", mv.Farm)
	}
	if mv.Cache.Hits+mv.Cache.Misses == 0 {
		t.Fatalf("no cache traffic: %+v", mv.Cache)
	}
	if len(mv.Sched.Jobs) != 1 || mv.Sched.InUse != 0 {
		t.Fatalf("scheduler view = %+v", mv.Sched)
	}

	// The job list mirrors the same state.
	var jobs []json.RawMessage
	if code := getJSON(t, ts.URL+"/api/v1/jobs", &jobs); code != http.StatusOK || len(jobs) != 1 {
		t.Fatalf("job list: HTTP %d, %d jobs", code, len(jobs))
	}
}

// TestMetricsSections pins the metrics contract: after a v2 job,
// /api/v1/metrics serves the farm, cache, scheduler, fleet and eval
// sections, and the eval section shows the batched work and a warm scratch
// pool.
func TestMetricsSections(t *testing.T) {
	_, ts := testDaemon(t, 4, false)
	var status struct {
		ID int `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/jobs", jobRequest{
		Template: "data64", Criterion: "max-ce", TempC: 55, Generations: 4,
		Population: 8, Workers: 2, Seed: 4321, Rows: 4, Runs: 2, Determinism: "v2",
	}, &status); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if view := waitJob(t, ts, fmt.Sprint(status.ID)); view.State.String() != "done" {
		t.Fatalf("job: state %s, error %q", view.State, view.Error)
	}

	var v1 map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/metrics", &v1); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	sections := []string{"farm", "cache", "scheduler", "fleet", "eval"}
	for _, section := range sections {
		if _, ok := v1[section]; !ok {
			t.Errorf("section %q missing", section)
		}
	}
	if len(v1) != len(sections) {
		t.Errorf("metrics serve %d sections, want %d: %v", len(v1), len(sections), v1)
	}
	ev, ok := v1["eval"].(map[string]any)
	if !ok || ev["batch_items"].(float64) < 1 || ev["batch_calls"].(float64) < 1 {
		t.Fatalf("eval section not populated: %+v", v1["eval"])
	}
	if ev["pool_hit_rate"].(float64) <= 0 {
		t.Fatalf("eval pool never warmed: %+v", v1["eval"])
	}
}

func TestDaemonCancelJob(t *testing.T) {
	// Budget 1: the first job holds the only worker slot, so the second is
	// deterministically still pending when the cancel arrives.
	_, ts := testDaemon(t, 1, false)

	// A 512-KByte-genome search over a big simulated DIMM: far too slow to
	// converge before the cancel below arrives.
	long := jobRequest{
		Template:    "data512k",
		Rows:        128,
		Generations: 10000, // effectively unbounded; must die by cancel
		Workers:     1,
		Runs:        10,
	}
	postJSON(t, ts.URL+"/api/v1/jobs", long, nil)
	postJSON(t, ts.URL+"/api/v1/jobs", jobRequest{Generations: 2, Population: 6,
		Runs: 1}, nil)

	if code := postJSON(t, ts.URL+"/api/v1/jobs/2/cancel", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	view := waitJob(t, ts, "2")
	if view.State.String() != "canceled" {
		t.Fatalf("cancelled pending job finished %s", view.State)
	}
	if view.Started != nil {
		t.Fatal("cancelled pending job ran anyway")
	}

	// Cancelling the running job stops the unbounded search too.
	if code := postJSON(t, ts.URL+"/api/v1/jobs/1/cancel", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("cancel running: HTTP %d", code)
	}
	if view := waitJob(t, ts, "1"); view.State.String() != "canceled" {
		t.Fatalf("cancelled running job finished %s", view.State)
	}
}

// TestWaitEndpointDisconnectAndCompletion pins the long-poll contract: a
// client that gives up mid-job releases its handler immediately (no
// goroutine parked on j.Done() until the job ends), and a patient client
// gets the finished view the moment the job settles.
func TestWaitEndpointDisconnectAndCompletion(t *testing.T) {
	_, ts := testDaemon(t, 1, false)

	long := jobRequest{
		Template:    "data512k",
		Rows:        128,
		Generations: 10000, // effectively unbounded; must die by cancel
		Workers:     1,
		Runs:        10,
	}
	postJSON(t, ts.URL+"/api/v1/jobs", long, nil)

	// Several clients connect to /wait and hang up almost immediately.
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/api/v1/jobs/1/wait", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			t.Fatal("/wait returned while the job was still running")
		}
		cancel()
	}
	// The handlers must unwind while the job is still running; leaked ones
	// would keep their goroutines parked until the job ends.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck after client disconnects: %d, baseline %d",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A patient waiter is released by the job finishing.
	go func() {
		time.Sleep(100 * time.Millisecond)
		postJSON(t, ts.URL+"/api/v1/jobs/1/cancel", struct{}{}, nil)
	}()
	var view jobView
	if code := getJSON(t, ts.URL+"/api/v1/jobs/1/wait", &view); code != http.StatusOK {
		t.Fatalf("/wait: HTTP %d", code)
	}
	if view.State.String() != "canceled" {
		t.Fatalf("/wait returned state %s", view.State)
	}
}

// TestWriteJSONEncodeFailure pins the fix for the header-then-fail bug: an
// unencodable value (NaN) must produce a 500 with an error body, not a 200
// status line glued to a broken body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Fatalf("body = %q, want an error document", rec.Body.String())
	}
}

func TestDaemonRejectsBadRequests(t *testing.T) {
	_, ts := testDaemon(t, 1, false)
	cases := []jobRequest{
		{Template: "warp-drive"},
		{Criterion: "most-errors"},
		{Template: "access-rows", Fill: "0xNOPE"},
		// Tenant-controlled sizes are capped: one oversized job would take
		// the daemon (and every fleet worker rebuilding it) down.
		{Rows: 1_000_000_000},
		{Rows: maxRows + 1},
		{Population: maxPopulation + 1},
		{Name: strings.Repeat("x", maxRequestBytes)}, // body over the cap
	}
	for i, req := range cases {
		var body errorBody
		code := postJSON(t, ts.URL+"/api/v1/jobs", req, &body)
		if code != http.StatusBadRequest || body.Error.Code != "bad_request" {
			t.Errorf("case %d: HTTP %d code %q, want 400 bad_request",
				i, code, body.Error.Code)
		}
	}
	if code := getJSON(t, ts.URL+"/api/v1/jobs/99", nil); code != http.StatusNotFound {
		t.Errorf("missing job: HTTP %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/virusdb", nil); code != http.StatusNotFound {
		t.Errorf("virusdb without db: HTTP %d", code)
	}
}
