package main

import (
	"fmt"
	"net/http"
	"testing"

	"dstress/internal/islands"
	"dstress/internal/predict"
)

// islandsJobRequest is the canonical small island submission the tests run:
// two islands with screening enabled, sized so migration and the surrogate
// both engage within four generations.
func islandsJobRequest(det string) jobRequest {
	return jobRequest{
		Template: "data64", Criterion: "max-ce", TempC: 55,
		Generations: 4, Population: 8, Workers: 2, Seed: 4321, Rows: 4, Runs: 2,
		Determinism: det,
		Islands:     &islands.Config{Count: 2, MigrateEvery: 2, MigrateCount: 2},
		Surrogate: &predict.ScreenPolicy{
			Enabled: true, Overbreed: 2, MinTrain: 16, Neighbors: 4, Capacity: 64,
		},
	}
}

// TestIslandsFleetBitIdentical is the daemon-level acceptance scenario: the
// same island job with zero fleet workers (pure local farm) and with two
// in-process fleet workers must produce identical results, under both
// determinism contracts.
func TestIslandsFleetBitIdentical(t *testing.T) {
	for _, det := range []string{"v1", "v2"} {
		req := islandsJobRequest(det)
		ref := fleetVariant(t, req, 0, false)
		if got := fleetVariant(t, req, 2, false); got != ref {
			t.Fatalf("det %s: 2 fleet workers diverged from local:\n got %+v\nwant %+v",
				det, got, ref)
		}
	}
}

// TestIslandsJobSubmitEndToEnd submits an island job with surrogate
// screening over the versioned API and checks both the job result and the
// /metrics islands section it must populate.
func TestIslandsJobSubmitEndToEnd(t *testing.T) {
	_, ts := testDaemon(t, 4, true)

	var status struct {
		ID int `json:"id"`
	}
	code := postJSON(t, ts.URL+"/api/v1/jobs", islandsJobRequest("v2"), &status)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	view := waitJob(t, ts, fmt.Sprint(status.ID))
	if view.State.String() != "done" || view.Result == nil {
		t.Fatalf("island job: state %s, error %q", view.State, view.Error)
	}
	if view.Result.Evaluations == 0 || view.Result.Generations != 4 {
		t.Fatalf("island job result incomplete: %+v", view.Result)
	}

	var mv struct {
		Islands islands.MetricsSnapshot `json:"islands"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/metrics", &mv); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	snap := mv.Islands
	if snap.Searches != 1 || snap.Migrations == 0 || snap.ScreenedOut == 0 ||
		snap.SurrogatePredictions == 0 || len(snap.Islands) != 2 {
		t.Fatalf("islands metrics incomplete after the job: %+v", snap)
	}
	for i, st := range snap.Islands {
		if st.Island != i || st.Generation != 4 || st.Best <= 0 {
			t.Fatalf("island stat %d incomplete: %+v", i, st)
		}
	}
}

// TestIslandsBadSubmissionRejected: a malformed island or screening
// configuration is a 400 at submission time, never a job that fails later.
func TestIslandsBadSubmissionRejected(t *testing.T) {
	_, ts := testDaemon(t, 4, false)
	cases := []struct {
		name string
		req  jobRequest
	}{
		{"too many islands", jobRequest{
			Template: "data64", Generations: 1, Population: 8, Runs: 1,
			Islands: &islands.Config{Count: 65},
		}},
		{"migrants exceed population", jobRequest{
			Template: "data64", Generations: 1, Population: 8, Runs: 1,
			Islands: &islands.Config{Count: 2, MigrateCount: 8},
		}},
		{"unknown surrogate version", jobRequest{
			Template: "data64", Generations: 1, Population: 8, Runs: 1,
			Surrogate: &predict.ScreenPolicy{Enabled: true, Version: 99},
		}},
		{"capacity below min_train", jobRequest{
			Template: "data64", Generations: 1, Population: 8, Runs: 1,
			Surrogate: &predict.ScreenPolicy{
				Enabled: true, MinTrain: 100, Capacity: 50,
			},
		}},
	}
	for _, tc := range cases {
		var body errorBody
		code := postJSON(t, ts.URL+"/api/v1/jobs", tc.req, &body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, code)
		}
		if body.Error.Code != "bad_request" {
			t.Errorf("%s: error code %q, want bad_request", tc.name, body.Error.Code)
		}
	}
}

// TestIslandsMetricsSections pins the metrics contract after an island job:
// /api/v1/metrics serves every section, with the islands and eval sections
// populated by the job.
func TestIslandsMetricsSections(t *testing.T) {
	_, ts := testDaemon(t, 4, false)

	// One finished island job first, so the sections are non-trivial.
	var status struct {
		ID int `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/jobs", islandsJobRequest("v2"),
		&status); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if view := waitJob(t, ts, fmt.Sprint(status.ID)); view.State.String() != "done" {
		t.Fatalf("island job: state %s, error %q", view.State, view.Error)
	}

	var v1 map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/metrics", &v1); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	for _, section := range []string{"farm", "cache", "scheduler", "islands", "fleet", "eval"} {
		if _, ok := v1[section]; !ok {
			t.Errorf("section %q missing", section)
		}
	}
	isl, ok := v1["islands"].(map[string]any)
	if !ok || isl["searches"].(float64) < 1 || isl["migrations"].(float64) < 1 {
		t.Fatalf("islands section not populated: %+v", v1["islands"])
	}
	// The v2 job above ran through the batch engine, so the eval section must
	// show batched work and a warm scratch pool.
	ev, ok := v1["eval"].(map[string]any)
	if !ok || ev["batch_items"].(float64) < 1 || ev["batch_calls"].(float64) < 1 {
		t.Fatalf("eval section not populated: %+v", v1["eval"])
	}
	if ev["pool_hit_rate"].(float64) <= 0 {
		t.Fatalf("eval pool never warmed: %+v", v1["eval"])
	}
}
