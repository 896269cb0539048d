package main

import (
	"net/http"
	"strings"
	"testing"
)

// Daemon-level determinism-v2 coverage: the contract choice rides the job
// request into the fleet shard payload, so remote workers rebuild their
// evaluation environment under the same noise protocol as the coordinator's
// local farm — at any worker count, including zero.

// TestDetV2FleetEndToEndBitIdentical mirrors TestFleetEndToEndBitIdentical
// under the v2 contract: the same v2 job over 0 (pure local), 1, 2 and 4
// fleet workers produces bit-identical results.
func TestDetV2FleetEndToEndBitIdentical(t *testing.T) {
	req := jobRequest{
		Template: "data64", Criterion: "max-ce", TempC: 55,
		Generations: 3, Population: 8, Workers: 2, Seed: 1234, Rows: 4, Runs: 2,
		Determinism: "v2",
	}
	ref := fleetVariant(t, req, 0, false)
	for _, n := range []int{1, 2, 4} {
		if got := fleetVariant(t, req, n, false); got != ref {
			t.Fatalf("%d fleet workers diverged from local under v2:\n got %+v\nwant %+v",
				n, got, ref)
		}
	}

	// The contract changes the noise, not just the speed: the same job under
	// v1 must not happen to reproduce the v2 fitness trajectory. (Evaluations
	// always match — the GA runs the same shape — so compare measurements.)
	v1 := req
	v1.Determinism = "v1"
	if got := fleetVariant(t, v1, 0, false); got == ref {
		t.Fatalf("v1 and v2 runs are indistinguishable: %+v", got)
	}
}

// TestDetV2BadVersionRejected: an unknown determinism spelling is a client
// error at submission time, before anything is scheduled or journaled.
func TestDetV2BadVersionRejected(t *testing.T) {
	_, ts := testDaemon(t, 2, false)
	var body errorBody
	code := postJSON(t, ts.URL+"/api/v1/jobs", jobRequest{
		Template: "data64", Generations: 1, Population: 4, Runs: 1,
		Determinism: "v3",
	}, &body)
	if code != http.StatusBadRequest {
		t.Fatalf("bad determinism submit: HTTP %d, want 400", code)
	}
	if !strings.Contains(body.Error.Message, "determinism") {
		t.Fatalf("error %q does not mention determinism", body.Error.Message)
	}
}
