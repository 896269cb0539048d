package main

import (
	"encoding/json"
	"testing"
)

// FuzzJobRequest drives the shared request parser with arbitrary submission
// bodies. It must never panic, every request it accepts must be within the
// size caps, and an accepted request must survive the trip a fleet worker's
// evaluation context takes — json.Marshal, then parse again — with the same
// spec, criterion and determinism contract.
func FuzzJobRequest(f *testing.F) {
	// Seeds: the submission bodies the daemon tests send.
	for _, req := range []jobRequest{
		{Template: "data64", Criterion: "max-ce", TempC: 55, Generations: 2,
			Population: 6, Workers: 2, Runs: 2},
		{Template: "data512k", Rows: 128, Generations: 10000, Workers: 1, Runs: 10},
		{Template: "data24k", Criterion: "max-ce", TempC: 55, Generations: 10,
			Population: 8, Workers: 2, Seed: 77, Rows: 32, Runs: 16},
		{Template: "data64", Generations: 1, Population: 4, Runs: 1, Priority: 1_000_000},
		{Template: "data64", Generations: 1, Population: 4, Runs: 1, Determinism: "v3"},
		{Template: "warp-drive"},
		{Criterion: "most-errors"},
		{Template: "access-rows", Fill: "0xNOPE"},
		{Rows: maxRows + 1},
		{Population: maxPopulation + 1},
		islandsJobRequest("v2"),
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte("{"))
	f.Add([]byte(`{"template":"nope"}`))
	f.Add([]byte(`{"template":"access-coeffs","fill":"0x5555555555555555",` +
		`"criterion":"max-ue","determinism":"v2","rows":65536,"population":4096}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req jobRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		spec, crit, det, err := parseJobRequest(req)
		if err != nil {
			return
		}
		if req.Rows > maxRows || req.Population > maxPopulation {
			t.Fatalf("accepted rows %d, population %d past the caps",
				req.Rows, req.Population)
		}
		shipped, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		var rebuilt jobRequest
		if err := json.Unmarshal(shipped, &rebuilt); err != nil {
			t.Fatalf("shipped request does not unmarshal: %v", err)
		}
		spec2, crit2, det2, err := parseJobRequest(rebuilt)
		if err != nil {
			t.Fatalf("round-tripped request rejected: %v", err)
		}
		if spec2.Name() != spec.Name() || crit2 != crit || det2 != det {
			t.Fatalf("round trip changed the environment: %s/%s/%v -> %s/%s/%v",
				spec.Name(), crit, det, spec2.Name(), crit2, det2)
		}
	})
}
