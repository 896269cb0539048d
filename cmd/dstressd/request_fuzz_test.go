package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// islandsJobBody is a submission an earlier build accepted and ran as an
// island model with surrogate screening, as its journal recorded it. This
// build has no such search and must refuse it rather than run a classic one
// under its name.
const islandsJobBody = `{"name":"","template":"data64","criterion":"max-ce","temp_c":55,` +
	`"generations":4,"population":8,"workers":2,"seed":4321,"rows":4,"runs":2,"fill":"",` +
	`"resume":false,"timeout_s":0,"checkpoint_every":0,"determinism":"v2",` +
	`"islands":{"count":2,"migrate_every":2,"migrate_count":2,"surrogate":{}},` +
	`"surrogate":{"enabled":true,"overbreed":2,"min_train":16,"neighbors":4,"capacity":64}}`

// FuzzJobRequest drives the daemon's request decoder and the shared request
// parser with arbitrary submission bodies. It must never panic, every
// request it accepts must be within the size caps, and an accepted request
// must survive the trip a journaled spec and a fleet worker's evaluation
// context take — json.Marshal, then decode and parse again — with the same
// spec, criterion and determinism contract.
func FuzzJobRequest(f *testing.F) {
	if _, err := decodeJobRequest(bytes.NewReader([]byte(islandsJobBody))); err == nil {
		f.Fatal("the island job decodes")
	}
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
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(islandsJobBody))
	f.Add([]byte("{"))
	f.Add([]byte(`{"template":"nope"}`))
	f.Add([]byte(`{"template":"access-coeffs","fill":"0x5555555555555555",` +
		`"criterion":"max-ue","determinism":"v2","rows":65536,"population":4096}`))
	f.Add([]byte(`{"template":"data64","generatoins":3}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJobRequest(bytes.NewReader(body))
		if err != nil {
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
		rebuilt, err := decodeJobRequest(bytes.NewReader(shipped))
		if err != nil {
			t.Fatalf("shipped request does not decode: %v", err)
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
