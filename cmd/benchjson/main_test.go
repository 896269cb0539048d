package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMergeRoundTripsOldSections: -merge on a snapshot that carries
// sections nothing measures any more (the campaign section and its
// campaign_* derived keys, the store comparison) writes them back
// unchanged, alongside every other field.
func TestMergeRoundTripsOldSections(t *testing.T) {
	const path = "../../BENCH_20260808.json"
	snap, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want, got map[string]any
	if err := json.Unmarshal(orig, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"campaign", "store"} {
		if want[key] == nil {
			t.Fatalf("%s holds no %q section; the test needs one", path, key)
		}
	}
	derived := want["derived"].(map[string]any)
	for _, key := range []string{"campaign_evals_ratio", "campaign_wallclock_ratio"} {
		if _, ok := derived[key]; !ok {
			t.Fatalf("%s holds no derived %q; the test needs one", path, key)
		}
	}
	if !reflect.DeepEqual(got, want) {
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("section %q changed in the round trip", k)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("section %q appeared in the round trip", k)
			}
		}
	}
}
