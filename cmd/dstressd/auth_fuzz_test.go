package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadAuthConfig feeds arbitrary bytes to loadAuthConfig as the -auth
// file. Loading must never panic. A config it accepts holds at least one
// token, every token authenticates as its own tenant, and the config comes
// back unchanged when it is written out as JSON and loaded again.
func FuzzLoadAuthConfig(f *testing.F) {
	f.Add([]byte(`{"tokens":{"tok-alpha":"alpha","tok-beta":"beta","tok-ops":"ops"},` +
		`"tenants":{"alpha":{"max_jobs":1,"weight":1},"beta":{"max_jobs":6}},` +
		`"admins":["ops"]}`))
	f.Add([]byte(`{"tokens":{"t":"a"},"tenants":{"a":{"max_workers":-4}},"admins":null}`))
	f.Add([]byte(`{"tokens":{"":"a"}}`))
	f.Add([]byte(`{"tokens":{"t":""}}`))
	f.Add([]byte(`{"tokens":{}}`))
	f.Add([]byte(`{"tokens":{"t":"a","t":"b"},"tenants":{},"admins":[]}`))
	f.Add([]byte(`{"tokens":{" t\u0000\n":"\ud800"}}`))
	f.Add([]byte(`{"tokens":["t"]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))

	path := filepath.Join(f.TempDir(), "auth.json")
	load := func(t *testing.T, data []byte) (*authConfig, error) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return loadAuthConfig(path)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := load(t, data)
		if err != nil {
			return
		}
		if len(cfg.Tokens) == 0 {
			t.Fatal("config without tokens accepted")
		}
		for tok, tenant := range cfg.Tokens {
			r := httptest.NewRequest("GET", "/api/v1/jobs", nil)
			r.Header.Set("Authorization", "Bearer "+tok)
			if got, err := cfg.authenticate(r); err != nil || got != tenant {
				t.Fatalf("token %q authenticates as %q (%v), want %q", tok, got, err, tenant)
			}
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := load(t, out)
		if err != nil {
			t.Fatalf("written-out config does not load: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Fatalf("config moved across a reload:\n%+v\n%+v", cfg, back)
		}
	})
}
