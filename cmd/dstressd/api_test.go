package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dstress/internal/virusdb"
)

// errorBody decodes the daemon-wide error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// doRaw performs one request with an optional body and decodes the envelope.
func doRaw(t *testing.T, method, url, body string) (int, string, errorBody) {
	t.Helper()
	var rdr *strings.Reader
	if body == "" {
		rdr = strings.NewReader("")
	} else {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	return resp.StatusCode, resp.Header.Get("Content-Type"), eb
}

// TestErrorEnvelopeEverywhere drives every endpoint of the surface into an
// error and asserts the one true envelope: HTTP status, a machine-readable
// code, a human message and a JSON content type.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	_, tsNoDB := testDaemon(t, 2, false) // virusdb 404s without a database
	_, tsDB := testDaemon(t, 2, true)

	cases := []struct {
		name         string
		ts           string
		method, path string
		body         string
		status       int
		code         string
	}{
		{"submit bad json", tsNoDB.URL, "POST", "/api/v1/jobs", "{", 400, "bad_request"},
		{"submit bad template", tsNoDB.URL, "POST", "/api/v1/jobs",
			`{"template":"nope"}`, 400, "bad_request"},
		{"job bad id", tsNoDB.URL, "GET", "/api/v1/jobs/abc", "", 400, "bad_request"},
		{"job unknown", tsNoDB.URL, "GET", "/api/v1/jobs/999", "", 404, "not_found"},
		{"wait unknown", tsNoDB.URL, "GET", "/api/v1/jobs/999/wait", "", 404, "not_found"},
		{"cancel unknown", tsNoDB.URL, "POST", "/api/v1/jobs/999/cancel", "", 404, "not_found"},
		{"virusdb without db", tsNoDB.URL, "GET", "/api/v1/virusdb", "", 404, "not_found"},
		{"virusdb bad limit", tsDB.URL, "GET", "/api/v1/virusdb?experiment=e&limit=x",
			"", 400, "bad_request"},
		{"virusdb bad offset", tsDB.URL, "GET", "/api/v1/virusdb?experiment=e&offset=-1",
			"", 400, "bad_request"},
		{"virusdb bad min_fitness", tsDB.URL, "GET",
			"/api/v1/virusdb?experiment=e&min_fitness=x", "", 400, "bad_request"},
		{"unknown path", tsNoDB.URL, "GET", "/api/v1/no/such", "", 404, "not_found"},
		{"catch-all legacy", tsNoDB.URL, "GET", "/nope", "", 404, "not_found"},
		{"fleet bad body", tsNoDB.URL, "POST", "/api/v1/fleet/join", "{", 400, "bad_request"},
		{"fleet unknown worker", tsNoDB.URL, "POST", "/api/v1/fleet/heartbeat",
			`{"worker_id":"ghost"}`, 404, "unknown_worker"},
	}
	for _, c := range cases {
		status, ctype, eb := doRaw(t, c.method, c.ts+c.path, c.body)
		if status != c.status {
			t.Errorf("%s: HTTP %d, want %d", c.name, status, c.status)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("%s: Content-Type %q", c.name, ctype)
		}
		if eb.Error.Code != c.code {
			t.Errorf("%s: code %q, want %q", c.name, eb.Error.Code, c.code)
		}
		if eb.Error.Message == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
}

// TestVirusDBPaging: limit/offset/min_fitness slice the strongest-first
// record list deterministically.
func TestVirusDBPaging(t *testing.T) {
	d, ts := testDaemon(t, 2, true)
	for i, fit := range []float64{3, 1, 5, 2, 4} {
		err := d.db.Append(virusdb.Record{
			Experiment: "e", Bits: "0101", Fitness: fit, Generation: i,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fitnesses := func(url string) []float64 {
		var recs []virusdb.Record
		if code := getJSON(t, url, &recs); code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", url, code)
		}
		out := make([]float64, len(recs))
		for i, r := range recs {
			out[i] = r.Fitness
		}
		return out
	}
	base := ts.URL + "/api/v1/virusdb?experiment=e"
	cases := []struct {
		query string
		want  []float64
	}{
		{"", []float64{5, 4, 3, 2, 1}},
		{"&limit=2", []float64{5, 4}},
		{"&limit=2&offset=1", []float64{4, 3}},
		{"&offset=4", []float64{1}},
		{"&offset=99", []float64{}},
		{"&min_fitness=3", []float64{5, 4, 3}},
		{"&min_fitness=3&limit=1&offset=1", []float64{4}},
	}
	for _, c := range cases {
		got := fitnesses(base + c.query)
		if len(got) != len(c.want) {
			t.Errorf("%q: got %v, want %v", c.query, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%q: got %v, want %v", c.query, got, c.want)
				break
			}
		}
	}
	// An unknown experiment is an empty page, not null and not an error.
	if got := fitnesses(ts.URL + "/api/v1/virusdb?experiment=ghost"); len(got) != 0 {
		t.Errorf("ghost experiment returned %v", got)
	}

	// Damage the last appended frame (fitness 4) on disk: a page holding it
	// is a 500 envelope, never other bits; pages that miss it still serve.
	segs, _ := filepath.Glob(filepath.Join(d.db.Path(), "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("%d segments", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if status, _, eb := doRaw(t, "GET", base+"&limit=2", ""); status != http.StatusInternalServerError ||
		eb.Error.Code != "internal" {
		t.Errorf("page over a damaged frame: HTTP %d, code %q", status, eb.Error.Code)
	}
	if got := fitnesses(base + "&offset=2"); len(got) != 3 || got[0] != 3 {
		t.Errorf("page past the damaged frame: %v", got)
	}
}

// TestIslandsBadSubmissionRejected: a submission carrying a key the request
// does not know is a 400 naming the key, never a job that runs with the key
// ignored. That covers the island model's "islands" and "surrogate" keys,
// which earlier builds ran as an island search, and a misspelt field, which
// would otherwise run the default it meant to override.
func TestIslandsBadSubmissionRejected(t *testing.T) {
	_, ts := testDaemon(t, 4, false)
	for _, tc := range []struct{ key, body string }{
		{"islands", islandsJobBody},
		{"islands", `{"template":"data64","generations":1,"population":8,"runs":1,` +
			`"islands":{"count":2}}`},
		{"surrogate", `{"template":"data64","generations":1,"population":8,"runs":1,` +
			`"surrogate":{"enabled":true}}`},
		{"generatoins", `{"template":"data64","generatoins":3,"population":8,"runs":1}`},
	} {
		code, _, body := doRaw(t, http.MethodPost, ts.URL+"/api/v1/jobs", tc.body)
		if code != http.StatusBadRequest || body.Error.Code != "bad_request" {
			t.Errorf("%s: HTTP %d code %q, want 400 bad_request", tc.key, code, body.Error.Code)
		}
		if !strings.Contains(body.Error.Message, `"`+tc.key+`"`) {
			t.Errorf("%s: message %q does not name the key", tc.key, body.Error.Message)
		}
	}
	var jobs []json.RawMessage
	if code := getJSON(t, ts.URL+"/api/v1/jobs", &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("job list: HTTP %d, %d jobs after refused submissions", code, len(jobs))
	}
	code, _, body := doRaw(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"template":"data64","generations":1,"population":8,"runs":1} {}`)
	if code != http.StatusBadRequest {
		t.Errorf("a body of two objects: HTTP %d %q, want 400", code, body.Error.Message)
	}
}
