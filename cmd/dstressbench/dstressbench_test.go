package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke scale, traced, against a daemon
// built from this tree, and checks the benchmark's own promises: each
// metric BENCHMARK.json names is printed with its unit, every result passes
// its golden and replay checks, a tampered golden is caught, and the client
// stays within nproc connections.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dstressd and runs four workloads")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	repo, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dstressd")
	if err := buildDaemon(ctx, repo, bin); err != nil {
		t.Fatal(err)
	}
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	clients := min(2, runtime.NumCPU())
	conns := &connCounter{}
	e := &env{daemonBin: bin, dataDir: dir, scaleName: "smoke", sc: scales()["smoke"],
		clients: clients, conns: conns, hc: newHTTPClient(conns, clients), golden: golden}

	var out bytes.Buffer
	start := time.Now()
	for _, w := range e.sc.workloads {
		rep, err := e.run(ctx, w, defaultSeed, time.Second, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct {
			t.Errorf("%s: incorrect run: %v", w.name, rep.Problems)
		}
		if g, ok := golden["smoke"][w.name]; !ok || g.Clients == clients && g.Digest != rep.Digest {
			t.Errorf("%s: golden.json has no matching smoke digest (run gave %s)",
				w.name, rep.Digest)
		}
		printReport(&out, rep)
	}
	t.Logf("four smoke workloads in %s", time.Since(start).Round(time.Millisecond))

	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(e.sc.workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d",
			len(spec.Workloads), len(e.sc.workloads))
	}
	for _, w := range spec.Workloads {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.Name+" "+m.Name) +
				` \S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
			if !line.Match(out.Bytes()) {
				t.Errorf("no %q line with unit %q", w.Name+" "+m.Name, m.Unit)
			}
		}
	}
	if n := len(spec.EndToEnd) + len(spec.PerLayer); n != len(endToEnd)+len(perLayer) {
		t.Errorf("BENCHMARK.json names %d metrics, the benchmark reports %d", n,
			len(endToEnd)+len(perLayer))
	}

	if peak := conns.peak.Load(); peak > int64(runtime.NumCPU()) {
		t.Errorf("client held %d connections at once on %d CPUs", peak, runtime.NumCPU())
	}

	// A tampered golden must fail the run.
	w := e.sc.workloads[1]
	g := golden["smoke"][w.name]
	g.Digest = strings.Repeat("0", len(g.Digest))
	e.golden = goldenFile{"smoke": {w.name: g}}
	rep, err := e.run(ctx, w, defaultSeed, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("%s: a tampered golden digest passed the check", w.name)
	}
}
