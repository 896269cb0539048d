// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON snapshot — the BENCH_<date>.json files that record
// the repository's performance trajectory (see `make bench-json`).
//
// Each benchmark line becomes a record carrying every reported metric
// (ns/op, B/op, allocs/op and any b.ReportMetric extras). For fast-path /
// reference benchmark pairs (names differing only in a "fast" vs
// "reference" path element, e.g. BenchmarkAverageRuns/fast/rows-16), a
// derived speedup ratio is added; "v2" variants additionally get their
// ratio over both the reference and the fast path (speedup_v2,
// speedup_v2_vs_fast), so regressions of the dram evaluation plan are one
// `git diff BENCH_*.json` away. The population-batched evaluation pairs of
// internal/dram's BenchmarkBatchEval (single/pop=N, per-genome calls that
// are batches of one, against batch/pop=N) give speedup_batch_popN and the
// batch_allocs_ratio_popN / batch_bytes_ratio_popN reductions.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson [-out file] [-indent]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Pkg        string             `json:"pkg"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Snapshot is the emitted document.
type Snapshot struct {
	Date       string      `json:"date"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Derived holds the ratios derive computes, keyed by the benchmark
	// name they compare.
	Derived map[string]float64 `json:"derived,omitempty"`
}

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	indent := flag.Bool("indent", true, "indent the JSON output")
	flag.Parse()

	snap, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	var data []byte
	if *indent {
		data, err = json.MarshalIndent(snap, "", "  ")
	} else {
		data, err = json.Marshal(snap)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n",
		len(snap.Benchmarks), *out)
}

func parse(sc *bufio.Scanner) (*Snapshot, error) {
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	snap := &Snapshot{Date: time.Now().UTC().Format(time.RFC3339)}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "goos: "):
			snap.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(pkg, line)
			if ok {
				snap.Benchmarks = append(snap.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	snap.Derived = derive(snap.Benchmarks)
	return snap, nil
}

// parseBenchLine splits "BenchmarkName-8  1234  56.7 ns/op  8 B/op ..."
// into name, GOMAXPROCS suffix, iteration count and metric pairs.
func parseBenchLine(pkg, line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			procs = p
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Pkg: pkg, Name: name, Procs: procs, Iterations: iters,
		Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// derive computes reference/fast ns/op ratios for benchmark pairs whose
// names differ only in a "fast" vs "reference" path element, and the batch
// ratios of BenchmarkBatchEval's single/batch pairs.
func derive(bs []Benchmark) map[string]float64 {
	metricsOf := map[string]map[string]float64{}
	for _, b := range bs {
		metricsOf[b.Pkg+"."+b.Name] = b.Metrics
	}
	out := map[string]float64{}
	for _, b := range bs {
		full := b.Pkg + "." + b.Name
		if !strings.Contains(full, "/fast") {
			continue
		}
		refName := strings.Replace(full, "/fast", "/reference", 1)
		fastNs, okF := metricsOf[full]["ns/op"]
		refNs, okR := metricsOf[refName]["ns/op"]
		if okF && okR && fastNs > 0 {
			key := "speedup:" + strings.Replace(full, "/fast", "", 1)
			out[key] = refNs / fastNs
		}
	}
	// The v2 kernel gets two ratios: over the frozen plan-free reference
	// (total headroom) and over the v1 fast path (what switching the
	// determinism contract buys an unchanged workload).
	for _, b := range bs {
		full := b.Pkg + "." + b.Name
		if !strings.Contains(full, "/v2") {
			continue
		}
		v2Ns, ok := metricsOf[full]["ns/op"]
		if !ok || v2Ns <= 0 {
			continue
		}
		base := strings.Replace(full, "/v2", "", 1)
		if refNs, ok := metricsOf[strings.Replace(full, "/v2", "/reference", 1)]["ns/op"]; ok {
			out["speedup_v2:"+base] = refNs / v2Ns
		}
		if fastNs, ok := metricsOf[strings.Replace(full, "/v2", "/fast", 1)]["ns/op"]; ok {
			out["speedup_v2_vs_fast:"+base] = fastNs / v2Ns
		}
	}
	// A batched generation against per-genome calls at one population:
	// throughput, and how many fewer allocations and bytes it takes.
	for _, b := range bs {
		pop, ok := strings.CutPrefix(b.Name, "BenchmarkBatchEval/batch/pop=")
		if !ok {
			continue
		}
		single := metricsOf[b.Pkg+".BenchmarkBatchEval/single/pop="+pop]
		for _, r := range []struct{ key, metric string }{
			{"speedup_batch_pop", "ns/op"},
			{"batch_allocs_ratio_pop", "allocs/op"},
			{"batch_bytes_ratio_pop", "B/op"},
		} {
			if v, ok := single[r.metric]; ok && b.Metrics[r.metric] > 0 {
				out[r.key+pop] = v / b.Metrics[r.metric]
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
