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
// `git diff BENCH_*.json` away.
//
// With -batch the tool runs the population-batched evaluation comparison (see
// batch.go): per-genome v2 evaluation vs AverageRunsBatch at populations
// 32/128/512, recorded as a "batch" section plus speedup_batch_pop* and
// batch_{allocs,bytes}_ratio_pop* derived keys.
// -merge grafts that section into an existing BENCH_*.json instead of
// parsing stdin, leaving its benchmark records untouched.
//
// Usage:
//
//	go test -run '^$' -bench . ./... | benchjson [-out file] [-indent]
//	benchjson -batch [-batch-runs n] -merge BENCH_2026.json
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
	// Derived holds fast-vs-reference speedup ratios keyed by the shared
	// benchmark name (reference ns/op divided by fast ns/op), plus the
	// batch ratios when -batch ran.
	Derived map[string]float64 `json:"derived,omitempty"`
	// Campaign is the search-strategy comparison earlier snapshots carry
	// (DESIGN.md §11). Nothing measures it any more; it is kept raw so that
	// -merge round-trips it untouched.
	Campaign json.RawMessage `json:"campaign,omitempty"`
	// Store is the virusdb persistence comparison earlier snapshots carry
	// (whole-file rewrites against seglog appends). Nothing measures it any
	// more; it is kept raw so that -merge round-trips it untouched.
	Store json.RawMessage `json:"store,omitempty"`
	// Batch is the population-batched vs per-genome evaluation comparison
	// (-batch) at growing population sizes.
	Batch *BatchBench `json:"batch,omitempty"`
	// Loadgen is the multi-tenant service load report written by
	// `loadgen -bench` (submit/wait latency percentiles, fairness ratios,
	// quota rejections). Kept raw: loadgen owns the schema and merges the
	// section itself; -merge on other sections must round-trip it untouched.
	Loadgen json.RawMessage `json:"loadgen,omitempty"`
}

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	indent := flag.Bool("indent", true, "indent the JSON output")
	batch := flag.Bool("batch", false,
		"run the batched-vs-per-genome evaluation benchmark and record its ratios")
	batchRuns := flag.Int("batch-runs", 10,
		"evaluation runs averaged per genome in the batch benchmark")
	merge := flag.String("merge", "",
		"graft the extra sections into this existing snapshot instead of reading stdin")
	flag.Parse()

	var snap *Snapshot
	var err error
	if *merge != "" {
		snap, err = loadSnapshot(*merge)
		if *out == "" {
			out = merge // -merge without -out updates the file in place
		}
	} else {
		snap, err = parse(bufio.NewScanner(os.Stdin))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	// An empty benchmark set is only an error when benchmarks are the point;
	// a batch run carries its own payload.
	if len(snap.Benchmarks) == 0 && !*batch {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *batch {
		bb, derived, err := runBatchBench([]int{32, 128, 512}, *batchRuns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		snap.Batch = bb
		mergeDerived(snap, derived)
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

// mergeDerived folds extra derived keys into the snapshot.
func mergeDerived(snap *Snapshot, derived map[string]float64) {
	if snap.Derived == nil && len(derived) > 0 {
		snap.Derived = map[string]float64{}
	}
	for k, v := range derived {
		snap.Derived[k] = v
	}
}

// loadSnapshot reads an existing BENCH_*.json for -merge.
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
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
// names differ only in a "fast" vs "reference" path element.
func derive(bs []Benchmark) map[string]float64 {
	nsOf := map[string]float64{}
	for _, b := range bs {
		if ns, ok := b.Metrics["ns/op"]; ok {
			nsOf[b.Pkg+"."+b.Name] = ns
		}
	}
	out := map[string]float64{}
	for _, b := range bs {
		full := b.Pkg + "." + b.Name
		if !strings.Contains(full, "/fast") {
			continue
		}
		refName := strings.Replace(full, "/fast", "/reference", 1)
		fastNs, okF := nsOf[full]
		refNs, okR := nsOf[refName]
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
		v2Ns, ok := nsOf[full]
		if !ok || v2Ns <= 0 {
			continue
		}
		base := strings.Replace(full, "/v2", "", 1)
		if refNs, ok := nsOf[strings.Replace(full, "/v2", "/reference", 1)]; ok {
			out["speedup_v2:"+base] = refNs / v2Ns
		}
		if fastNs, ok := nsOf[strings.Replace(full, "/v2", "/fast", 1)]; ok {
			out["speedup_v2_vs_fast:"+base] = fastNs / v2Ns
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
