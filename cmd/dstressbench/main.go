// Command dstressbench is the repository's end-to-end benchmark. It builds
// cmd/dstressd from the source tree, starts it fresh for each workload with
// a durable store and journal, and drives it over HTTP the way campaign
// users do: closed loops of submit, follow the job's progress stream, read
// the experiment's top page. It prints one line per metric as
// "workload metric value unit", then one JSON summary line, and it checks
// every result: each HTTP result must equal an in-process replay of the same
// job, and at the golden seed the first jobs must match golden.json.
//
// A traced run (-trace 1) also replays jobs in-process with spans around
// the public calls dstressd's runSearch makes, splitting the time into the
// layers the per-layer metrics name; the spans are written to -trace-out.
//
// Usage, from the repository root (cmd/dstressbench/run.sh builds and runs
// it with the build cache kept under .bench_build/):
//
//	dstressbench -repo . [-workload all|NAME] [-seed N] [-seconds N]
//	             [-trace 0|1] [-trace-out FILE] [-json FILE]
//	             [-clients N] [-scale full|smoke] [-sets N -runs R]
//	             [-update-golden]
//
// -sets N runs the workload list N times (alternating its order), -runs
// times each per set with a fresh seed every time, and prints each
// end-to-end metric's per-set median and spread against its bound in
// BENCHMARK.json; it exits non-zero if two sets disagree by more than a
// bound.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	repo, dataDir, workload, scale, traceOut, jsonOut string
	seed                                              uint64
	seconds, trace, clients, sets, runs               int
	updateGolden                                      bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("dstressbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.repo, "repo", ".", "repository root to build dstressd from")
	fs.StringVar(&c.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&c.seed, "seed", defaultSeed, "seed every job and store derives from")
	fs.IntVar(&c.seconds, "seconds", 25, "measured window per run, in seconds")
	fs.IntVar(&c.trace, "trace", 0, "1: also replay jobs in-process with spans "+
		"and report the per-layer metrics")
	fs.StringVar(&c.traceOut, "trace-out", "", "span file of a traced run "+
		"(default <repo>/.bench_build/data/trace-<workload>.json)")
	fs.StringVar(&c.jsonOut, "json", "", "also write the full report here")
	fs.IntVar(&c.clients, "clients", min(2, runtime.NumCPU()),
		"closed-loop clients of the storm, one tenant each; at most nproc")
	fs.StringVar(&c.scale, "scale", "full", "full, or smoke for the test's small jobs")
	fs.IntVar(&c.sets, "sets", 0, "agreement mode: run the workload list this many times")
	fs.IntVar(&c.runs, "runs", 10, "runs per workload in each set")
	fs.BoolVar(&c.updateGolden, "update-golden", false,
		"record the golden digests of this scale at -seed into golden.json")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if nproc := runtime.NumCPU(); c.clients < 1 || c.clients > nproc {
		return c, fmt.Errorf("-clients %d: must be between 1 and nproc (%d), "+
			"or the client competes with the daemon for CPUs", c.clients, nproc)
	}
	if c.trace != 0 && c.trace != 1 {
		return c, fmt.Errorf("-trace %d: want 0 or 1", c.trace)
	}
	if c.seconds < 1 {
		return c, fmt.Errorf("-seconds %d: want at least 1", c.seconds)
	}
	if c.sets < 0 || c.runs < 1 {
		return c, fmt.Errorf("-sets %d -runs %d: want sets >= 0, runs >= 1", c.sets, c.runs)
	}
	if _, ok := scales()[c.scale]; !ok {
		return c, fmt.Errorf("-scale %q: want full or smoke", c.scale)
	}
	c.dataDir = filepath.Join(c.repo, ".bench_build", "data")
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "dstressbench:", err)
		}
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok, err := bench(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "dstressbench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// bench sets up the shared environment and runs the selected mode. It
// reports whether every run was correct (and, with -sets, every set agreed).
func bench(ctx context.Context, cfg config, stdout io.Writer) (bool, error) {
	sc := scales()[cfg.scale]
	var list []workload
	for _, w := range sc.workloads {
		if cfg.workload == "all" || cfg.workload == w.name {
			list = append(list, w)
		}
	}
	if len(list) == 0 {
		return false, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return false, err
	}
	bin, err := filepath.Abs(filepath.Join(cfg.repo, ".bench_build", "dstressd"))
	if err != nil {
		return false, err
	}
	if err := buildDaemon(ctx, cfg.repo, bin); err != nil {
		return false, err
	}
	conns := &connCounter{}
	e := &env{daemonBin: bin, dataDir: cfg.dataDir, traceOut: cfg.traceOut,
		scaleName: cfg.scale, sc: sc, clients: cfg.clients, conns: conns,
		hc: newHTTPClient(conns, cfg.clients), golden: golden}
	if cfg.updateGolden {
		e.golden = nil // the digests being replaced are not the reference
	}
	fp := fingerprint(cfg)
	fmt.Fprintln(stdout, "# "+fp.String())

	if cfg.sets > 0 {
		return agreement(ctx, e, cfg, list, stdout)
	}
	window := time.Duration(cfg.seconds) * time.Second
	var reps []*report
	for _, w := range list {
		rep, err := e.run(ctx, w, cfg.seed, window, cfg.trace == 1)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(stdout, rep)
		reps = append(reps, rep)
	}
	if cfg.updateGolden {
		if err := updateGolden(cfg, golden, reps); err != nil {
			return false, err
		}
	}
	if cfg.jsonOut != "" {
		data, err := json.MarshalIndent(map[string]any{"fingerprint": fp, "runs": reps},
			"", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(cfg.jsonOut, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	sum, ok := summary(reps, cfg.trace == 1)
	fmt.Fprintln(stdout, sum)
	return ok, nil
}

// printReport writes the "workload metric value unit" lines and any problem.
func printReport(w io.Writer, rep *report) {
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			if v, ok := rep.Values[m.name]; ok {
				fmt.Fprintf(w, "%s %s %.6g %s\n", rep.Workload, m.name, v, m.unit)
			}
		}
	}
	fmt.Fprintf(w, "%s attempted %d failed %d jobs %d generation_gaps %d\n",
		rep.Workload, rep.Attempted, rep.Failed, rep.Samples["jobs"],
		rep.Samples["generation_gaps"])
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "%s problem: %s\n", rep.Workload, p)
	}
}

// summary is the closing JSON line: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one. With several workloads the
// metric names carry a "workload/" prefix.
func summary(reps []*report, trace bool) (string, bool) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, rep := range reps {
		out.Correct = out.Correct && rep.Correct
		out.Attempted += rep.Attempted
		out.Failed += rep.Failed
		for _, m := range specs {
			v, ok := rep.Values[m.name]
			if !ok {
				out.Correct = false
				continue
			}
			name := m.name
			if len(reps) > 1 {
				name = rep.Workload + "/" + name
			}
			out.Metrics[name] = value{v, m.unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil { // a NaN or Inf slipped through: the run measured nothing
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`,
			out.Attempted, out.Failed+1), false
	}
	return string(data), out.Correct
}

// fingerprintInfo records what a number was measured on.
type fingerprintInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	FS         string `json:"data_fs"`
	Commit     string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	Scale      string `json:"scale"`
	Clients    int    `json:"clients"`
	Seconds    int    `json:"seconds"`
}

func (f fingerprintInfo) String() string {
	return fmt.Sprintf("fingerprint nproc=%d gomaxprocs=%d cpu=%q go=%s fs=%s "+
		"commit=%s seed=%d scale=%s clients=%d seconds=%d", f.Nproc, f.GOMAXPROCS,
		f.CPU, f.Go, f.FS, f.Commit, f.Seed, f.Scale, f.Clients, f.Seconds)
}

func fingerprint(cfg config) fingerprintInfo {
	fp := fingerprintInfo{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), FS: fsType(cfg.dataDir),
		Commit: "unknown", Seed: cfg.seed, Scale: cfg.scale, Clients: cfg.clients,
		Seconds: cfg.seconds}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok &&
				strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = cfg.repo
	// An exported tree is not a repository; git must not report the commit
	// of whatever repository happens to enclose it.
	if abs, err := filepath.Abs(cfg.repo); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	}
	if out, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// fsType names the filesystem holding dir: fsync cost, and so the journal
// and virusdb layers, depend on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x9123683E: "btrfs", 0x2FC12FC1: "zfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

//go:embed golden.json
var goldenJSON []byte

// goldenFile maps scale → workload → the digest of the first jobs at the
// golden seed.
type goldenFile map[string]map[string]goldenEntry

type goldenEntry struct {
	Seed    uint64 `json:"seed"`
	Clients int    `json:"clients"`
	Digest  string `json:"digest"`
}

func parseGolden(data []byte) (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// updateGolden records the digests of runs that passed the in-process
// replay check.
func updateGolden(cfg config, g goldenFile, reps []*report) error {
	if g[cfg.scale] == nil {
		g[cfg.scale] = map[string]goldenEntry{}
	}
	for _, rep := range reps {
		if rep.Digest == "" || !rep.Correct {
			return fmt.Errorf("%s: not recording a golden digest for an incorrect run",
				rep.Workload)
		}
		g[cfg.scale][rep.Workload] = goldenEntry{Seed: cfg.seed, Clients: rep.Clients,
			Digest: rep.Digest}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.repo, "cmd", "dstressbench", "golden.json"),
		append(data, '\n'), 0o644)
}

// benchmarkSpec is the part of BENCHMARK.json agreement mode reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agreement runs the workload list cfg.sets times, alternating its order,
// and compares each end-to-end metric's per-set medians against its bound.
func agreement(ctx context.Context, e *env, cfg config, list []workload,
	stdout io.Writer) (bool, error) {
	data, err := os.ReadFile(filepath.Join(cfg.repo, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	window := time.Duration(cfg.seconds) * time.Second
	// vals[workload][metric][set] holds one value per run.
	vals := map[string]map[string][][]float64{}
	ok := true
	for s := 0; s < cfg.sets; s++ {
		order := append([]workload(nil), list...)
		if s%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			for r := 0; r < cfg.runs; r++ {
				seed := cfg.seed + uint64(s*cfg.runs+r)
				rep, err := e.run(ctx, w, seed, window, false)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if !rep.Correct {
					ok = false
					printReport(stdout, rep)
				}
				if vals[w.name] == nil {
					vals[w.name] = map[string][][]float64{}
				}
				for _, m := range spec.EndToEnd {
					per := vals[w.name][m.Name]
					for len(per) <= s {
						per = append(per, nil)
					}
					per[s] = append(per[s], rep.Values[m.Name])
					vals[w.name][m.Name] = per
				}
			}
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wn := range names {
		for _, m := range spec.EndToEnd {
			per := vals[wn][m.Name]
			var meds []string
			worstSpread, worstDrift := 0.0, 0.0
			first := median(per[0])
			for _, xs := range per {
				med := median(xs)
				meds = append(meds, fmt.Sprintf("%.6g", med))
				worstSpread = max(worstSpread, spread(xs))
				drift := (med - first) / first
				if m.Better == "higher" {
					drift = -drift
				}
				worstDrift = max(worstDrift, drift)
			}
			verdict := "ok"
			if worstDrift > m.Bound || (m.Name != "setup_s" && worstSpread > m.Bound) {
				verdict = "OVER"
				ok = false
			}
			fmt.Fprintf(stdout, "%s %s set_medians=[%s] spread=%.3f drift=%.3f bound=%.2f %s\n",
				wn, m.Name, strings.Join(meds, " "), worstSpread, worstDrift, m.Bound, verdict)
		}
	}
	return ok, nil
}
