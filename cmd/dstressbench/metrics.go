package main

import (
	"math"
	"sort"
)

// metricSpec names one reported metric. The end-to-end set is what a user
// of the daemon sees; the per-layer set splits it by module. BENCHMARK.json
// lists the same names, and the smoke test holds the two in step.
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"evals_per_s", "1/s"},
	{"turnaround_ms_p50", "ms"},
	{"rss_mb_p50", "MB"},
	{"store_kb_per_job", "KiB"},
}

var perLayer = []metricSpec{
	{"dstressd.turnaround_ms_p99", "ms"},
	{"dstressd.gen_ms_p50", "ms"},
	{"dstressd.submit_ms_p50", "ms"},
	{"dstressd.submit_ms_p99", "ms"},
	{"dstressd.query_ms_p50", "ms"},
	{"dstressd.query_ms_p99", "ms"},
	{"dstressd.peak_rss_mb", "MB"},
	{"dstressd.cpu_ms_per_job", "ms"},
	{"farm.admit_wait_ms_p50", "ms"},
	{"farm.admit_wait_ms_p99", "ms"},
	{"farm.run_ms_p50", "ms"},
	{"farm.run_ms_p99", "ms"},
	{"dstressd.result_lag_ms_p50", "ms"},
	{"dstressd.sse_events_per_gen", "count"},
	{"farm.evals", "count"},
	{"farm.utilization", "frac"},
	{"farm.cache_hit_rate", "frac"},
	{"dram.plan_compiles", "count"},
	{"dram.plan_splices", "count"},
	{"dram.rows_recompiled", "count"},
	{"dram.rows_copied", "count"},
	{"dram.pool_hit_rate", "frac"},
	{"dram.cond_hit_rate", "frac"},
	{"fleet.remote_tasks", "count"},
	{"fleet.contexts_elided", "count"},
	{"fleet.worker_rss_mb_p50", "MB"},
	{"virusdb.store_mb", "MB"},
	{"journal.store_mb", "MB"},
	{"trace.core.search_s", "s"},
	{"trace.ga.gen_ms_p50", "ms"},
	{"trace.farm.eval_ms_per_gen", "ms"},
	{"trace.core.ckpt_marshal_ms_p50", "ms"},
	{"trace.farm.journal_append_ms_p50", "ms"},
	{"trace.ga.gen_self_ms_p50", "ms"},
	{"trace.core.finish_ms", "ms"},
	{"trace.core.deploy_ms", "ms"},
	{"trace.server.evaluate_batch_ms", "ms"},
	{"trace.dram.kernel_self_ms", "ms"},
	{"trace.farm.pool_batch_ms", "ms"},
	{"trace.farm.dispatch_self_ms", "ms"},
	{"trace.farm.sched_submit_ms", "ms"},
	{"trace.virusdb.records_ms", "ms"},
	{"trace.virusdb.append_ms", "ms"},
	{"trace.unattributed_frac", "frac"},
	{"trace.gap_frac", "frac"},
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-quantile (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the spread of repeated runs is judged.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
