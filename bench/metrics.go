package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the benchmark emits. The tables below are
// the single source of the names; BENCHMARK.json repeats them for the
// driver and a test holds the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which an end-to-end
	// metric may worsen before it counts as a regression (see AA.md for
	// how each was fixed). Per-layer metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the service would see, the same five
// on every workload, always from untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_mb_per_op", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// diagnostics are printed by untraced runs beside the end-to-end metrics
// but are not part of the result: on the recording host same-code medians
// of these two moved by up to 27 % between sets of runs, more than any
// bound the driver allows (AA.md). The closed loop has one client, so
// ops_per_s already is the reciprocal of the mean service time.
var diagnostics = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower"},
}

// perLayer are the single-layer metrics of a traced run. README.md says
// what each measures and which end-to-end metric, on which workload, it is
// expected to move.
var perLayer = []metricDef{
	// Layer walk of one cold BT-MZ.C hydra→power6-575 @64 validation.
	{Name: "walk.spec_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.imb_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.imb.16_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.imb.32_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.imb.64_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.imb.128_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.imb_tables", Unit: "count", Better: "lower"},
	{Name: "walk.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.profile_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.profiles", Unit: "count", Better: "lower"},
	{Name: "walk.ga_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.comm_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.target_run_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.render_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.total_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.direct_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "walk.abs_err_pct", Unit: "%", Better: "lower"},
	// Probes: one exported function each, fixed iteration counts.
	{Name: "des.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "des.handoff_allocs", Unit: "count", Better: "lower"},
	{Name: "mpi.sendrecv_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.allreduce_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.msgs", Unit: "count", Better: "lower"},
	{Name: "imb.table_ms.64", Unit: "ms", Better: "lower"},
	{Name: "imb.table_allocs.64", Unit: "count", Better: "lower"},
	{Name: "spec.suite_us", Unit: "us", Better: "lower"},
	{Name: "nas.profile_ms.bt_c_64", Unit: "ms", Better: "lower"},
	{Name: "nas.profile_ms.bt_d_64", Unit: "ms", Better: "lower"},
	{Name: "nas.profile_allocs.bt_c_64", Unit: "count", Better: "lower"},
	{Name: "ga.search_ms", Unit: "ms", Better: "lower"},
	{Name: "ga.evaluations", Unit: "count", Better: "lower"},
	{Name: "ga.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.comm_us", Unit: "us", Better: "lower"},
	{Name: "core.store_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "report.render_us", Unit: "us", Better: "lower"},
	{Name: "report.render_allocs", Unit: "count", Better: "lower"},
	{Name: "server.hit_us", Unit: "us", Better: "lower"},
	{Name: "server.hit_allocs", Unit: "count", Better: "lower"},
	{Name: "server.batch_item_us", Unit: "us", Better: "lower"},
	{Name: "server.loopback_rtt_us", Unit: "us", Better: "lower"},
	{Name: "durable.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "durable.append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "jobs.journal_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "jobs.journal_records_per_op", Unit: "count", Better: "lower"},
	{Name: "jobs.restart_ms", Unit: "ms", Better: "lower"},
	// Counters and tails of the workload the traced run was given.
	{Name: "workload.result_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "workload.characterisation_misses_per_op", Unit: "count", Better: "lower"},
	{Name: "workload.profile_misses_per_op", Unit: "count", Better: "lower"},
	{Name: "workload.surrogate_misses_per_op", Unit: "count", Better: "lower"},
	{Name: "workload.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "workload.mean_abs_err_pct", Unit: "%", Better: "lower"},
	{Name: "workload.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.cpu_s_per_op", Unit: "s", Better: "lower"},
	{Name: "trace.spans_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// median returns the middle value of xs (mean of the middle two when the
// count is even). xs is not modified. It panics on an empty slice: every
// caller has a fixed, non-zero sample count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs: the
// smallest sample with at least p % of the samples at or below it. With
// few samples the high percentiles are simply the maximum, which is why
// tails are per-layer diagnostics and never end-to-end metrics.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads -aa prints are the ones the driver computes. It needs at least
// two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
