package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists the metrics an untraced run prints, in BENCHMARK.json
// order. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"trials_per_s", "1/s", "higher"},
	{"s_per_finding", "s", "lower"},
	{"findings", "count", "higher"},
	{"verdict_ms_p50", "ms", "lower"},
	{"verdict_ms_tail", "ms", "lower"},
	{"allocs_per_trial", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"regress_s", "s", "lower"},
	{"pass_share", "ratio", "higher"},
}

// layers are the module names spans and self times are attributed to.
var layers = []string{"event", "sched", "core", "hybrid", "harness", "corpus", "fleet", "obs"}

// perLayer lists the metrics a traced run prints, in BENCHMARK.json order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"event.callerstmt_ns", "ns", "lower"},
		{"event.stmtfor_ns", "ns", "lower"},
		{"event.accesses_per_trial", "count", "lower"},
		{"sched.ns_per_step", "ns", "lower"},
		{"sched.steps_per_trial", "count", "lower"},
		{"sched.grant_wait_us_p50", "us", "lower"},
		{"sched.grant_service_us_p50", "us", "lower"},
		{"sched.empty_rounds", "1/trial", "lower"},
		{"sched.enabled_mean", "count", "higher"},
		{"core.policy_ns_per_step", "ns", "lower"},
		{"core.decisions_per_trial", "count", "lower"},
		{"core.postpones_per_trial", "count", "lower"},
		{"core.hit_rate", "ratio", "higher"},
	}
	for _, k := range kinds {
		defs = append(defs,
			metricDef{"core." + k + ".phase1_ms", "ms", "lower"},
			metricDef{"core." + k + ".phase2_ms", "ms", "lower"},
			metricDef{"core." + k + ".confirm_ratio", "ratio", "higher"})
	}
	defs = append(defs,
		metricDef{"core.executor_util", "ratio", "higher"},
		metricDef{"hybrid.ns_per_mem", "ns", "lower"},
		metricDef{"hybrid.mem_events", "count", "lower"},
		metricDef{"hybrid.share", "ratio", "lower"},
		metricDef{"harness.round_ms", "ms", "lower"},
		metricDef{"harness.barrier_idle_ms", "ms", "lower"},
	)
	for _, ep := range rpcEndpoints {
		defs = append(defs, metricDef{"fleet.rpc_count." + ep, "count", "lower"})
	}
	defs = append(defs,
		metricDef{"fleet.rpc_ms_p50", "ms", "lower"},
		metricDef{"fleet.wire_bytes", "bytes", "lower"},
		metricDef{"fleet.idle_wait_ms", "ms", "lower"},
		metricDef{"fleet.exec_ms", "ms", "lower"},
		metricDef{"fleet.requeues", "count", "lower"},
		metricDef{"fleet.dropped", "count", "lower"},
		metricDef{"corpus.new", "count", "higher"},
		metricDef{"corpus.known", "count", "higher"},
		metricDef{"corpus.dedup_rate", "ratio", "higher"},
		metricDef{"corpus.save_ms", "ms", "lower"},
		metricDef{"corpus.open_ms", "ms", "lower"},
		metricDef{"corpus.witness_bytes", "bytes", "lower"},
		metricDef{"regress.ms_per_finding", "ms", "lower"},
		metricDef{"obs.records", "count", "lower"},
		metricDef{"obs.emit_ns", "ns", "lower"},
		metricDef{"obs.log_bytes", "bytes", "lower"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"self_ms." + l, "ms", "lower"})
	}
	return append(defs,
		metricDef{"trace.overhead_ms", "ms", "lower"},
		metricDef{"trace.overhead_share", "ratio", "lower"},
		metricDef{"trace.spans", "count", "lower"},
	)
}()

// kinds are the three bug kinds of the active-testing pipelines.
var kinds = []string{"race", "deadlock", "atomicity"}

// rpcEndpoints are the fleet control-plane calls a worker makes.
var rpcEndpoints = []string{"register", "lease", "heartbeat", "result"}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailMinBeyond = 10

// nearestRank returns the 1-based nearest-rank index of percentile p over n
// samples.
func nearestRank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile picks the highest whole percentile that still has at least
// tailMinBeyond samples beyond its nearest-rank position. With fewer than
// tailMinBeyond+1 samples no percentile qualifies, and 100 (the maximum) is
// returned with ok=false.
func tailPercentile(n int) (p int, ok bool) {
	for p = 99; p >= 1; p-- {
		if n-nearestRank(float64(p), n) >= tailMinBeyond {
			return p, true
		}
	}
	return 100, false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := nearestRank(p, len(s))
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}
