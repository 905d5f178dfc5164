package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric and its unit. The two lists below are the
// harness's side of BENCHMARK.json; bench_test.go holds them equal.
//
// Units ending in virt_us / virt_ms are on the virtual clock (what the
// modelled cluster would take); ns, us, ms and s are on the host clock (what
// the simulator takes).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_ms_per_query", "ms"},
	{"alloc_mb_per_query", "MB"},
	{"virt_response_us", "virt_us"},
	{"virt_cold_ms", "virt_ms"},
}

var perLayer = []metricDef{
	// sim
	{"sim.events", "count"},
	{"sim.wall_ns_per_event", "ns"},
	{"sim.schedule_ns", "ns"},
	{"sim.proc_handoff_ns", "ns"},
	{"sim.group_window_ns", "ns"},
	// fabric
	{"fabric.tx_messages", "count"},
	{"fabric.tx_wire_mb", "MB"},
	{"fabric.tx_control_frac", "frac"},
	{"fabric.qp_cache_miss_frac", "frac"},
	{"fabric.tx_backlog_peak_us", "virt_us"},
	{"fabric.rc_retransmits", "count"},
	{"fabric.pfc_pause_us", "virt_us"},
	{"fabric.ecn_marks", "count"},
	{"fabric.tail_drops", "count"},
	{"fabric.transmit_ns", "ns"},
	{"fabric.transmit_exact_ns", "ns"},
	{"fabric.transmit_allocs", "count"},
	// verbs
	{"verbs.posts", "count"},
	{"verbs.polls", "count"},
	{"verbs.completions_per_poll", "1/poll"},
	{"verbs.rnr_retries", "count"},
	{"verbs.transport_retries", "count"},
	{"verbs.rate_cuts", "count"},
	{"verbs.qps_created", "count"},
	{"verbs.peak_registered_mb", "MB"},
	{"verbs.ud_send_ns", "ns"},
	{"verbs.rc_send_ns", "ns"},
	{"verbs.rc_send_64k_ns", "ns"},
	{"verbs.rc_write_ns", "ns"},
	{"verbs.rc_read_ns", "ns"},
	{"verbs.alloc_mr_ns", "ns"},
	{"verbs.qp_create_connect_ns", "ns"},
	{"verbs.virt_wr_latency_us_p50", "virt_us"},
	{"verbs.virt_wr_latency_us_hi", "virt_us"},
	// shuffle
	{"shuffle.virt_setup_ms", "virt_ms"},
	{"shuffle.virt_reg_ms", "virt_ms"},
	{"shuffle.virt_gibps_per_node", "GiB/s"},
	{"shuffle.send_busy_frac", "frac"},
	{"shuffle.recv_busy_frac", "frac"},
	{"shuffle.send_memory_mb_per_node", "MB"},
	{"shuffle.credit_writebacks", "count"},
	{"shuffle.build_calls", "count"},
	{"shuffle.build_wall_ms", "ms"},
	{"shuffle.build_ms_16n.sqsr", "ms"},
	{"shuffle.build_ms_16n.mqsr", "ms"},
	{"shuffle.build_ms_16n.mqrd", "ms"},
	{"shuffle.build_ms_16n.mqwr", "ms"},
	{"shuffle.round_ns.sqsr", "ns"},
	{"shuffle.round_ns.mqsr", "ns"},
	{"shuffle.round_ns.mqrd", "ns"},
	{"shuffle.round_ns.mqwr", "ns"},
	// engine
	{"engine.scan_mrows_per_s", "Mrows/s"},
	{"engine.hashjoin_mrows_per_s", "Mrows/s"},
	{"engine.hashagg_mrows_per_s", "Mrows/s"},
	// dag and tpch
	{"dag.network_edges", "count"},
	{"dag.edge_mb", "MB"},
	{"dag.edge_wqes", "count"},
	{"dag.plan_ms", "ms"},
	{"dag.wire_us_per_edge", "us"},
	{"tpch.virt_q3_us", "virt_us"},
	{"tpch.virt_q4_us", "virt_us"},
	{"tpch.virt_q10_us", "virt_us"},
	{"tpch.generate_ms", "ms"},
	// cluster: host spans around each call of one query
	{"cluster.boot_ms", "ms"},
	{"cluster.tablegen_ms", "ms"},
	{"cluster.run_wall_ms", "ms"},
	{"cluster.stream_wall_ms", "ms"},
	{"bench.verify_ms", "ms"},
	// whole-query CPU profile, by package of the leaf frame
	{"cpu_share.sim", "frac"},
	{"cpu_share.fabric", "frac"},
	{"cpu_share.verbs", "frac"},
	{"cpu_share.shuffle", "frac"},
	{"cpu_share.engine", "frac"},
	{"cpu_share.dag", "frac"},
	{"cpu_share.tpch", "frac"},
	{"cpu_share.cluster", "frac"},
	{"cpu_share.telemetry", "frac"},
	{"cpu_share.runtime_gc", "frac"},
	{"cpu_share.runtime_malloc", "frac"},
	{"cpu_share.runtime_memmove", "frac"},
	{"cpu_share.runtime_sched", "frac"},
	{"cpu_share.other", "frac"},
	// tracer-on rep
	{"telemetry.trace_events", "count"},
	{"telemetry.trace_overhead_frac", "frac"},
	// the measurement itself
	{"bench.samples", "count"},
	{"bench.wall_ms_median", "ms"},
	{"bench.wall_ms_hi", "ms"},
	{"bench.wall_iqr_frac", "frac"},
	{"bench.peak_heap_mb", "MB"},
}

// metric is one reported value, as BENCHMARK.json's contract prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report lays values out under the given definitions. A definition without
// a value reports 0 (a layer the workload does not touch); a value without a
// definition is a bug in the harness.
func report(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{values[d.name], d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("value for undefined metric %q", name)
		}
	}
	return out, nil
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics; v need not be
// sorted. It returns 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// highPercentile returns the highest order statistic that still has at
// least ten samples beyond it. Below 21 samples no statistic above the median
// qualifies and it falls back to the median.
func highPercentile(v []float64) float64 {
	i := len(v) - 11
	if i <= (len(v)-1)/2 {
		return median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[i]
}
