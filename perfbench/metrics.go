package main

import (
	"strings"

	"repro/internal/registry"
)

// metricDef declares one metric as BENCHMARK.json lists it. bound is the
// share by which an end-to-end metric's median may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the figures a user of the system sees; every workload
// reports every one of them (README.md says what a unit is on each).
var endToEnd = []metricDef{
	{"norm_work_per_s", "1/s", "higher", 0.25},
	{"norm_distinct_per_s", "1/s", "higher", 0.25},
	{"norm_unit_p50_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.25},
}

// perLayer lists the traced run's per-layer metrics, in report order.
func perLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "higher"} }
	defs := []metricDef{
		lo("host.ref_ms", "ms"),
		lo("sched.slice_ns", "ns"),
		lo("sched.handoff_ns", "ns"),
		lo("sched.acquire_us", "us"),
		hi("sched.runahead_speedup.sweep-uni", "ratio"),
		hi("sched.runahead_speedup.sweep-multi", "ratio"),
		lo("sched.slices_per_history", "count"),
		lo("sched.preemptions_per_history", "count"),
		lo("shmem.cas_ns", "ns"),
		lo("registry.build_us.uni", "us"),
		lo("registry.build_us.multi", "us"),
		lo("registry.build_us.baseline", "us"),
	}
	for _, name := range registry.CoreNames() {
		defs = append(defs, lo("registry.sweep_ms."+name, "ms"))
	}
	defs = append(defs,
		lo("registry.allocs_per_schedule", "count"),
		lo("registry.bytes_per_schedule", "B"),
		hi("explore.schedules.sweep-uni", "count"),
		hi("explore.schedules.sweep-multi", "count"),
		hi("cover.distinct.sweep-uni", "count"),
		hi("cover.distinct.sweep-multi", "count"),
		hi("cover.distinct_ratio.sweep-uni", "ratio"),
		hi("cover.distinct_ratio.sweep-multi", "ratio"),
		lo("cover.sig_ns", "ns"),
		lo("adversary.execute_us", "us"),
		lo("linz.check_us", "us"),
		lo("linz.check_share", "ratio"),
		lo("linz.states_per_history", "count"),
		hi("linz.memo_hits_per_history", "count"),
		hi("linz.ops_per_history", "count"),
		lo("helping.help_per_op.linz", "count"),
		lo("helping.help_per_op.native", "count"),
		lo("native.apply_ns.p50", "ns"),
		lo("native.end_ns.p50", "ns"),
		lo("native.mem_ops_per_op", "count"),
		hi("native.concurrent.ops_per_s", "1/s"),
		lo("native.concurrent.op_p50_ns", "ns"),
		lo("native.concurrent.op_p99_ns", "ns"),
		lo("native.begin_wait_ns.p50", "ns"),
		lo("native.begin_wait_ns.p99", "ns"),
		lo("native.cas2_guard_retries_per_op", "count"),
		lo("native.preemptions_per_op", "count"),
	)
	for _, name := range registry.CoreNames() {
		defs = append(defs, hi("native.ops_per_s."+name, "1/s"))
	}
	return append(defs,
		hi("native.mutex_ref_ops_per_s", "1/s"),
		lo("trace.overhead_pct", "%"),
	)
}

// unitOf returns the declared unit of a per-layer metric.
func unitOf(name string) string {
	for _, d := range perLayer() {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// layerOf is the layer a span or metric name belongs to: the text before
// the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
