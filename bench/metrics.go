package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and bounds; the self-test
// holds the two in step.
type metricDef struct {
	name, unit string
	// bound is the share of the parent commit's value by which an
	// end-to-end metric may worsen before a change counts as a regression;
	// floor is an absolute allowance in the metric's unit under which a
	// change is never a regression. Both are zero for per-layer metrics.
	bound, floor float64
	// best reports the fastest of the runs instead of their median. Other
	// tenants of a shared host only ever add CPU time, in bursts that last
	// from seconds to minutes, so the fastest run is the one they disturbed
	// least.
	best bool
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. The loop is reported as CPU time per packet sent: per
// packet, so a change that dispatches fewer events for the same simulated
// outcome reads as a gain and a seed that offers more traffic does not
// read as a slowdown; CPU time, summed over all threads, so time a shared
// host steals from the machine does not read as a slowdown either.
var endToEnd = []metricDef{
	// Run entry to the Hook: topology, fabric and tables, transport and
	// workload set-up. Leaf-spine set-up takes a few milliseconds, so
	// process noise gets a 20ms floor.
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.020},
	// CPU time still drifts with load elsewhere on the host. On a shared
	// 2-vCPU VM two sets of the same ten seeds differed by up to 43%, and the
	// quartile spread across seeds ranged from 1% in a quiet hour to 32%
	// in a busy one: no tighter bound holds there.
	{name: "loop_cpu_ns_per_pkt", unit: "ns/pkt", bound: 0.25, best: true},
	// Set-up allocations repeat to within a few in a million.
	{name: "setup_allocs", unit: "allocs", bound: 0.01},
	// Loop allocations repeat exactly for a seed; across seeds they vary
	// with the traffic mix, with quartile spreads of 2.6-4.4%.
	{name: "loop_allocs_per_pkt", unit: "allocs/pkt", bound: 0.10},
	// Peak RSS moves with when the collector runs: spreads of 1-7%.
	{name: "peak_rss_mb", unit: "MB", bound: 0.20},
}

// perLayer are the per-layer numbers of a traced run, its layer counts and
// the isolated layer probes. Layers are named after the program's modules.
var perLayer = []metricDef{
	{name: "topo.build_s", unit: "s"},
	{name: "topo.routes_s", unit: "s"},
	{name: "topo.paths_s", unit: "s"},
	{name: "topo.paths_allocs", unit: "allocs"},
	{name: "quiver.build_s", unit: "s"},
	{name: "quiver.build_allocs", unit: "allocs"},
	{name: "quiver.decompose_s", unit: "s"},
	{name: "quiver.decompose_allocs", unit: "allocs"},
	{name: "lb.tables_setup_s", unit: "s"},
	{name: "lb.tables_loop_s", unit: "s"},
	{name: "lb.tables_calls", unit: "count"},
	{name: "lb.choose_calls", unit: "count"},
	{name: "lb.choose_ns", unit: "ns"},
	{name: "core.pick_ns", unit: "ns"},
	{name: "fabric.new_s", unit: "s"},
	{name: "fabric.new_allocs", unit: "allocs"},
	{name: "fabric.new_heap_mb", unit: "MB"},
	{name: "fabric.epoch_build_s", unit: "s"},
	{name: "fabric.epoch_build_allocs", unit: "allocs"},
	{name: "fabric.epoch_heap_mb", unit: "MB"},
	{name: "fabric.hop_ns", unit: "ns"},
	{name: "fabric.hop_allocs", unit: "allocs"},
	{name: "fabric.delivered", unit: "pkts"},
	{name: "fabric.drops", unit: "pkts"},
	{name: "fabric.epochs", unit: "count"},
	{name: "fabric.pool_reuse", unit: "ratio"},
	{name: "sim.events", unit: "count"},
	{name: "sim.near", unit: "count"},
	{name: "sim.wheel", unit: "count"},
	{name: "sim.far", unit: "count"},
	{name: "sim.cascades", unit: "count"},
	{name: "sim.dispatch_heap", unit: "count"},
	{name: "sim.loop_cpu_ns_per_event", unit: "ns", best: true},
	{name: "sim.near_ns", unit: "ns"},
	{name: "sim.wheel_ns", unit: "ns"},
	{name: "sim.far_ns", unit: "ns"},
	{name: "sim.timer_ns", unit: "ns"},
	{name: "shard.windows", unit: "count"},
	{name: "shard.barriers", unit: "count"},
	{name: "shard.exchanged", unit: "count"},
	{name: "shard.imbalance", unit: "ratio"},
	{name: "shard.stall_pct", unit: "%"},
	{name: "shard.window_ns", unit: "ns"},
	{name: "transport.flows", unit: "count"},
	{name: "transport.timeouts", unit: "count"},
	{name: "transport.retx_per_kpkt", unit: "1/kpkt"},
	{name: "transport.flow_ns_per_pkt", unit: "ns"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "setup.self_s", unit: "s"},
}

// allowance is how far above the parent's value a metric may read before
// it counts as a regression, in the metric's own unit.
func (d metricDef) allowance(parent float64) float64 {
	return math.Max(d.bound*parent, d.floor)
}

// value is what a metric reports for one workload's runs: their median,
// or the fastest run for a best metric.
func (d metricDef) value(s summary) float64 {
	if d.best {
		return s.Min
	}
	return s.Median
}

// summary describes a metric's samples across the runs of one workload.
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// summarize computes a summary whose quartiles match Python's
// statistics.quantiles(values, n=4) (the default exclusive method), so
// spreads read the same here and in any script that re-checks them.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	s := summary{N: len(v), Min: v[0], Max: v[len(v)-1], Median: median(v)}
	if len(v) == 1 {
		s.Q1, s.Q3 = v[0], v[0]
		return s
	}
	q := func(i int) float64 {
		const n = 4
		m := len(v) + 1
		j := i * m / n
		j = max(1, min(j, len(v)-1))
		delta := float64(i*m - j*n)
		return (v[j-1]*(n-delta) + v[j]*delta) / n
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
