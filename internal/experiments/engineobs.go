package experiments

import (
	"fmt"
	"strconv"

	"drill/internal/fabric"
	"drill/internal/obs"
	"drill/internal/sim"
	"drill/internal/units"
)

// Engine observatory: the drill_shard_* / drill_window_* / drill_sched_*
// metric families exposing the execution substrate itself — per-shard
// window/barrier counters, the window-width distribution, cross-shard
// exchange traffic, and scheduler internals. Every run with an Obs
// registry attached carries them; their series set is engine-shaped (one
// sched row per scheduler, shard rows only on the sharded engine), so
// engine-invariance comparisons strip them. Each series is a read of the
// engine report, which the snapshotter rebuilds once per observer tick —
// a window barrier, every shard parked — through buildEngineReport, the
// same read the post-run report makes, so all reads are race-free and
// never steer.

// engineFamily is one engine family over report rows of type R. A
// monotone integer total sets count and registers through CounterFunc;
// only its name ends in _total, the suffix Prometheus reserves for
// counters. Any other family sets gauge.
type engineFamily[R any] struct {
	name, help string
	count      func(*R) int64
	gauge      func(*R) float64
}

// register registers f's series, with labels, as a read of the row that
// row returns at each tick.
func (f engineFamily[R]) register(sn *obs.Snapshotter, labels string, row func() *R) {
	if f.count != nil {
		sn.CounterFunc(f.name, labels, f.help, func() int64 { return f.count(row()) })
		return
	}
	sn.GaugeFunc(f.name, labels, f.help, func() float64 { return f.gauge(row()) })
}

// schedFamilies are the per-scheduler families, one series per sched row.
var schedFamilies = []engineFamily[obs.EngineSched]{
	{name: "drill_sched_near_total", help: "Schedule calls routed to the near tier.",
		count: func(s *obs.EngineSched) int64 { return int64(s.Near) }},
	{name: "drill_sched_wheel_total", help: "Schedule calls routed into a wheel bucket.",
		count: func(s *obs.EngineSched) int64 { return int64(s.Wheel) }},
	{name: "drill_sched_far_total", help: "Schedule calls routed to the far overflow heap.",
		count: func(s *obs.EngineSched) int64 { return int64(s.Far) }},
	{name: "drill_sched_dispatch_list_total", help: "Dispatches consumed from the sorted dispatch list.",
		count: func(s *obs.EngineSched) int64 { return int64(s.DispatchList) }},
	{name: "drill_sched_dispatch_heap_total", help: "Dispatches popped from the near heap.",
		count: func(s *obs.EngineSched) int64 { return int64(s.DispatchHeap) }},
	{name: "drill_sched_cascades_total", help: "Far-tier events re-routed as the wheel horizon advanced.",
		count: func(s *obs.EngineSched) int64 { return int64(s.Cascades) }},
	{name: "drill_sched_pours_total", help: "Non-empty cursor buckets poured at advancement.",
		count: func(s *obs.EngineSched) int64 { return int64(s.Pours) }},
	{name: "drill_sched_poured_events_total", help: "Events moved out of wheel buckets by pours.",
		count: func(s *obs.EngineSched) int64 { return int64(s.PouredEvents) }},
	{name: "drill_sched_wheel_occupancy", help: "Events currently stored in wheel buckets.",
		gauge: func(s *obs.EngineSched) float64 { return float64(s.WheelOccupancy) }},
	{name: "drill_sched_pending", help: "Scheduled events not yet dispatched, all tiers.",
		gauge: func(s *obs.EngineSched) float64 { return float64(s.Pending) }},
}

// shardFamilies are the per-shard families of the sharded engine.
var shardFamilies = []engineFamily[obs.EngineShard]{
	{name: "drill_shard_windows_total", help: "Windows in which this shard dispatched events.",
		count: func(s *obs.EngineShard) int64 { return int64(s.Windows) }},
	{name: "drill_shard_events_total", help: "Events dispatched by this shard.",
		count: func(s *obs.EngineShard) int64 { return int64(s.Events) }},
	{name: "drill_shard_critical_windows_total", help: "Windows whose width this shard's earliest event bounded.",
		count: func(s *obs.EngineShard) int64 { return int64(s.Critical) }},
	{name: "drill_shard_busy_seconds", help: "Wall time this shard spent running windows.",
		gauge: func(s *obs.EngineShard) float64 { return float64(s.BusyNs) / 1e9 }},
	{name: "drill_shard_stall_seconds", help: "Wall time this shard spent parked at barriers.",
		gauge: func(s *obs.EngineShard) float64 { return float64(s.StallNs) / 1e9 }},
}

// windowFamilies are the synchronizer's run-wide families.
var windowFamilies = []engineFamily[obs.EngineReport]{
	{name: "drill_window_barriers_total", help: "Exchange barriers executed by the synchronizer.",
		count: func(r *obs.EngineReport) int64 { return int64(r.Barriers) }},
	{name: "drill_window_count", help: "Windows opened by the synchronizer, those observer ticks cap included: compare only runs with the same instrumentation.",
		gauge: func(r *obs.EngineReport) float64 { return float64(r.WindowCount) }},
	{name: "drill_window_width_ns_sum", help: "Total sim-time width of all windows, ns.",
		gauge: func(r *obs.EngineReport) float64 { return float64(r.WindowSumNs) }},
	{name: "drill_window_width_ns_p50", help: "Upper bound on the median window width, sim ns.",
		gauge: func(r *obs.EngineReport) float64 { return float64(r.WindowP50Ns) }},
	{name: "drill_window_width_ns_p90", help: "Upper bound on the p90 window width, sim ns.",
		gauge: func(r *obs.EngineReport) float64 { return float64(r.WindowP90Ns) }},
	{name: "drill_window_width_ns_p99", help: "Upper bound on the p99 window width, sim ns.",
		gauge: func(r *obs.EngineReport) float64 { return float64(r.WindowP99Ns) }},
}

// registerEngineReads registers the engine families for one run on sn,
// shaped by the run's engine report: a sequential run registers only its
// one scheduler-internals row, sched="seq".
func registerEngineReads(sn *obs.Snapshotter, scope string, report func() *obs.EngineReport) {
	rep := report()
	sn.Prepare(func(units.Time) { rep = report() })
	for i, sc := range rep.Sched {
		l := obs.JoinLabels(scope, fmt.Sprintf("sched=%q", sc.Sched))
		for _, f := range schedFamilies {
			f.register(sn, l, func() *obs.EngineSched { return &rep.Sched[i] })
		}
	}
	if len(rep.Shards) == 0 {
		return
	}
	for i := range rep.Shards {
		l := obs.JoinLabels(scope, fmt.Sprintf("shard=%q", strconv.Itoa(i)))
		for _, f := range shardFamilies {
			f.register(sn, l, func() *obs.EngineShard { return &rep.Shards[i] })
		}
	}
	n := len(rep.Shards)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			l := obs.JoinLabels(scope, fmt.Sprintf("src=%q,dst=%q", strconv.Itoa(src), strconv.Itoa(dst)))
			sn.CounterFunc("drill_shard_exchange_total", l,
				"Cross-shard messages exchanged from shard src to shard dst at barriers.",
				func() int64 { return int64(rep.Exchange[src][dst]) })
		}
	}
	for _, f := range windowFamilies {
		f.register(sn, scope, func() *obs.EngineReport { return rep })
	}
}

// buildEngineReport assembles the post-run engine observatory report. It
// is cheap (a few hundred bytes of plain data) and only reads parked
// state, so every run carries one, and the engine reads rebuild it at
// each observer tick.
func buildEngineReport(engine string, s *sim.Sim, group *sim.ShardGroup, net *fabric.Network) *obs.EngineReport {
	rep := &obs.EngineReport{Engine: engine}
	schedRow := func(name string, ss *sim.Sim) obs.EngineSched {
		return obs.EngineSched{Sched: name, SchedStats: ss.Sched(),
			WheelOccupancy: ss.WheelOccupancy(), Pending: ss.Pending()}
	}
	if group == nil {
		rep.Sched = []obs.EngineSched{schedRow("seq", s)}
		return rep
	}
	for i, st := range group.ShardStats() {
		rep.Shards = append(rep.Shards, obs.EngineShard{Shard: i, ShardStat: st})
	}
	w := group.WindowStats()
	rep.Barriers = group.Barriers()
	rep.WindowCount = w.Count
	rep.WindowSumNs = w.SumNs
	rep.WindowP50Ns = w.Quantile(0.50)
	rep.WindowP90Ns = w.Quantile(0.90)
	rep.WindowP99Ns = w.Quantile(0.99)
	rep.Exchange = net.ExchangeMatrix()
	rep.Sched = append(rep.Sched, schedRow("global", s))
	for i, sh := range group.Shards {
		rep.Sched = append(rep.Sched, schedRow("shard"+strconv.Itoa(i), sh))
	}
	return rep
}
