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

// schedFamilies are the per-scheduler families, one series per sched row.
var schedFamilies = []struct {
	name, help string
	read       func(*obs.EngineSched) float64
}{
	{"drill_sched_near_total", "Schedule calls routed to the near tier.",
		func(s *obs.EngineSched) float64 { return float64(s.Near) }},
	{"drill_sched_wheel_total", "Schedule calls routed into a wheel bucket.",
		func(s *obs.EngineSched) float64 { return float64(s.Wheel) }},
	{"drill_sched_far_total", "Schedule calls routed to the far overflow heap.",
		func(s *obs.EngineSched) float64 { return float64(s.Far) }},
	{"drill_sched_dispatch_list_total", "Dispatches consumed from the sorted dispatch list.",
		func(s *obs.EngineSched) float64 { return float64(s.DispatchList) }},
	{"drill_sched_dispatch_heap_total", "Dispatches popped from the near heap.",
		func(s *obs.EngineSched) float64 { return float64(s.DispatchHeap) }},
	{"drill_sched_cascades_total", "Far-tier events re-routed as the wheel horizon advanced.",
		func(s *obs.EngineSched) float64 { return float64(s.Cascades) }},
	{"drill_sched_pours_total", "Non-empty cursor buckets poured at advancement.",
		func(s *obs.EngineSched) float64 { return float64(s.Pours) }},
	{"drill_sched_poured_events_total", "Events moved out of wheel buckets by pours.",
		func(s *obs.EngineSched) float64 { return float64(s.PouredEvents) }},
	{"drill_sched_wheel_occupancy", "Events currently stored in wheel buckets.",
		func(s *obs.EngineSched) float64 { return float64(s.WheelOccupancy) }},
	{"drill_sched_pending", "Scheduled events not yet dispatched, all tiers.",
		func(s *obs.EngineSched) float64 { return float64(s.Pending) }},
}

// shardFamilies are the per-shard families of the sharded engine.
var shardFamilies = []struct {
	name, help string
	read       func(*obs.EngineShard) float64
}{
	{"drill_shard_windows_total", "Windows in which this shard dispatched events.",
		func(s *obs.EngineShard) float64 { return float64(s.Windows) }},
	{"drill_shard_events_total", "Events dispatched by this shard.",
		func(s *obs.EngineShard) float64 { return float64(s.Events) }},
	{"drill_shard_critical_windows_total", "Windows whose width this shard's earliest event bounded.",
		func(s *obs.EngineShard) float64 { return float64(s.Critical) }},
	{"drill_shard_busy_seconds_total", "Wall time this shard spent running windows.",
		func(s *obs.EngineShard) float64 { return float64(s.BusyNs) / 1e9 }},
	{"drill_shard_stall_seconds_total", "Wall time this shard spent parked at barriers.",
		func(s *obs.EngineShard) float64 { return float64(s.StallNs) / 1e9 }},
}

// windowFamilies are the synchronizer's run-wide families.
var windowFamilies = []struct {
	name, help string
	read       func(*obs.EngineReport) float64
}{
	{"drill_window_barriers_total", "Exchange barriers executed by the synchronizer.",
		func(r *obs.EngineReport) float64 { return float64(r.Barriers) }},
	{"drill_window_count", "Windows opened by the synchronizer.",
		func(r *obs.EngineReport) float64 { return float64(r.WindowCount) }},
	{"drill_window_width_ns_sum", "Total sim-time width of all windows, ns.",
		func(r *obs.EngineReport) float64 { return float64(r.WindowSumNs) }},
	{"drill_window_width_ns_p50", "Upper bound on the median window width, sim ns.",
		func(r *obs.EngineReport) float64 { return float64(r.WindowP50Ns) }},
	{"drill_window_width_ns_p90", "Upper bound on the p90 window width, sim ns.",
		func(r *obs.EngineReport) float64 { return float64(r.WindowP90Ns) }},
	{"drill_window_width_ns_p99", "Upper bound on the p99 window width, sim ns.",
		func(r *obs.EngineReport) float64 { return float64(r.WindowP99Ns) }},
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
			sn.GaugeFunc(f.name, l, f.help, func() float64 { return f.read(&rep.Sched[i]) })
		}
	}
	if len(rep.Shards) == 0 {
		return
	}
	for i := range rep.Shards {
		l := obs.JoinLabels(scope, fmt.Sprintf("shard=%q", strconv.Itoa(i)))
		for _, f := range shardFamilies {
			sn.GaugeFunc(f.name, l, f.help, func() float64 { return f.read(&rep.Shards[i]) })
		}
	}
	n := len(rep.Shards)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			l := obs.JoinLabels(scope, fmt.Sprintf("src=%q,dst=%q", strconv.Itoa(src), strconv.Itoa(dst)))
			sn.GaugeFunc("drill_shard_exchange_total", l,
				"Cross-shard messages exchanged from shard src to shard dst at barriers.",
				func() float64 { return float64(rep.Exchange[src][dst]) })
		}
	}
	for _, f := range windowFamilies {
		sn.GaugeFunc(f.name, scope, f.help, func() float64 { return f.read(rep) })
	}
}

// buildEngineReport assembles the post-run engine observatory report. It
// is cheap (a few hundred bytes of plain data) and only reads parked
// state, so every run carries one, and the engine reads rebuild it at
// each observer tick.
func buildEngineReport(engine string, s *sim.Sim, group *sim.ShardGroup, net *fabric.Network) *obs.EngineReport {
	rep := &obs.EngineReport{Engine: engine}
	schedRow := func(name string, ss *sim.Sim) obs.EngineSched {
		sc := ss.Sched()
		return obs.EngineSched{
			Sched: name, Near: sc.Near, Wheel: sc.Wheel, Far: sc.Far,
			DispatchList: sc.DispatchList, DispatchHeap: sc.DispatchHeap,
			Cascades: sc.Cascades, Pours: sc.Pours, PouredEvents: sc.PouredEvents,
			WheelOccupancy: ss.WheelOccupancy(), Pending: ss.Pending(),
		}
	}
	if group == nil {
		rep.Sched = []obs.EngineSched{schedRow("seq", s)}
		return rep
	}
	for i, st := range group.ShardStats() {
		rep.Shards = append(rep.Shards, obs.EngineShard{
			Shard: i, Windows: st.Windows, Events: st.Events,
			Critical: st.Critical, BusyNs: st.BusyNs, StallNs: st.StallNs,
		})
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
