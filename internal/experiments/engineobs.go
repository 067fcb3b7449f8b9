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
// engine-invariance comparisons strip them. Refresh runs on the observer
// tick, which fires at a window barrier with every shard parked, and
// reads the engine through buildEngineReport — the same read the
// post-run report makes — so all reads are race-free and never steer.

// engineGaugeSet holds one shard's gauge row.
type engineGaugeSet struct {
	windows, events, critical, busy, stall *obs.Gauge
}

// schedGaugeSet holds one scheduler's internals row.
type schedGaugeSet struct {
	near, wheel, far     *obs.Gauge
	dispList, dispHeap   *obs.Gauge
	cascades, pours      *obs.Gauge
	poured, occ, pending *obs.Gauge
}

type engineMetrics struct {
	report func() *obs.EngineReport

	sched    []schedGaugeSet
	shards   []engineGaugeSet
	exch     [][]*obs.Gauge
	barriers *obs.Gauge
	winCount *obs.Gauge
	winSum   *obs.Gauge
	winP50   *obs.Gauge
	winP90   *obs.Gauge
	winP99   *obs.Gauge
}

// newEngineMetrics registers the engine families for one run, shaped by
// the run's engine report: a sequential run registers only its one
// scheduler-internals row, sched="seq".
func newEngineMetrics(reg *obs.Registry, scope string, report func() *obs.EngineReport) *engineMetrics {
	em := &engineMetrics{report: report}
	rep := report()
	for _, sc := range rep.Sched {
		l := obs.JoinLabels(scope, fmt.Sprintf("sched=%q", sc.Sched))
		em.sched = append(em.sched, schedGaugeSet{
			near:     reg.Gauge("drill_sched_near_total", l, "Schedule calls routed to the near tier."),
			wheel:    reg.Gauge("drill_sched_wheel_total", l, "Schedule calls routed into a wheel bucket."),
			far:      reg.Gauge("drill_sched_far_total", l, "Schedule calls routed to the far overflow heap."),
			dispList: reg.Gauge("drill_sched_dispatch_list_total", l, "Dispatches consumed from the sorted dispatch list."),
			dispHeap: reg.Gauge("drill_sched_dispatch_heap_total", l, "Dispatches popped from the near heap."),
			cascades: reg.Gauge("drill_sched_cascades_total", l, "Far-tier events re-routed as the wheel horizon advanced."),
			pours:    reg.Gauge("drill_sched_pours_total", l, "Non-empty cursor buckets poured at advancement."),
			poured:   reg.Gauge("drill_sched_poured_events_total", l, "Events moved out of wheel buckets by pours."),
			occ:      reg.Gauge("drill_sched_wheel_occupancy", l, "Events currently stored in wheel buckets."),
			pending:  reg.Gauge("drill_sched_pending", l, "Scheduled events not yet dispatched, all tiers."),
		})
	}
	if len(rep.Shards) == 0 {
		return em
	}
	for i := range rep.Shards {
		l := obs.JoinLabels(scope, fmt.Sprintf("shard=%q", strconv.Itoa(i)))
		em.shards = append(em.shards, engineGaugeSet{
			windows:  reg.Gauge("drill_shard_windows_total", l, "Windows in which this shard dispatched events."),
			events:   reg.Gauge("drill_shard_events_total", l, "Events dispatched by this shard."),
			critical: reg.Gauge("drill_shard_critical_windows_total", l, "Windows whose width this shard's earliest event bounded."),
			busy:     reg.Gauge("drill_shard_busy_seconds_total", l, "Wall time this shard spent running windows."),
			stall:    reg.Gauge("drill_shard_stall_seconds_total", l, "Wall time this shard spent parked at barriers."),
		})
	}
	n := len(rep.Shards)
	em.exch = make([][]*obs.Gauge, n)
	for src := 0; src < n; src++ {
		em.exch[src] = make([]*obs.Gauge, n)
		for dst := 0; dst < n; dst++ {
			l := obs.JoinLabels(scope, fmt.Sprintf("src=%q,dst=%q", strconv.Itoa(src), strconv.Itoa(dst)))
			em.exch[src][dst] = reg.Gauge("drill_shard_exchange_total", l,
				"Cross-shard messages exchanged from shard src to shard dst at barriers.")
		}
	}
	em.barriers = reg.Gauge("drill_window_barriers_total", scope, "Exchange barriers executed by the synchronizer.")
	em.winCount = reg.Gauge("drill_window_count", scope, "Windows opened by the synchronizer.")
	em.winSum = reg.Gauge("drill_window_width_ns_sum", scope, "Total sim-time width of all windows, ns.")
	em.winP50 = reg.Gauge("drill_window_width_ns_p50", scope, "Upper bound on the median window width, sim ns.")
	em.winP90 = reg.Gauge("drill_window_width_ns_p90", scope, "Upper bound on the p90 window width, sim ns.")
	em.winP99 = reg.Gauge("drill_window_width_ns_p99", scope, "Upper bound on the p99 window width, sim ns.")
	return em
}

// Refresh publishes the current engine report into the gauges. It runs at
// observer ticks — window barriers, all shards parked — and after the run
// drains (the snapshotter's Final), so every read is race-free.
func (em *engineMetrics) Refresh(units.Time) {
	rep := em.report()
	for i, sc := range rep.Sched {
		g := &em.sched[i]
		g.near.Set(float64(sc.Near))
		g.wheel.Set(float64(sc.Wheel))
		g.far.Set(float64(sc.Far))
		g.dispList.Set(float64(sc.DispatchList))
		g.dispHeap.Set(float64(sc.DispatchHeap))
		g.cascades.Set(float64(sc.Cascades))
		g.pours.Set(float64(sc.Pours))
		g.poured.Set(float64(sc.PouredEvents))
		g.occ.Set(float64(sc.WheelOccupancy))
		g.pending.Set(float64(sc.Pending))
	}
	if len(rep.Shards) == 0 {
		return
	}
	for i, st := range rep.Shards {
		g := &em.shards[i]
		g.windows.Set(float64(st.Windows))
		g.events.Set(float64(st.Events))
		g.critical.Set(float64(st.Critical))
		g.busy.Set(float64(st.BusyNs) / 1e9)
		g.stall.Set(float64(st.StallNs) / 1e9)
	}
	for src, row := range rep.Exchange {
		for dst, v := range row {
			em.exch[src][dst].Set(float64(v))
		}
	}
	em.barriers.Set(float64(rep.Barriers))
	em.winCount.Set(float64(rep.WindowCount))
	em.winSum.Set(float64(rep.WindowSumNs))
	em.winP50.Set(float64(rep.WindowP50Ns))
	em.winP90.Set(float64(rep.WindowP90Ns))
	em.winP99.Set(float64(rep.WindowP99Ns))
}

// buildEngineReport assembles the post-run engine observatory report. It
// is cheap (a few hundred bytes of plain data) and only reads parked
// state, so every run carries one, and engineMetrics re-reads it at each
// observer tick.
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
