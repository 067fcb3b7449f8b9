package transport

import (
	"drill/internal/obs"
	"drill/internal/units"
)

// Metrics is the transport layer's slice of the obs registry. The health
// counters FCT sweeps report (retransmits, RTO fires, wire reordering,
// finished flows) are derived by Refresh from the Stats blocks the agents
// keep anyway. Only the three distributions Stats cannot carry —
// congestion window per ACK, out-of-order buffer depth per inversion, and
// measured flow completion times — are observed on the packet path,
// behind a nil guard on the handle mirroring the tracer discipline, so
// disabled metrics cost one branch per site.
type Metrics struct {
	reg         *Registry
	retransmits *obs.Counter
	timeouts    *obs.Counter
	outOfOrder  *obs.Counter
	flowsDone   *obs.Counter
	// The totals the previous refresh published: counters advance by
	// deltas (obs.Counter.Advance).
	lastRetx, lastTimeouts, lastOOO, lastDone int64

	cwnd     *obs.Histogram // segments, observed on every processed ACK
	oooDepth *obs.Histogram // sacked spans buffered when an inversion arrives
	fct      *obs.Histogram // measured flow completion times, microseconds
}

// EnableMetrics registers the transport metric families in reg under the
// given label scope and turns on the histograms' hot-path observations.
// Call once per Registry, before flows start.
func (r *Registry) EnableMetrics(reg *obs.Registry, scope string) *Metrics {
	m := &Metrics{
		reg: r,
		retransmits: reg.Counter("drill_transport_retransmits_total", scope,
			"Segments retransmitted (fast retransmit and RTO)."),
		timeouts: reg.Counter("drill_transport_timeouts_total", scope,
			"Retransmission timeouts fired."),
		outOfOrder: reg.Counter("drill_transport_out_of_order_total", scope,
			"Data packets that arrived out of emission order."),
		flowsDone: reg.Counter("drill_transport_flows_finished_total", scope,
			"Flows completed."),
		cwnd: reg.Histogram("drill_transport_cwnd_segments", scope,
			"Congestion window in segments, sampled on every processed ACK."),
		oooDepth: reg.Histogram("drill_transport_ooo_depth_spans", scope,
			"Out-of-order buffer depth (sacked spans) when an inversion arrives."),
		fct: reg.Histogram("drill_transport_fct_us", scope,
			"Flow completion time in microseconds, measured flows only."),
	}
	r.met = m
	return m
}

// Refresh brings the counters up to date from Stats plus the per-shard
// blocks Fold has not merged yet. Agents write those blocks inside shard
// windows, so it must run where every shard is parked: an observer tick,
// or after the run drains.
func (m *Metrics) Refresh(units.Time) {
	r := m.reg
	retx, rto, ooo, done := r.Stats.Retransmits, r.Stats.Timeouts, r.Stats.OutOfOrder, r.Stats.FlowsFinished
	for i := range r.shardStats {
		s := &r.shardStats[i]
		retx += s.Retransmits
		rto += s.Timeouts
		ooo += s.OutOfOrder
		done += s.FlowsFinished
	}
	m.retransmits.Advance(retx, &m.lastRetx)
	m.timeouts.Advance(rto, &m.lastTimeouts)
	m.outOfOrder.Advance(ooo, &m.lastOOO)
	m.flowsDone.Advance(done, &m.lastDone)
}
