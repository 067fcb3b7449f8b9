package transport

import "drill/internal/obs"

// Metrics holds the three distributions Stats cannot carry — congestion
// window per ACK, out-of-order buffer depth per inversion, and measured
// flow completion times. They are observed on the packet path, behind a
// nil guard on the handle mirroring the tracer discipline, so disabled
// metrics cost one branch per site.
type Metrics struct {
	cwnd     *obs.Histogram // segments, observed on every processed ACK
	oooDepth *obs.Histogram // sacked spans buffered when an inversion arrives
	fct      *obs.Histogram // measured flow completion times, microseconds
}

// EnableMetrics registers the transport metric families under the given
// label scope. The health counters FCT sweeps report (retransmits, RTO
// fires, wire reordering, finished flows) are reads on sn of Stats plus
// the per-shard blocks Fold has not merged yet; agents write those blocks
// inside shard windows, which the snapshotter's observer ticks — window
// barriers, every shard parked — never overlap. The histograms go in reg
// and turn on their hot-path observations. Call once per Registry, before
// flows start.
func (r *Registry) EnableMetrics(reg *obs.Registry, sn *obs.Snapshotter, scope string) {
	for _, c := range []struct {
		name, help string
		count      func(*Stats) int64
	}{
		{"drill_transport_retransmits_total", "Segments retransmitted (fast retransmit and RTO).",
			func(s *Stats) int64 { return s.Retransmits }},
		{"drill_transport_timeouts_total", "Retransmission timeouts fired.",
			func(s *Stats) int64 { return s.Timeouts }},
		{"drill_transport_out_of_order_total", "Data packets that arrived out of emission order.",
			func(s *Stats) int64 { return s.OutOfOrder }},
		{"drill_transport_flows_finished_total", "Flows completed.",
			func(s *Stats) int64 { return s.FlowsFinished }},
	} {
		sn.CounterFunc(c.name, scope, c.help, func() int64 {
			n := c.count(&r.Stats)
			for i := range r.shardStats {
				n += c.count(&r.shardStats[i])
			}
			return n
		})
	}
	r.met = &Metrics{
		cwnd: reg.Histogram("drill_transport_cwnd_segments", scope,
			"Congestion window in segments, sampled on every processed ACK."),
		oooDepth: reg.Histogram("drill_transport_ooo_depth_spans", scope,
			"Out-of-order buffer depth (sacked spans) when an inversion arrives."),
		fct: reg.Histogram("drill_transport_fct_us", scope,
			"Flow completion time in microseconds, measured flows only."),
	}
}
