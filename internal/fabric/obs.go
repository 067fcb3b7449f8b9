package fabric

import (
	"fmt"

	"drill/internal/metrics"
	"drill/internal/obs"
)

// RegisterReads registers the fabric's metric families on sn as reads of
// counters the data plane keeps anyway: each domain's per-hop drops and
// deliveries, and each switch output port's enqueue, drop and transmit
// counters and queue occupancy. Nothing on the packet path touches them,
// each quantity is counted once, and a run without metrics pays nothing.
// The reads sum across shard domains, which the snapshotter's observer
// ticks allow: they fire at window barriers, every shard parked. scope is
// a pre-rendered label body (e.g. `exp="fig6a",cell="3"`) prepended to
// every series so one registry can carry many concurrent cells; "" for
// none. Call once, before the run starts.
func (n *Network) RegisterReads(sn *obs.Snapshotter, scope string) {
	for hc := metrics.HopClass(0); hc < metrics.NumHopClasses; hc++ {
		sn.CounterFunc("drill_fabric_drops_total", obs.JoinLabels(scope, fmt.Sprintf(`hop=%q`, hc)),
			"Packets dropped in the fabric, by hop class.", func() int64 {
				var drops int64
				for _, d := range n.doms {
					drops += d.hops.Drops[hc]
				}
				return drops
			})
	}
	sn.CounterFunc("drill_fabric_delivered_total", scope,
		"Packets handed to destination hosts.", n.DeliveredPackets)
	sn.CounterFunc("drill_fabric_enqueued_total", scope,
		"Packets accepted into an output queue.", func() int64 {
			var enq int64
			for _, p := range n.Ports {
				enq += p.EnqPackets
			}
			return enq
		})

	r := newPortReader(n)
	sn.Prepare(r.advance)
	for i, p := range r.ports {
		lbl := obs.JoinLabels(scope, fmt.Sprintf(`port="%d",from="%d",to="%d",hop=%q`,
			p.Index, p.From, p.To, p.Hop))
		sn.GaugeFunc("drill_port_queue_depth_packets", lbl,
			"Output-queue occupancy in packets, sampled at snapshot time.",
			func() float64 { return float64(p.QueueLen()) })
		sn.GaugeFunc("drill_port_utilization", lbl,
			"Fraction of link capacity used since the previous snapshot.",
			func() float64 { return r.util[i] })
		sn.CounterFunc("drill_port_drops_total", lbl,
			"Packets dropped at this port.", func() int64 { return p.Drops })
	}
}
