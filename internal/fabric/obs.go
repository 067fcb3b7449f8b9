package fabric

import (
	"fmt"

	"drill/internal/metrics"
	"drill/internal/obs"
	"drill/internal/units"
)

// Metrics is the fabric's slice of the obs registry. Nothing on the
// packet path touches it: Refresh, which the snapshotter runs on observer
// ticks (window barriers under the sharded engine, every shard parked),
// derives every series from counters the data plane keeps anyway — each
// domain's per-hop drops and deliveries, and each port's enqueue, drop
// and transmit counters and queue occupancy. Each quantity is counted
// once, and a run without metrics pays nothing for them.
type Metrics struct {
	net       *Network
	drops     [metrics.NumHopClasses]*obs.Counter
	delivered *obs.Counter
	enqueued  *obs.Counter

	// The totals the previous refresh published: counters advance by
	// deltas (obs.Counter.Advance).
	lastDrops     [metrics.NumHopClasses]int64
	lastDelivered int64
	lastEnqueued  int64

	// Per-port series, one per switch output port of reader.
	reader        *portReader
	qdepth        []*obs.Gauge
	util          []*obs.Gauge
	portDrops     []*obs.Counter
	lastPortDrops []int64
}

// EnableMetrics registers the fabric's metric families in reg. scope is a
// pre-rendered label body (e.g. `exp="fig6a",cell="3"`) prepended to
// every series so one registry can carry many concurrent cells; "" for
// none. Call once, before the run starts; Refresh (typically via the obs
// snapshotter) fills the series.
func (n *Network) EnableMetrics(reg *obs.Registry, scope string) *Metrics {
	m := &Metrics{net: n, reader: newPortReader(n)}
	for hc := 0; hc < int(metrics.NumHopClasses); hc++ {
		m.drops[hc] = reg.Counter("drill_fabric_drops_total",
			obs.JoinLabels(scope, fmt.Sprintf(`hop=%q`, metrics.HopClass(hc))),
			"Packets dropped in the fabric, by hop class.")
	}
	m.delivered = reg.Counter("drill_fabric_delivered_total", scope,
		"Packets handed to destination hosts.")
	m.enqueued = reg.Counter("drill_fabric_enqueued_total", scope,
		"Packets accepted into an output queue.")

	for _, p := range m.reader.ports {
		lbl := obs.JoinLabels(scope, fmt.Sprintf(`port="%d",from="%d",to="%d",hop=%q`,
			p.Index, p.From, p.To, p.Hop))
		m.qdepth = append(m.qdepth, reg.Gauge("drill_port_queue_depth_packets", lbl,
			"Output-queue occupancy in packets, sampled at snapshot time."))
		m.util = append(m.util, reg.Gauge("drill_port_utilization", lbl,
			"Fraction of link capacity used since the previous snapshot."))
		m.portDrops = append(m.portDrops, reg.Counter("drill_port_drops_total", lbl,
			"Packets dropped at this port."))
	}
	m.lastPortDrops = make([]int64, len(m.reader.ports))
	return m
}

// Refresh pulls every series up to date at simulated time now. It only
// reads counters the data plane already maintains — the observe-never-
// steer contract — summed across shard domains, so it must run where all
// of them are parked: an observer tick, or after the run drains.
func (m *Metrics) Refresh(now units.Time) {
	n := m.net
	var drops [metrics.NumHopClasses]int64
	for _, d := range n.doms {
		for hc, v := range d.hops.Drops {
			drops[hc] += v
		}
	}
	for hc, c := range m.drops {
		c.Advance(drops[hc], &m.lastDrops[hc])
	}
	m.delivered.Advance(n.DeliveredPackets(), &m.lastDelivered)
	var enq int64
	for _, p := range n.Ports {
		enq += p.EnqPackets
	}
	m.enqueued.Advance(enq, &m.lastEnqueued)

	m.reader.advance(now)
	for i, p := range m.reader.ports {
		m.qdepth[i].Set(float64(p.QPkts))
		m.util[i].Set(m.reader.util[i])
		m.portDrops[i].Advance(p.Drops, &m.lastPortDrops[i])
	}
}
