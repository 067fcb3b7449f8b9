package fabric

import (
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// portReader is the one per-port reader behind the periodic samplers —
// StartTraceSampler's trace samples and Metrics.Refresh's gauges. It
// covers every switch output port; host NIC queues are excluded to bound
// volume, their backlog being visible through Host.NIC's QueueLen and the
// host-nic enqueue events. Reads happen on observer ticks (window
// barriers under the sharded engine), so they only ever see parked ports.
type portReader struct {
	ports  []*Port
	util   []float64 // link utilization over the last non-empty window
	lastTx []int64   // TxBytes at the end of that window
	last   units.Time
}

func newPortReader(n *Network) *portReader {
	r := &portReader{last: n.Sim.Now()}
	for _, p := range n.Ports {
		if n.Topo.Nodes[p.From].Kind == topo.Host {
			continue
		}
		r.ports = append(r.ports, p)
		r.lastTx = append(r.lastTx, p.TxBytes)
	}
	r.util = make([]float64, len(r.ports))
	return r
}

// advance recomputes every port's utilization over the window since the
// previous advance, from its TxBytes delta. A zero-length window — a
// run's final refresh landing on a tick — carries no rate, so it keeps
// the previous utilization and TxBytes baseline.
func (r *portReader) advance(now units.Time) {
	window := (now - r.last).Seconds()
	if window <= 0 {
		return
	}
	for i, p := range r.ports {
		sent := p.TxBytes - r.lastTx[i]
		r.lastTx[i] = p.TxBytes
		r.util[i] = 0
		if p.Rate > 0 {
			r.util[i] = float64(sent) * 8 / (float64(p.Rate) * window)
		}
	}
	r.last = now
}

// StartTraceSampler emits a QueueSample and a PortUtil event for every
// switch output port each `every` of simulated time — the time-resolved
// queue-depth record the paper's Figures 2–3 are drawn from — to the
// network's tracer. Ticks are observer events: they only read ports, so a
// traced run's results — event count included — equal an untraced run's.
func StartTraceSampler(net *Network, every units.Time) {
	r := newPortReader(net)
	var tick int64
	sim.NewObserverTicker(net.Sim, every, func(now units.Time) {
		if tr := net.tracer; tr != nil {
			r.advance(now)
			for i, p := range r.ports {
				tr.Sample(trace.QueueSample, now, p.Index, uint8(p.Hop), tick, p.QPkts, int32(p.QBytes), 0)
				tr.Sample(trace.PortUtil, now, p.Index, uint8(p.Hop), tick, 0, 0, r.util[i])
			}
		}
		tick++
	})
}
