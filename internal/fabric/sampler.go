package fabric

import (
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// TraceSampler periodically emits QueueSample and PortUtil events for every
// switch output port — the time-resolved queue-depth record the paper's
// Figures 2–3 are drawn from. Host NIC queues are excluded to bound event
// volume; their backlog is visible through Host.NICBacklog and the
// host-nic enqueue events.
type TraceSampler struct {
	net    *Network
	ticker *sim.Ticker
	ports  []*Port
	lastTx []int64 // TxBytes at the previous tick, for utilization deltas
	every  units.Time
	tick   int64
}

// StartTraceSampler begins sampling every `every` on the network's
// simulator. It requires an attached tracer; with tracing off there is
// nothing to emit, and the sampler refuses to tick pointlessly. Ticks are
// observer events: they only read ports, so a traced run's results —
// event count included — equal an untraced run's.
func StartTraceSampler(net *Network, every units.Time) *TraceSampler {
	if net.tracer == nil {
		panic("fabric: StartTraceSampler without a tracer")
	}
	ts := &TraceSampler{net: net, every: every}
	for _, p := range net.Ports {
		if net.Topo.Nodes[p.From].Kind == topo.Host {
			continue
		}
		ts.ports = append(ts.ports, p)
		ts.lastTx = append(ts.lastTx, p.TxBytes)
	}
	ts.ticker = sim.NewObserverTicker(net.Sim, every, ts.sample)
	return ts
}

// Stop cancels future samples.
func (ts *TraceSampler) Stop() { ts.ticker.Stop() }

func (ts *TraceSampler) sample(now units.Time) {
	tr := ts.net.tracer
	if tr != nil {
		window := float64(ts.every.Seconds())
		for i, p := range ts.ports {
			tr.Sample(trace.QueueSample, now, p.Index, uint8(p.Hop), ts.tick, p.QPkts, int32(p.QBytes), 0)
			sent := p.TxBytes - ts.lastTx[i]
			ts.lastTx[i] = p.TxBytes
			util := 0.0
			if p.Rate > 0 && window > 0 {
				util = float64(sent) * 8 / (float64(p.Rate) * window)
			}
			tr.Sample(trace.PortUtil, now, p.Index, uint8(p.Hop), ts.tick, 0, 0, util)
		}
	}
	ts.tick++
}
