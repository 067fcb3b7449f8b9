// Package lb implements the load-balancing policies the DRILL paper
// compares: ECMP, per-packet Random, per-packet Round-Robin, WCMP, Presto,
// CONGA, DRILL pinned per flow or per flowcell, and DRILL itself (via
// internal/core's selector, with the Quiver-based symmetric decomposition
// for asymmetric fabrics). All policies implement fabric.Balancer.
package lb

import (
	"fmt"

	"drill/internal/fabric"
)

// ECMP hashes each flow onto one equal-cost next hop — today's de facto
// practice (§2). Flows never change ports, so ECMP never reorders.
type ECMP struct{}

// Name implements fabric.Balancer.
func (ECMP) Name() string { return "ECMP" }

// Choose implements fabric.Balancer.
func (ECMP) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	g := fabric.GroupForFlow(sw.Groups(pkt.DstLeafIdx), pkt.Hash)
	return g.Ports[pkt.Hash%uint32(len(g.Ports))]
}

// Random sprays every packet on a uniformly random equal-cost next hop
// ("Per-packet Random", §3.1): packet granularity, no load awareness.
type Random struct{}

// Name implements fabric.Balancer.
func (Random) Name() string { return "Random" }

// Choose implements fabric.Balancer.
func (Random) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	g := fabric.GroupForFlow(sw.Groups(pkt.DstLeafIdx), pkt.Hash)
	return g.Ports[eng.Rng.Intn(len(g.Ports))]
}

// RoundRobin sprays packets over equal-cost next hops in rotation
// ("Per-packet RR"): packet granularity, deterministic, load-oblivious.
type RoundRobin struct{}

// Name implements fabric.Balancer.
func (RoundRobin) Name() string { return "RR" }

// Choose implements fabric.Balancer.
func (RoundRobin) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	g := fabric.GroupForFlow(sw.Groups(pkt.DstLeafIdx), pkt.Hash)
	return g.Ports[eng.NextRR(g.ID)%len(g.Ports)]
}

// DRILL applies the DRILL(d,m) selector per packet within the packet's
// forwarding group, comparing the engines' visible queue-byte counters.
// With the default tables (symmetric fabric) there is a single group per
// destination; pair it with the Quiver table builder (NewDRILLAsym) for
// asymmetric topologies.
type DRILL struct {
	D, M int
}

// NewDRILL returns the paper's recommended DRILL(2,1) policy.
func NewDRILL() *DRILL { return &DRILL{D: 2, M: 1} }

// Name implements fabric.Balancer.
func (d *DRILL) Name() string { return fmt.Sprintf("DRILL(%d,%d)", d.D, d.M) }

// Choose implements fabric.Balancer.
func (d *DRILL) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	g := fabric.GroupForFlow(sw.Groups(pkt.DstLeafIdx), pkt.Hash)
	i := eng.Selector(g.ID, d.D, d.M).Pick(len(g.Ports), func(q int) int64 {
		return net.Ports[g.Ports[q]].VisibleBytes()
	})
	return g.Ports[i]
}

// pinKey identifies a pin at one switch: a flow, and for flowcell pins
// the flowcell's index within it (0 for whole flows).
type pinKey struct {
	sw   int32
	flow uint64
	cell int64
}

// PinnedDRILL makes a DRILL(2,1) decision for the first packet of each
// flow or flowcell and pins the rest of it to that port while the port is
// up — coarse granularity with load awareness. Per flow it is the
// strawman of §4; per flowcell (PrestoCellSize) it is the ablation hybrid
// of §3.1's factor split, Presto's granularity with DRILL's load signal.
// Pins live in one table across every switch, not per engine.
type PinnedDRILL struct {
	drill     DRILL
	flowcells bool
	pins      map[pinKey]int32
}

// NewPerFlowDRILL returns the per-flow strawman.
func NewPerFlowDRILL() *PinnedDRILL {
	return &PinnedDRILL{drill: *NewDRILL(), pins: map[pinKey]int32{}}
}

// NewFlowcellDRILL returns flowcell-DRILL, which pins each flowcell.
func NewFlowcellDRILL() *PinnedDRILL {
	return &PinnedDRILL{drill: *NewDRILL(), flowcells: true, pins: map[pinKey]int32{}}
}

// Name implements fabric.Balancer.
func (p *PinnedDRILL) Name() string {
	if p.flowcells {
		return "flowcell-DRILL"
	}
	return "per-flow DRILL"
}

// ShardUnsafe marks pinned DRILL as sequential-only: its pin table is
// shared across every switch rather than per shard.
func (p *PinnedDRILL) ShardUnsafe() {}

// Choose implements fabric.Balancer: the pinned port while it is up,
// otherwise a fresh DRILL pick, pinned in its place.
func (p *PinnedDRILL) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	key := pinKey{sw: int32(sw.Node), flow: pkt.FlowID}
	if p.flowcells {
		key.cell = pkt.Seq / int64(PrestoCellSize)
	}
	if port, ok := p.pins[key]; ok && net.Ports[port].Up() {
		return port
	}
	port := p.drill.Choose(net, sw, eng, pkt)
	p.pins[key] = port
	return port
}

// Compile-time interface checks for every balancer in the package.
var (
	_ fabric.Balancer       = ECMP{}
	_ fabric.Balancer       = Random{}
	_ fabric.Balancer       = RoundRobin{}
	_ fabric.Balancer       = (*DRILL)(nil)
	_ fabric.Balancer       = (*DRILLAsym)(nil)
	_ fabric.TableBuilder   = (*DRILLAsym)(nil)
	_ fabric.Balancer       = (*PinnedDRILL)(nil)
	_ fabric.Balancer       = WCMP{}
	_ fabric.TableBuilder   = WCMP{}
	_ fabric.Balancer       = (*Presto)(nil)
	_ fabric.TableBuilder   = (*Presto)(nil)
	_ fabric.SendHook       = (*Presto)(nil)
	_ fabric.Balancer       = (*CONGA)(nil)
	_ fabric.TableBuilder   = (*CONGA)(nil)
	_ fabric.TxObserver     = (*CONGA)(nil)
	_ fabric.ArriveObserver = (*CONGA)(nil)
)
