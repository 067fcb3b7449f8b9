// Package lb implements the load-balancing policies the DRILL paper
// compares: ECMP, per-packet Random, per-packet Round-Robin, WCMP, Presto,
// CONGA, the per-flow DRILL strawman, and DRILL itself (via internal/core's
// selector, with the Quiver-based symmetric decomposition for asymmetric
// fabrics). All policies implement fabric.Balancer.
package lb

import (
	"fmt"

	"drill/internal/core"
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

// rrState is a per-engine, per-group round-robin cursor.
type rrState struct{ next int }

// RoundRobin sprays packets over equal-cost next hops in rotation
// ("Per-packet RR"): packet granularity, deterministic, load-oblivious.
type RoundRobin struct{}

// Name implements fabric.Balancer.
func (RoundRobin) Name() string { return "RR" }

// Choose implements fabric.Balancer.
func (RoundRobin) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	g := fabric.GroupForFlow(sw.Groups(pkt.DstLeafIdx), pkt.Hash)
	st := eng.State(g.ID, func() any { return &rrState{} }).(*rrState)
	p := g.Ports[st.next%len(g.Ports)]
	st.next++
	return p
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
	sel := eng.State(g.ID, func() any {
		return core.NewSelector(d.D, d.M, eng.Rng)
	}).(*core.Selector)
	i := sel.Pick(len(g.Ports), func(q int) int64 {
		return net.Ports[g.Ports[q]].VisibleBytes()
	})
	return g.Ports[i]
}

// pinKey identifies a flow's pin at one switch.
type pinKey struct {
	sw   int32
	flow uint64
}

// PerFlowDRILL is the strawman of §4: a load-aware decision for the first
// packet of each flow, after which the flow is pinned — flow granularity
// with load awareness. Pins live in the switch's (shared) flow table, not
// per engine.
type PerFlowDRILL struct {
	D, M int
	pins map[pinKey]int32
}

// NewPerFlowDRILL returns the per-flow strawman with DRILL(2,1) sampling.
func NewPerFlowDRILL() *PerFlowDRILL {
	return &PerFlowDRILL{D: 2, M: 1, pins: map[pinKey]int32{}}
}

// Name implements fabric.Balancer.
func (p *PerFlowDRILL) Name() string { return "per-flow DRILL" }

// ShardUnsafe marks per-flow DRILL as sequential-only: its per-flow port
// memory is shared across every switch rather than per-shard.
func (p *PerFlowDRILL) ShardUnsafe() {}

// Choose implements fabric.Balancer.
func (p *PerFlowDRILL) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	key := pinKey{sw: int32(sw.Node), flow: pkt.FlowID}
	if port, ok := p.pins[key]; ok {
		if net.Ports[port].Up() {
			return port
		}
		delete(p.pins, key) // repin after a failure
	}
	g := fabric.GroupForFlow(sw.Groups(pkt.DstLeafIdx), pkt.Hash)
	sel := eng.State(g.ID, func() any {
		return core.NewSelector(p.D, p.M, eng.Rng)
	}).(*core.Selector)
	i := sel.Pick(len(g.Ports), func(q int) int64 {
		return net.Ports[g.Ports[q]].VisibleBytes()
	})
	port := g.Ports[i]
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
	_ fabric.Balancer       = (*PerFlowDRILL)(nil)
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
