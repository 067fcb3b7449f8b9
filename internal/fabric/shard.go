package fabric

import (
	"fmt"

	"drill/internal/metrics"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

// domain is one shard's slice of the network: its scheduler, its packet
// pool, its per-hop stat block, and the outbox for packets departing over
// shard-boundary links. A sequential network has exactly one domain whose
// pointers alias the Network's own fields, so the single-scheduler data
// plane pays nothing for the indirection beyond one pointer hop it
// already paid for n.Sim. All domain state is touched only by the owning
// shard's goroutine during a window, or by the coordinator at barriers.
// net leads back to the data plane, which a port's Settle runs.
type domain struct {
	id        int
	net       *Network
	sim       *sim.Sim
	hops      *metrics.HopStats
	delivered *int64
	sent      *int64
	pool      *PacketPool

	// outbox holds departures over boundary links, in departure order,
	// until the coordinator exchanges them at the next window barrier.
	outbox []wireMsg
}

// wireMsg is one cross-shard packet in flight: the boundary port it
// departed and its wire entry — arrival time, the arrival's event key
// (built by sim.ArrivalKey from the port index and departure counter, so
// the receiving scheduler lands it in exactly the slot a single scheduler
// would) and the packet, nil for one lost at its departure.
type wireMsg struct {
	p *Port
	e wireEntry
}

// ShardUnsafe marks balancers that cannot run under the sharded engine:
// anything whose decisions read state outside the deciding switch's shard
// (CONGA's leaf-to-leaf feedback, the pin table per-flow and flowcell
// DRILL share across switches). NewSharded refuses them; the sequential
// engine runs them unchanged.
type ShardUnsafe interface{ ShardUnsafe() }

// NewSharded assembles a network partitioned into one domain per entry of
// shards. assign maps every topology node to its shard index; hosts must
// share their leaf's shard (the NIC link would otherwise be a boundary
// inside the host's own send path). global carries the barrier-class
// events (workload, failures, samplers); it must share the shard sims'
// seed so derived random streams are engine-invariant.
func NewSharded(global *sim.Sim, shards []*sim.Sim, assign []int, t *topo.Topology, cfg Config) *Network {
	cfg.defaults()
	if _, bad := cfg.Balancer.(ShardUnsafe); bad {
		panic(fmt.Sprintf("fabric: balancer %s cannot run sharded (reads cross-shard state)", cfg.Balancer.Name()))
	}
	if len(assign) != len(t.Nodes) {
		panic("fabric: shard assignment must cover every node")
	}
	n := &Network{
		Sim:      global,
		Topo:     t,
		Cfg:      cfg,
		balancer: cfg.Balancer,
		tracer:   cfg.Tracer,
		sharded:  true,
	}
	n.doms = make([]*domain, len(shards))
	n.exchPairs = make([][]uint64, len(shards))
	for i := range n.exchPairs {
		n.exchPairs[i] = make([]uint64, len(shards))
	}
	for i, s := range shards {
		n.doms[i] = &domain{
			id: i, net: n, sim: s,
			hops:      &metrics.HopStats{},
			delivered: new(int64),
			sent:      new(int64),
			pool:      &PacketPool{},
		}
	}
	n.domByNode = make([]*domain, len(t.Nodes))
	for nd, si := range assign {
		if si < 0 || si >= len(shards) {
			panic("fabric: shard assignment out of range")
		}
		n.domByNode[nd] = n.doms[si]
	}
	for _, h := range t.Hosts {
		if n.domByNode[h] != n.domByNode[t.LeafOf(h)] {
			panic("fabric: host assigned to a different shard than its leaf")
		}
	}
	n.build()
	return n
}

// Sharded reports whether this network runs the sharded engine.
func (n *Network) Sharded() bool { return n.sharded }

// NumDomains reports the number of shard domains (1 for sequential).
func (n *Network) NumDomains() int { return len(n.doms) }

// DomainIndex reports which shard owns node id.
func (n *Network) DomainIndex(id topo.NodeID) int { return n.domByNode[id].id }

// DomainSim returns the scheduler owning node id's events — the per-shard
// sim under the sharded engine, the one Sim otherwise. The transport layer
// uses it so a host's timers and clock reads stay inside the host's shard.
func (n *Network) DomainSim(id topo.NodeID) *sim.Sim { return n.domByNode[id].sim }

// ShardLookahead returns the conservative window bound: the minimum
// propagation delay across shard-boundary links. With no boundary links
// (one shard, or a degenerate partition) any positive bound is valid, and
// a generous one lets the synchronizer cut windows on global events alone.
func (n *Network) ShardLookahead() units.Time {
	var min units.Time
	for _, p := range n.Ports {
		if p.boundary && (min == 0 || p.Prop < min) {
			min = p.Prop
		}
	}
	if min == 0 {
		min = units.Millisecond
	}
	return min
}

// ExchangeShards drains every domain's outbox into the destination ports'
// wire rings, arming the port's arrival when the ring was idle. It runs at
// window barriers only, with every shard parked: domains are visited in
// shard-ID order and each boundary port is fed by exactly one source
// domain, so ring order (and therefore everything downstream) is
// deterministic. The merge allocates nothing at steady state: outboxes and
// rings reuse their backing arrays, and port events carry an index. The
// exchange matrix counts packets, not the empty entries of lost ones.
func (n *Network) ExchangeShards() {
	for _, d := range n.doms {
		pairs := n.exchPairs[d.id]
		for i := range d.outbox {
			m := &d.outbox[i]
			p := m.p
			idle := p.wireRing.empty()
			p.wireRing.push(m.e)
			if idle {
				p.dstDom.sim.AtPort(m.e.at, m.e.key, p.Index)
			}
			if m.e.pkt != nil {
				pairs[p.dstDom.id]++
			}
			*m = wireMsg{}
		}
		d.outbox = d.outbox[:0]
	}
}

// ExchangeMatrix returns a copy of the cross-shard traffic matrix:
// element [src][dst] counts messages exchanged from shard src to shard
// dst at window barriers so far. Sequential networks return nil. The
// matrix is written only at barriers, so reading it between RunUntil
// calls or from a global observer tick is race-free.
func (n *Network) ExchangeMatrix() [][]uint64 {
	if n.exchPairs == nil {
		return nil
	}
	out := make([][]uint64, len(n.exchPairs))
	for i, row := range n.exchPairs {
		out[i] = append([]uint64(nil), row...)
	}
	return out
}

// FoldShards settles every port and merges every domain's stat block
// into the Network-level fields (Hops, Delivered, pool counters) that
// reports and fingerprints read. Domains are folded in shard-ID order;
// every folded quantity is an integer total, so the result is
// byte-identical to the sequential run's single block. Call once, after
// the run stops; sequential networks fold nothing (their one domain
// aliases the Network fields directly) and only settle.
func (n *Network) FoldShards() {
	n.Settle()
	if !n.sharded {
		return
	}
	for _, d := range n.doms {
		n.Hops.Merge(d.hops)
		n.Delivered += *d.delivered
		n.Sent += *d.sent
		n.pool.Gets += d.pool.Gets
		n.pool.News += d.pool.News
		n.pool.Puts += d.pool.Puts
	}
}
