package fabric

import (
	"fmt"
	"slices"

	"drill/internal/metrics"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// Balancer decides, per packet, which output port a switch forwards on.
// Implementations must be deterministic given the engine's random stream.
type Balancer interface {
	Name() string
	// Choose returns a Network port index for pkt among the groups toward
	// pkt.DstLeafIdx. It is only called when there is a real choice (the
	// packet is not at its destination leaf and is not source-routed).
	Choose(net *Network, sw *Switch, eng *Engine, pkt *Packet) int32
}

// TableBuilder is implemented by balancers that install their own
// forwarding groups (e.g. DRILL's symmetric-component decomposition) by
// calling InstallGroups from BuildTables. Others get the default
// single-group-of-all-next-hops tables.
type TableBuilder interface {
	BuildTables(net *Network)
}

// TxObserver is notified when a packet begins transmission on a port; CONGA
// uses it to update DREs and stamp congestion.
type TxObserver interface {
	OnTx(net *Network, port *Port, pkt *Packet)
}

// ArriveObserver is notified when a packet arrives at a switch, before
// forwarding; CONGA uses it to harvest congestion feedback at leaves.
type ArriveObserver interface {
	OnArrive(net *Network, sw *Switch, pkt *Packet)
}

// SendHook is notified when a host hands a packet to its NIC; Presto uses
// it to assign flowcell source routes.
type SendHook interface {
	OnSend(net *Network, host *Host, pkt *Packet)
}

// Config parameterizes a Network.
type Config struct {
	Engines    int        // forwarding engines per switch (default 1)
	QueueCap   int        // per-switch-port packet cap (default 256)
	VisFactor  float64    // visibility delay as a multiple of MTU serialization (default 0.05)
	RouteDelay units.Time // control-plane reconvergence delay after failures

	// ECNThreshold, when > 0, marks packets (ECN CE) that enqueue behind at
	// least that many packets — the switch half of DCTCP. An extension: the
	// paper's §4 cites ECN-based incast mitigations as the alternative that
	// DRILL competes with.
	ECNThreshold int

	Balancer Balancer

	// Tracer, when non-nil, receives packet-lifecycle events (enqueue,
	// drop, tx-start, link-depart, arrive, deliver) from this network's
	// data plane. Nil — the default — costs one branch per site and zero
	// allocations; see internal/trace.
	Tracer *trace.Tracer
}

func (c *Config) defaults() {
	if c.Engines == 0 {
		c.Engines = 1
	}
	if c.QueueCap == 0 {
		// ≈390KB per port at full MTU — the per-port slice of a
		// shared-buffer datacenter ASIC. Shallow enough that microbursts
		// overflow under load-oblivious balancing (the loss behaviour the
		// paper's Fig. 14(c) reports) while leaving room for the queueing
		// contrast of Fig. 6(c).
		c.QueueCap = 256
	}
	if c.VisFactor == 0 {
		// A packet becomes visible to engines once its enqueue completes;
		// the write itself is a small fraction of MTU serialization (§3.2.1
		// models imprecise-but-fresh counters, not stale ones). Larger
		// values model slower counter paths — see the ablvis experiment.
		c.VisFactor = 0.05
	}
	if c.RouteDelay == 0 {
		c.RouteDelay = 1 * units.Millisecond
	}
}

const (
	hostQueueCap = 4096              // host NIC queue cap, in packets
	mtu          = 1518 * units.Byte // the frame whose serialization VisFactor scales
)

// Network binds a topology, routing state, and a balancer into a running
// data plane on a simulator.
type Network struct {
	Sim    *sim.Sim
	Topo   *topo.Topology
	Routes *topo.Routes
	Cfg    Config

	Ports    []*Port   // one per directed channel, indexed by ChanID (= Port.Index)
	Switches []*Switch // indexed by NodeID; nil for hosts

	// Dense per-node/per-channel lookup tables: the arrive/forward path
	// runs once per packet per hop. Indexed by NodeID / ChanID (both dense
	// by construction in topo).
	hostByNode []*Host // nil for switches
	hostNIC    []int32 // host NodeID → its leaf→host port; -1 elsewhere
	inIdx      []int32 // arriving ChanID → dense input index at the switch

	Hops metrics.HopStats

	// Delivered counts packets handed to destination hosts.
	Delivered int64

	// Sent counts packets hosts handed to their NICs — the left side of the
	// conservation law Sent == Delivered + drops + queued + in-flight.
	// Under the sharded engine each domain keeps its own counter and this
	// one carries the folded total after FoldShards.
	Sent int64

	balancer  Balancer
	txObs     TxObserver
	arriveObs ArriveObserver
	sendHook  SendHook
	tracer    *trace.Tracer

	// pool recycles packets at deliver/drop sites; see pool.go. Under the
	// sharded engine each domain owns a private pool and this one only
	// carries the folded counters after FoldShards.
	pool PacketPool

	// Shard domains (see shard.go). A sequential network has one domain
	// whose sim/hops/delivered/pool alias the fields above; domByNode maps
	// every topology node to its owning domain.
	sharded   bool
	doms      []*domain
	domByNode []*domain
	// exchPairs[src][dst] counts cross-shard messages moved from src's
	// outbox into dst's wire rings, written only at window barriers by
	// the coordinator (see ExchangeShards). Deterministic: the exchange
	// traffic is a pure function of the event stream and the partition.
	exchPairs [][]uint64

	// Live-reconfiguration state (see epoch.go). epoch is the applied
	// generation; building is the epoch under construction, which
	// InstallGroups and InstallQuiver fill while BuildEpoch runs the table
	// builder; reconvergePending coalesces scheduled reconvergences so N
	// failures in one RouteDelay window build one epoch, not N.
	epoch             *Epoch
	building          *Epoch
	reconvergePending bool
}

// Pool exposes the packet free list's counters (alloc-avoidance telemetry).
func (n *Network) Pool() *PacketPool { return &n.pool }

// New assembles a network over t with the given balancer. Routes are
// computed from the topology's current (link up/down) state.
func New(s *sim.Sim, t *topo.Topology, cfg Config) *Network {
	cfg.defaults()
	if cfg.Balancer == nil {
		panic("fabric: Config.Balancer is required")
	}
	n := &Network{
		Sim:      s,
		Topo:     t,
		Cfg:      cfg,
		balancer: cfg.Balancer,
		tracer:   cfg.Tracer,
	}
	// The one sequential domain aliases the Network's own fields, so the
	// single-scheduler data plane reads and writes exactly what it always
	// did, one pointer hop away.
	d := &domain{sim: s, hops: &n.Hops, delivered: &n.Delivered, sent: &n.Sent, pool: &n.pool}
	n.doms = []*domain{d}
	n.domByNode = make([]*domain, len(t.Nodes))
	for i := range n.domByNode {
		n.domByNode[i] = d
	}
	n.build()
	return n
}

// build assembles ports, switches, hosts and initial routes. It is shared
// by the sequential (New) and sharded (NewSharded) constructors; the only
// engine-dependent inputs are n.domByNode (who owns each node) and n.Sim
// (the clock that seeds engine RNG streams — the global sim under
// sharding, so streams are engine-invariant).
func (n *Network) build() {
	t, cfg := n.Topo, n.Cfg
	n.txObs, _ = cfg.Balancer.(TxObserver)
	n.arriveObs, _ = cfg.Balancer.(ArriveObserver)
	n.sendHook, _ = cfg.Balancer.(SendHook)

	// One port per directed channel, built in channel order (2*link+dir),
	// so a port's index is its channel ID.
	n.inIdx = make([]int32, 2*len(t.Links))
	for i := range n.inIdx {
		n.inIdx[i] = -1
	}
	n.hostByNode = make([]*Host, len(t.Nodes))
	n.Switches = make([]*Switch, len(t.Nodes))
	n.hostNIC = make([]int32, len(t.Nodes))
	for i := range n.hostNIC {
		n.hostNIC[i] = -1
	}
	for _, l := range t.Links {
		for dir := 0; dir < 2; dir++ {
			c := t.Chan(topo.ChanID(2*int32(l.ID) + int32(dir)))
			p := &Port{
				Index: int32(c.ID),
				Chan:  c.ID, From: c.From, To: c.To,
				Rate: c.Rate, Prop: c.Prop,
				Hop: classifyHop(t, c),
				Cap: cfg.QueueCap,
				up:  l.Up,
			}
			if t.Nodes[c.From].Kind == topo.Host {
				p.Cap = hostQueueCap
			}
			p.visDelay = units.Time(float64(units.TxTime(mtu, c.Rate)) * cfg.VisFactor)
			p.dom = n.domByNode[c.From]
			p.dstDom = n.domByNode[c.To]
			p.boundary = p.dom != p.dstDom
			n.Ports = append(n.Ports, p)
			// The port's reusable event callbacks: the only closures the
			// data plane ever allocates, one pair per port for the
			// network's life, interned in the scheduler's permanent
			// registry so hot events carry a plain id instead of a pointer.
			// The transmission lives in the source node's scheduler; the
			// wire arrival fires at the far end, so it lives in the
			// destination's. Visibility needs no callback: it is settled
			// when read (Port.settleVisibility).
			p.txID = p.dom.sim.Register(func() { n.txDone(p) })
			p.wireID = p.dstDom.sim.Register(func() { n.wireFire(p) })
		}
	}

	// Switches.
	for _, nd := range t.Nodes {
		if nd.Kind == topo.Host {
			continue
		}
		sw := &Switch{
			Node: nd.ID, Kind: nd.Kind,
			dom:     n.domByNode[nd.ID],
			dropHop: dropHopClass(nd.Kind),
		}
		for i, cid := range t.OutAll(nd.ID) {
			pi := int32(cid)
			sw.OutPorts = append(sw.OutPorts, pi)
			c := t.Chan(cid)
			if t.Nodes[c.To].Kind == topo.Host {
				n.hostNIC[c.To] = pi
			}
			// The reverse channel arrives here; index it for engine sharding.
			n.inIdx[cid^1] = int32(i)
		}
		for e := 0; e < cfg.Engines; e++ {
			sw.engines = append(sw.engines, &Engine{
				Index: e,
				Rng:   n.Sim.Stream(int64(nd.ID)*1000 + int64(e) + 7919),
			})
		}
		n.Switches[nd.ID] = sw
	}

	// Hosts.
	for _, h := range t.Hosts {
		var nic *Port
		for _, cid := range t.OutAll(h) {
			nic = n.Ports[cid]
		}
		if nic == nil {
			panic(fmt.Sprintf("fabric: host %d has no NIC link", h))
		}
		n.hostByNode[h] = &Host{net: n, ID: h, Leaf: t.LeafOf(h), NIC: nic, dom: n.domByNode[h]}
	}

	n.Reconverge()
}

// Host returns the host entity for node id.
func (n *Network) Host(id topo.NodeID) *Host { return n.hostByNode[id] }

// Balancer returns the active load-balancing policy.
func (n *Network) Balancer() Balancer { return n.balancer }

// Tracer returns the telemetry tracer, nil when tracing is off.
func (n *Network) Tracer() *trace.Tracer { return n.tracer }

// QueuedPackets sums the true occupancy of every port — the "still-queued"
// term of the packet-conservation invariant.
func (n *Network) QueuedPackets() int64 {
	var q int64
	for _, p := range n.Ports {
		q += int64(p.QPkts)
	}
	return q
}

// InFlightPackets counts packets on the wire: parked on a port's in-flight
// ring awaiting arrival, or awaiting exchange in a shard outbox — the last
// term of the conservation law Sent == Delivered + drops + queued +
// in-flight. Barrier-safe: valid mid-run from a global-class event and
// after a full drain (where it reports 0 unless links are partitioned
// down).
func (n *Network) InFlightPackets() int64 {
	var f int64
	for _, p := range n.Ports {
		f += int64(p.wireRing.len())
	}
	for _, d := range n.doms {
		f += int64(len(d.outbox))
	}
	return f
}

// SentPackets sums host sends across domains. Unlike the Sent field it is
// valid mid-run from a global-class event (all shards parked), before
// FoldShards has run.
func (n *Network) SentPackets() int64 {
	var s int64
	for _, d := range n.doms {
		s += *d.sent
	}
	return s
}

// DeliveredPackets sums deliveries across domains; barrier-safe like
// SentPackets.
func (n *Network) DeliveredPackets() int64 {
	var s int64
	for _, d := range n.doms {
		s += *d.delivered
	}
	return s
}

// DroppedPackets sums drops across domains' hop-stat blocks; barrier-safe
// like SentPackets.
func (n *Network) DroppedPackets() int64 {
	var s int64
	for _, d := range n.doms {
		s += d.hops.TotalDrops()
	}
	return s
}

// SwitchList returns the switches ordered by node ID: Switches without
// the hosts' nil entries.
func (n *Network) SwitchList() []*Switch {
	out := make([]*Switch, 0, len(n.Topo.Nodes)-len(n.Topo.Hosts))
	for _, sw := range n.Switches {
		if sw != nil {
			out = append(out, sw)
		}
	}
	return out
}

// BuildDefaultTables installs, at every switch and for every destination
// leaf, a single group containing all equal-cost next hops — classic ECMP
// tables, which Random/RR/DRILL-symmetric share.
func (n *Network) BuildDefaultTables() {
	n.InstallGroups(func(sw *Switch, leaf topo.NodeID) []Group {
		hops := n.Routes.NextHops(sw.Node, leaf)
		if len(hops) == 0 {
			return nil // unreachable (partitioned by failures)
		}
		ports := make([]int32, len(hops))
		for i, c := range hops {
			ports[i] = int32(c)
		}
		return []Group{{Ports: ports, Weight: 1}}
	})
}

// InstallGroups builds every switch's forwarding tables into the epoch
// under construction: groupsFor returns the groups toward one destination
// leaf (nil when it is unreachable), each a port set and its weight. The
// fabric owns the table format: it sorts each port set and gives every
// distinct set at a switch a dense ID, in first-seen order, which engines
// key their per-group state on. A TableBuilder calls it from BuildTables;
// only BuildEpoch runs those.
func (n *Network) InstallGroups(groupsFor func(sw *Switch, leaf topo.NodeID) []Group) {
	for _, sw := range n.SwitchList() {
		tables := make([][]Group, len(n.Topo.Leaves))
		ids := map[string]int32{}
		for li, leaf := range n.Topo.Leaves {
			if sw.Node == leaf {
				continue
			}
			groups := groupsFor(sw, leaf)
			if len(groups) == 0 {
				continue
			}
			for i := range groups {
				g := &groups[i]
				slices.Sort(g.Ports)
				// The lookup key is built on the stack, so only a port set
				// seen for the first time allocates.
				var stack [64]byte
				key := stack[:0]
				for _, p := range g.Ports {
					key = append(key, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
				}
				id, ok := ids[string(key)]
				if !ok {
					id = int32(len(ids))
					ids[string(key)] = id
				}
				g.ID = id
			}
			tables[li] = groups
		}
		n.building.tables = append(n.building.tables,
			epochTable{node: sw.Node, tables: tables, groupCount: int32(len(ids))})
	}
}

// dropHopClass buckets a packet dropped *at* a switch — no output port
// exists, e.g. the destination is unreachable during a failure window — by
// the switch's forwarding tier. Leaves would have forwarded on their
// upward hop, spines/aggs on their downward hop toward a leaf, cores on
// their downward hop toward an agg. Before this classification existed,
// every such drop was booked against Hop1 regardless of tier, skewing the
// per-hop drop counters and the trace conservation cross-check.
func dropHopClass(kind topo.NodeKind) metrics.HopClass {
	switch kind {
	case topo.Leaf:
		return metrics.Hop1
	case topo.Spine, topo.Agg:
		return metrics.Hop2
	default:
		return metrics.Down2
	}
}

// classifyHop buckets a channel for per-hop telemetry.
func classifyHop(t *topo.Topology, c topo.Chan) metrics.HopClass {
	from, to := t.Nodes[c.From].Kind, t.Nodes[c.To].Kind
	switch {
	case from == topo.Host:
		return metrics.HostUp
	case to == topo.Host:
		return metrics.Hop3
	case from == topo.Leaf:
		return metrics.Hop1
	case to == topo.Leaf:
		return metrics.Hop2
	case from == topo.Agg && to == topo.Core:
		return metrics.Up2
	default:
		return metrics.Down2
	}
}

// --- data plane ---

// enqueue places pkt on port p at the current time, dropping on overflow.
//
//drill:hotpath
func (n *Network) enqueue(p *Port, pkt *Packet) {
	if !p.up || (p.Cap > 0 && int(p.QPkts) >= p.Cap) {
		n.drop(p, pkt)
		return
	}
	pkt.enqAt = p.dom.sim.Now()
	if n.Cfg.ECNThreshold > 0 && int(p.QPkts) >= n.Cfg.ECNThreshold {
		pkt.ECNCE = true
	}
	p.queue.push(pkt)
	p.EnqPackets++
	p.QPkts++
	p.QBytes += int64(pkt.Size)
	if n.tracer != nil {
		n.tracer.Packet(trace.Enqueue, pkt.enqAt, p.Index, uint8(p.Hop), pkt.FlowID, pkt.Seq, int32(pkt.Size), p.QPkts)
	}
	p.pushVisibility(pkt.Size)
	if !p.busy {
		n.transmit(p)
	}
}

// transmit serializes the head-of-line packet onto the link.
//
//drill:hotpath
func (n *Network) transmit(p *Port) {
	d := p.dom
	pkt := *p.queue.peek() // head stays queued while in service
	p.busy = true
	wait := d.sim.Now() - pkt.enqAt
	d.hops.RecordQueueing(p.Hop, wait)
	// The head leaves the waiting queue as it starts onto the wire.
	p.departVisibility(pkt.Size)
	if n.tracer != nil {
		n.tracer.Emit(trace.Event{T: d.sim.Now(), Kind: trace.TxStart, Port: p.Index, Hop: uint8(p.Hop),
			Flow: pkt.FlowID, Seq: pkt.Seq, Size: int32(pkt.Size), QLen: p.QPkts, Val: float64(wait)})
	}
	txT := units.TxTime(pkt.Size, p.Rate)
	if n.txObs != nil {
		n.txObs.OnTx(n, p, pkt)
	}
	// At most one transmission is in service per port, so the reusable
	// callback needs no ring; AfterID takes a fresh seq like any After.
	d.sim.AfterID(txT, p.txID)
}

//drill:hotpath
//drill:allocs 1 outbox growth amortizes across epochs
func (n *Network) txDone(p *Port) {
	d := p.dom
	pkt := p.queue.pop()
	p.QPkts--
	p.QBytes -= int64(pkt.Size)
	p.TxBytes += int64(pkt.Size)
	p.busy = false
	if p.up {
		if n.tracer != nil {
			n.tracer.Packet(trace.LinkDepart, d.sim.Now(), p.Index, uint8(p.Hop), pkt.FlowID, pkt.Seq, int32(pkt.Size), p.QPkts)
		}
		// The arrival's key is a pure function of the port and its
		// departure counter — not of this scheduler's state — so a sharded
		// run computes the same key for the same departure and the far
		// scheduler dispatches it in exactly the sequential engine's slot.
		at := d.sim.Now() + p.Prop
		key := sim.ArrivalKey(uint64(p.Index), p.wireSeq)
		p.wireSeq++
		if p.boundary {
			// Cross-shard wire: the destination's scheduler may only be
			// touched at a barrier. Park the packet in the outbox; the
			// coordinator's exchange pushes it onto the wire ring with the
			// identical key, so nothing downstream can tell the difference.
			d.outbox = append(d.outbox, wireMsg{p: p, at: at, key: key, pkt: pkt})
		} else {
			// Put the packet on the wire: park it on the port's in-flight
			// ring at its reserved (time, key) slot.
			idle := p.wireRing.empty()
			p.wireRing.push(wireEntry{at: at, key: key, pkt: pkt})
			if idle {
				d.sim.AtKeyID(at, key, p.wireID)
			}
		}
		if !p.queue.empty() {
			n.transmit(p)
		}
		return
	}
	// Link died mid-flight: the packet is lost, and so is anything queued.
	n.drop(p, pkt)
	n.drainPort(p)
}

// wireFire lands the head of the port's in-flight ring at the far end of
// the link and re-arms the timer for the next packet on the wire at its
// reserved (time, seq) slot. Re-arming precedes delivery so the arrival's
// downstream effects (forwarding, transport ACKs) observe a fully
// consistent ring.
//
//drill:hotpath
func (n *Network) wireFire(p *Port) {
	e := p.wireRing.pop()
	if !p.wireRing.empty() {
		h := p.wireRing.peek()
		//drill:allow shardconfine wireFire runs on the destination shard: propagation delay exceeds the epoch, so the reserved slot is shard-local by the exchange invariant
		p.dstDom.sim.AtKeyID(h.at, h.key, p.wireID)
	}
	n.arrive(e.pkt, p.To, p.Chan)
}

// drainPort discards all waiting packets of a failed port.
//
//drill:hotpath
func (n *Network) drainPort(p *Port) {
	for !p.queue.empty() {
		pkt := p.queue.pop()
		p.QPkts--
		p.QBytes -= int64(pkt.Size)
		p.departVisibility(pkt.Size)
		n.drop(p, pkt)
	}
}

// drop loses pkt at port p — on a down link, at a full queue, with its
// link dying mid-transmission, or drained from a dead port: it counts the
// drop on the port and its hop class, traces it, and recycles the packet.
//
//drill:hotpath
func (n *Network) drop(p *Port, pkt *Packet) {
	d := p.dom
	p.Drops++
	d.hops.RecordDrop(p.Hop)
	if n.tracer != nil {
		n.tracer.Packet(trace.Drop, d.sim.Now(), p.Index, uint8(p.Hop), pkt.FlowID, pkt.Seq, int32(pkt.Size), p.QPkts)
	}
	d.pool.Put(pkt)
}

// arrive delivers a packet at node `at` having entered via channel `in`.
//
//drill:hotpath
func (n *Network) arrive(pkt *Packet, at topo.NodeID, in topo.ChanID) {
	//drill:allow shardconfine arrive executes on the shard that owns node `at`: the wire hop onto this shard already crossed on the exchange path
	d := n.domByNode[at]
	if h := n.hostByNode[at]; h != nil {
		*d.delivered++
		if n.tracer != nil {
			n.tracer.Packet(trace.Deliver, d.sim.Now(), int32(in), uint8(n.Ports[in].Hop),
				pkt.FlowID, pkt.Seq, int32(pkt.Size), 0)
		}
		if h.Handler != nil {
			h.Handler.HandlePacket(h, pkt)
		}
		// The handler consumes the packet synchronously (transport copies
		// what it keeps); a delivered packet is dead and can be recycled.
		d.pool.Put(pkt)
		return
	}
	sw := n.Switches[at]
	if n.tracer != nil {
		n.tracer.Packet(trace.Arrive, d.sim.Now(), int32(in), uint8(n.Ports[in].Hop),
			pkt.FlowID, pkt.Seq, int32(pkt.Size), 0)
	}
	pkt.Hops++
	if pkt.Hops > MaxHops {
		panic(fmt.Sprintf("fabric: packet exceeded %d hops (routing loop?) flow=%d at=%s",
			MaxHops, pkt.FlowID, n.Topo.Nodes[at].Name))
	}
	if n.arriveObs != nil {
		n.arriveObs.OnArrive(n, sw, pkt)
	}
	n.forward(sw, n.engineFor(sw, in), pkt)
}

// engineFor shards a packet arriving at sw over channel in to one of the
// switch's forwarding engines by its dense input index, modelling
// per-line-card forwarding engines.
//
//drill:hotpath
func (n *Network) engineFor(sw *Switch, in topo.ChanID) *Engine {
	if len(sw.engines) == 1 {
		return sw.engines[0]
	}
	idx := n.inIdx[in]
	if idx < 0 {
		idx = int32(in)
	}
	return sw.engines[int(idx)%len(sw.engines)]
}

// forward routes pkt out of sw.
//
//drill:hotpath
func (n *Network) forward(sw *Switch, eng *Engine, pkt *Packet) {
	// Local delivery.
	if sw.Node == pkt.DstLeaf {
		if pi := n.hostNIC[pkt.Dst]; pi >= 0 {
			n.enqueue(n.Ports[pi], pkt)
			return
		}
	}
	// Source route (Presto).
	if pkt.Path != nil && int(pkt.PathIdx) < len(pkt.Path) {
		// The next channel must leave this switch; otherwise the route no
		// longer matches where the packet is, and the tables take over.
		if p := n.Ports[pkt.Path[pkt.PathIdx]]; p.From == sw.Node {
			pkt.PathIdx++
			if p.up {
				n.enqueue(p, pkt)
				return
			}
			// Path broken: fall back to table forwarding below.
		}
	}
	groups := sw.tables[pkt.DstLeafIdx]
	if len(groups) == 0 {
		// Destination unreachable from here (mid-failure window): drop,
		// booked against this switch's own forwarding tier (port -1: there
		// is no output port to attribute it to).
		sw.dom.hops.RecordDrop(sw.dropHop)
		if n.tracer != nil {
			n.tracer.Packet(trace.Drop, sw.dom.sim.Now(), -1, uint8(sw.dropHop), pkt.FlowID, pkt.Seq, int32(pkt.Size), 0)
		}
		sw.dom.pool.Put(pkt)
		return
	}
	var port int32
	if len(groups) == 1 && len(groups[0].Ports) == 1 {
		port = groups[0].Ports[0]
	} else {
		port = n.balancer.Choose(n, sw, eng, pkt)
	}
	n.enqueue(n.Ports[port], pkt)
}

// --- experiment helpers ---

// LeafUplinks returns the leaf's output ports toward the fabric (non-host).
func (n *Network) LeafUplinks(leaf topo.NodeID) []*Port {
	sw := n.Switches[leaf]
	var out []*Port
	for _, pi := range sw.OutPorts {
		p := n.Ports[pi]
		if n.Topo.Nodes[p.To].Kind != topo.Host && p.up {
			out = append(out, p)
		}
	}
	return out
}

// DownlinksTo returns, across all top-tier switches adjacent to leaf, the
// output ports pointing down at it (the "spine downlink" queue set of
// §3.2.3's metric).
func (n *Network) DownlinksTo(leaf topo.NodeID) []*Port {
	var out []*Port
	for _, sw := range n.SwitchList() {
		if sw.Node == leaf {
			continue
		}
		for _, pi := range sw.OutPorts {
			p := n.Ports[pi]
			if p.To == leaf && p.up {
				out = append(out, p)
			}
		}
	}
	return out
}
