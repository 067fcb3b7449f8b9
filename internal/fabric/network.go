package fabric

import (
	"fmt"
	"math"
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

// TxObserver is notified when a packet begins transmission on a port at
// time at; CONGA uses it to update DREs and stamp congestion. Departures
// settle when read, so OnTx may run after at, when the port is next
// settled (Port.Settle), but before the packet arrives, and in time order
// per port.
type TxObserver interface {
	OnTx(net *Network, port *Port, pkt *Packet, at units.Time)
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
	RouteDelay units.Time // control-plane reconvergence delay after failures (default 1ms)

	Balancer Balancer

	// Tracer, when non-nil, receives packet-lifecycle events (enqueue,
	// drop, tx-start, link-depart, arrive, deliver) from this network's
	// data plane. Nil — the default — costs one branch per site and zero
	// allocations; see internal/trace.
	Tracer *trace.Tracer
}

// defaults rejects the values no network can run with and fills in the
// defaults. Zero means the default; a negative count, factor or delay
// would otherwise surface mid-run as a division by zero, a timer in the
// past, or queues that never drop.
func (c *Config) defaults() {
	switch {
	case c.Balancer == nil:
		panic("fabric: Config.Balancer is required")
	case c.Engines < 0:
		panic(fmt.Sprintf("fabric: Config.Engines %d is negative", c.Engines))
	case c.QueueCap < 0:
		panic(fmt.Sprintf("fabric: Config.QueueCap %d is negative", c.QueueCap))
	case c.VisFactor < 0 || math.IsNaN(c.VisFactor) || math.IsInf(c.VisFactor, 0):
		panic(fmt.Sprintf("fabric: Config.VisFactor %g is not a finite non-negative factor", c.VisFactor))
	case c.RouteDelay < 0:
		panic(fmt.Sprintf("fabric: Config.RouteDelay %v is negative", c.RouteDelay))
	}
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

	Ports    []*Port   // one per directed channel, indexed by ChanID (= Port.Index); into one array
	Switches []*Switch // indexed by NodeID; nil for hosts

	// Dense per-node/per-channel lookup tables: the arrive/forward path
	// runs once per packet per hop. Indexed by NodeID / ChanID (both dense
	// by construction in topo).
	hostByNode []*Host   // nil for switches
	hostNIC    []int32   // host NodeID → its leaf→host port; -1 elsewhere
	hostLeaf   []leafRef // host NodeID → its leaf and leaf index; leaf -1 elsewhere
	inIdx      []int32   // arriving ChanID → dense input index at the switch

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
	d := &domain{net: n, sim: s, hops: &n.Hops, delivered: &n.Delivered, sent: &n.Sent, pool: &n.pool}
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

	// Every port wakes at each departure while a tracer records tx-start or
	// link-depart events, which it orders by (time, key).
	wakeAll := n.tracer != nil && (n.tracer.Enabled(trace.TxStart) || n.tracer.Enabled(trace.LinkDepart))

	// One port per directed channel, built in channel order (2*link+dir),
	// so a port's index is its channel ID. The ports live in one array;
	// their events carry the index and dispatch through one handler per
	// scheduler.
	ports := make([]Port, 2*len(t.Links))
	n.Ports = make([]*Port, len(ports))
	for _, d := range n.doms {
		d.sim.OnPort(n.portEvent)
	}
	n.inIdx = make([]int32, 2*len(t.Links))
	for i := range n.inIdx {
		n.inIdx[i] = -1
	}
	n.hostByNode = make([]*Host, len(t.Nodes))
	n.Switches = make([]*Switch, len(t.Nodes))
	n.hostNIC = make([]int32, len(t.Nodes))
	n.hostLeaf = make([]leafRef, len(t.Nodes))
	for i := range n.hostNIC {
		n.hostNIC[i] = -1
		n.hostLeaf[i] = leafRef{leaf: -1, idx: -1}
	}
	for _, l := range t.Links {
		for dir := 0; dir < 2; dir++ {
			c := t.Chan(topo.ChanID(2*int32(l.ID) + int32(dir)))
			p := &ports[c.ID]
			*p = Port{
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
			p.wake = wakeAll || p.boundary
			n.Ports[c.ID] = p
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
		leaf := t.LeafOf(h)
		n.hostByNode[h] = &Host{net: n, ID: h, Leaf: leaf, NIC: nic, dom: n.domByNode[h]}
		n.hostLeaf[h] = leafRef{leaf: leaf, idx: int32(t.LeafIndex(leaf))}
	}

	n.Reconverge()
}

// leafRef is a host's leaf and that leaf's dense index: the addressing
// Host.Send stamps on every packet bound for the host.
type leafRef struct {
	leaf topo.NodeID // -1 for a switch
	idx  int32
}

// Host returns the host entity for node id.
func (n *Network) Host(id topo.NodeID) *Host { return n.hostByNode[id] }

// Balancer returns the active load-balancing policy.
func (n *Network) Balancer() Balancer { return n.balancer }

// Tracer returns the telemetry tracer, nil when tracing is off.
func (n *Network) Tracer() *trace.Tracer { return n.tracer }

// Settle brings every port up to its scheduler's frontier: it applies the
// departures and visibility updates already passed, so the hop stats
// (RecordQueueing runs as a departure starts the next packet) and every
// port counter read afterwards are exact. Barrier-safe: call it from a
// global-class event mid-run, or after a run stops.
func (n *Network) Settle() {
	for _, p := range n.Ports {
		p.Settle()
	}
}

// QueuedPackets sums the true occupancy of every port — the "still-queued"
// term of the packet-conservation invariant. Barrier-safe like Settle.
func (n *Network) QueuedPackets() int64 {
	var q int64
	for _, p := range n.Ports {
		q += int64(p.QueueLen())
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
	n.Settle()
	var f int64
	for _, p := range n.Ports {
		f += p.inFlight()
	}
	for _, d := range n.doms {
		for i := range d.outbox {
			if d.outbox[i].e.pkt != nil {
				f++
			}
		}
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
	n.InstallGroups(func(sw *Switch, leaf topo.NodeID, add func([]topo.ChanID, uint32)) {
		// No next hop: unreachable (partitioned by failures).
		if hops := n.Routes.NextHops(sw.Node, leaf); len(hops) > 0 {
			add(hops, 1)
		}
	})
}

// InstallGroups builds every switch's forwarding table into the epoch
// under construction. For each switch and destination leaf, groupsFor
// calls add once per group toward that leaf: a set of the switch's output
// ports and the group's weight. A leaf it adds nothing for is unreachable.
// add copies the port set and sorts its copy.
//
// The fabric owns the table format (see Switch.fwd): each switch keeps one
// int32 per leaf, one array of groups and one array holding each distinct
// port set once, so the tables allocate per switch, not per entry. Every
// distinct set at a switch gets a dense ID, in first-seen order, which
// engines key their per-group state on. A TableBuilder calls it from
// BuildTables; only BuildEpoch runs those.
func (n *Network) InstallGroups(groupsFor func(sw *Switch, leaf topo.NodeID, add func(ports []topo.ChanID, weight uint32))) {
	switches := n.SwitchList()
	nl := len(n.Topo.Leaves)
	n.building.tables = slices.Grow(n.building.tables, len(switches))
	// Every switch's fwd and off are windows of one array.
	flat := make([]int32, len(switches)*(2*nl+1))

	// Scratch for the switch being built, reused by the next one: its
	// distinct port sets back to back in ports, each set's window in sets
	// (indexed by ID), and its groups, whose IDs stand in for their Ports
	// until the switch is done. A switch has few distinct sets (a k-ary
	// fat-tree switch at most k), so add finds a set by linear search.
	type window struct{ lo, hi int32 }
	var (
		ports  []int32
		sets   []window
		groups []Group
	)
	add := func(cs []topo.ChanID, weight uint32) {
		lo := int32(len(ports))
		for _, c := range cs {
			ports = append(ports, int32(c))
		}
		set := ports[lo:]
		slices.Sort(set)
		id := int32(len(sets))
		for i, w := range sets {
			if slices.Equal(ports[w.lo:w.hi], set) {
				id = int32(i)
				break
			}
		}
		if id < int32(len(sets)) {
			ports = ports[:lo] // seen before: keep the first copy only
		} else {
			sets = append(sets, window{lo, int32(len(ports))})
		}
		groups = append(groups, Group{ID: id, Weight: weight})
	}

	for _, sw := range switches {
		fwd, off := flat[:nl:nl], flat[nl:2*nl+1:2*nl+1]
		flat = flat[2*nl+1:]
		ports, sets, groups = ports[:0], sets[:0], groups[:0]
		for li, leaf := range n.Topo.Leaves {
			first := len(groups)
			off[li] = int32(first)
			fwd[li] = noRoute
			if sw.Node == leaf {
				continue
			}
			groupsFor(sw, leaf, add)
			if added := groups[first:]; len(added) > 0 {
				fwd[li] = viaBalancer
				if w := sets[added[0].ID]; len(added) == 1 && w.hi-w.lo == 1 {
					fwd[li] = ports[w.lo] // one single-port group: no choice to make
				}
			}
		}
		off[nl] = int32(len(groups))
		// Exact-size copies, so the scratch can serve the next switch.
		swPorts, swGroups := slices.Clone(ports), slices.Clone(groups)
		for i := range swGroups {
			w := sets[swGroups[i].ID]
			swGroups[i].Ports = swPorts[w.lo:w.hi:w.hi]
		}
		n.building.tables = append(n.building.tables, epochTable{
			node: sw.Node, fwd: fwd, off: off, groups: swGroups, groupCount: int32(len(sets)),
		})
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
// A packet entering an empty port starts transmitting at once and, unless
// the port hands departures to a shard outbox, arms its own arrival.
//
//drill:hotpath
func (n *Network) enqueue(p *Port, pkt *Packet) {
	p.Settle()
	if !p.up || int(p.qPkts) >= p.Cap {
		n.drop(p, pkt)
		return
	}
	now := p.dom.sim.Now()
	pkt.enqAt = now
	idle := p.queue.empty()
	p.queue.push(pkt)
	p.EnqPackets++
	p.qPkts++
	p.qBytes += int64(pkt.Size)
	if n.tracer != nil {
		n.tracer.Packet(trace.Enqueue, now, p.Index, uint8(p.Hop), pkt.FlowID, pkt.Seq, int32(pkt.Size), p.qPkts)
	}
	p.pushVisibility(pkt.Size)
	if !idle {
		return
	}
	n.transmit(p, now)
	if !p.boundary && p.wireRing.empty() {
		p.dom.sim.AtPort(p.depAt+p.Prop, sim.ArrivalKey(uint64(p.Index), p.wireSeq), p.Index)
	}
}

// transmit starts serializing the head-of-line packet at time at: now, or
// the departure of the packet before it.
//
//drill:hotpath
func (n *Network) transmit(p *Port, at units.Time) {
	d := p.dom
	pkt := *p.queue.peek() // head stays queued while in service
	wait := at - pkt.enqAt
	d.hops.RecordQueueing(p.Hop, wait)
	// The head leaves the waiting queue as it starts onto the wire.
	p.departVisibility(pkt.Size)
	if n.tracer != nil {
		n.tracer.Emit(trace.Event{T: at, Kind: trace.TxStart, Port: p.Index, Hop: uint8(p.Hop),
			Flow: pkt.FlowID, Seq: pkt.Seq, Size: int32(pkt.Size), QLen: p.qPkts, Val: float64(wait)})
	}
	p.depAt = at + units.TxTime(pkt.Size, p.Rate)
	if n.txObs != nil {
		n.txObs.OnTx(n, p, pkt, at)
	}
	if p.wake {
		d.sim.AtPort(p.depAt, p.departKey(), p.Index)
	}
}

// depart applies the in-service packet's departure, which Settle found
// passed: the packet goes onto the wire (or into the shard outbox), and
// the next packet starts at the same instant. A packet whose link died
// under it is lost instead, and the waiting packets with it; its wire
// entry stays, empty, for the arrival armed for it.
//
//drill:hotpath
//drill:allocs 1 outbox growth amortizes across epochs
func (n *Network) depart(p *Port) {
	d := p.dom
	at := p.depAt
	pkt := p.queue.pop()
	p.qPkts--
	p.qBytes -= int64(pkt.Size)
	p.txBytes += int64(pkt.Size)
	// The arrival's key is a pure function of the port and its departure
	// counter — not of this scheduler's state — so a sharded run computes
	// the same key for the same departure and the far scheduler dispatches
	// it in exactly the sequential engine's slot.
	e := wireEntry{at: at + p.Prop, key: sim.ArrivalKey(uint64(p.Index), p.wireSeq), pkt: pkt}
	if p.up {
		if n.tracer != nil {
			n.tracer.Packet(trace.LinkDepart, at, p.Index, uint8(p.Hop), pkt.FlowID, pkt.Seq, int32(pkt.Size), p.qPkts)
		}
		p.wireSeq++
	} else {
		n.drop(p, pkt)
		n.drainPort(p)
		e.pkt = nil
	}
	if p.boundary {
		// Cross-shard wire: the destination's scheduler may only be
		// touched at a barrier. Park the entry in the outbox; the
		// coordinator's exchange pushes it onto the wire ring with the
		// identical key, so nothing downstream can tell the difference.
		d.outbox = append(d.outbox, wireMsg{p: p, e: e})
	} else {
		p.wireRing.push(e)
	}
	if !p.queue.empty() {
		n.transmit(p, at)
	}
}

// portEvent dispatches a port event: a silent wake-up settles the port; an
// arrival lands the head of the wire ring at the far end of the link. The
// arrival first settles the port (a boundary port's source side belongs to
// another shard and settles its departures itself), then re-arms the next
// arrival — the new wire head, or else the in-service packet at its
// departure plus propagation — before the landing's downstream effects
// (forwarding, transport ACKs) run.
//
//drill:hotpath
func (n *Network) portEvent(idx int32, arrival bool) {
	p := n.Ports[idx]
	if !arrival {
		p.Settle()
		return
	}
	if !p.boundary {
		p.Settle()
	}
	e := p.wireRing.pop()
	if !p.wireRing.empty() {
		h := p.wireRing.peek()
		//drill:allow shardconfine the arrival runs on the destination shard: propagation delay exceeds the window, so the reserved slot is shard-local by the exchange invariant
		p.dstDom.sim.AtPort(h.at, h.key, idx)
	} else if !p.boundary && !p.queue.empty() {
		p.dom.sim.AtPort(p.depAt+p.Prop, sim.ArrivalKey(uint64(idx), p.wireSeq), idx)
	}
	if e.pkt != nil {
		n.arrive(e.pkt, p.To, p.Chan)
	}
}

// drainPort discards all waiting packets of a failed port.
//
//drill:hotpath
func (n *Network) drainPort(p *Port) {
	for !p.queue.empty() {
		pkt := p.queue.pop()
		p.qPkts--
		p.qBytes -= int64(pkt.Size)
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
		n.tracer.Packet(trace.Drop, d.sim.Now(), p.Index, uint8(p.Hop), pkt.FlowID, pkt.Seq, int32(pkt.Size), p.qPkts)
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
	port := sw.fwd[pkt.DstLeafIdx]
	if port < 0 {
		if port == noRoute {
			// Destination unreachable from here (mid-failure window): drop,
			// booked against this switch's own forwarding tier (port -1:
			// there is no output port to attribute it to).
			sw.dom.hops.RecordDrop(sw.dropHop)
			if n.tracer != nil {
				n.tracer.Packet(trace.Drop, sw.dom.sim.Now(), -1, uint8(sw.dropHop), pkt.FlowID, pkt.Seq, int32(pkt.Size), 0)
			}
			sw.dom.pool.Put(pkt)
			return
		}
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
