package fabric

import (
	"drill/internal/metrics"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

// Port is one directed output channel: the FIFO queue feeding a link
// direction, plus the delayed-visibility occupancy counters forwarding
// engines consult (§3.2.1: "the queue length does not include the packets
// that are just entering the queue until after they are being fully
// enqueued").
//
// True occupancy (QPkts/QBytes) counts packets from enqueue until their
// transmission completes; it is what the buffer cap limits and what the
// queue-length sampler reports. Visible occupancy (VisPkts/VisBytes) is the
// load signal engines compare: it lags enqueue by the port's visibility
// delay, and it counts only *waiting* packets — the head being read out of
// buffer memory onto the wire no longer occupies the queue an arriving
// packet must wait behind. (Counting the in-service packet makes every
// placement evict the flow's next packet to a different port, a
// self-displacement artifact that manufactures reordering the hardware
// does not exhibit.) Because the visibility delay is constant per port,
// visibility updates take effect in FIFO order and the skip-counter
// reconciliation below is exact.
//
// Visibility updates are settled when read, not dispatched as events:
// enqueue parks each update on visRing under the key sim.ReserveKey
// reserves for it, and VisibleBytes and departVisibility first apply every
// parked update the scheduler's frontier has passed (sim.Sim.Reached). The
// counters they then act on are exactly those a scheduler firing one event
// per update would hold at that point; the raw VisPkts/VisBytes fields can
// trail them until the next such read.
type Port struct {
	Index    int32 // position in Network.Ports
	Chan     topo.ChanID
	From, To topo.NodeID
	Rate     units.Rate
	Prop     units.Time
	Hop      metrics.HopClass

	Cap int // max queued packets (waiting + in service); 0 = unbounded

	queue fifo[*Packet] // waiting packets, head first; the head stays while in service

	QPkts  int32
	QBytes int64

	VisPkts  int32
	VisBytes int64
	visSkip  int32 // departures that outran their visibility update

	visDelay units.Time
	busy     bool
	up       bool

	// Batched event plumbing (see Network.wireFire): each port owns two
	// reusable callbacks — for the serialization in progress and for the
	// head of the wire ring — instead of allocating a closure per packet
	// per hop. The wire ring holds the packets in flight in FIFO order;
	// firing one re-arms the callback for the next at its arrival (at,
	// key) via sim.AtKeyID, so dispatch is byte-identical to the
	// one-event-per-packet path. Registered ids, not sim.Timers: these are
	// only ever armed when unarmed (fire-and-rearm), so they need none of
	// a Timer's location tracking — which would otherwise be maintained on
	// every heap sift of every packet event — and interning them keeps the
	// scheduler's event records pointer-free. The visibility ring holds
	// parked updates and arms nothing.
	txID     sim.FnID
	wireID   sim.FnID
	visRing  fifo[visEntry]
	wireRing fifo[wireEntry]

	// Shard plumbing (see shard.go). dom owns the queue side (enqueue,
	// visibility, transmission); dstDom owns the wire arrival at the far
	// end. They differ only on boundary ports, whose departures detour
	// through the domain outbox instead of arming dstDom's scheduler
	// directly. wireSeq counts departures; together with Index it forms
	// the engine-invariant arrival key (sim.ArrivalKey).
	dom      *domain
	dstDom   *domain
	boundary bool
	wireSeq  uint64

	// Counters.
	EnqPackets int64 // packets accepted into the queue
	TxBytes    int64
	Drops      int64
}

// Up reports whether the underlying link direction is in service.
func (p *Port) Up() bool { return p.up }

// QueueLen reports true occupancy in packets (waiting + in service).
func (p *Port) QueueLen() int32 { return p.QPkts }

// VisibleBytes reports the occupancy in bytes as a forwarding engine sees
// it — the load signal DRILL compares — after settling the updates due by
// now. Call it only from the scheduler that owns the port (an event of
// the port's shard, or a barrier).
//
//drill:hotpath
func (p *Port) VisibleBytes() int64 {
	p.settleVisibility()
	return p.VisBytes
}

// pushVisibility parks the visibility update of a packet of the given size
// enqueued now: it takes effect visDelay later, at the key an event
// scheduled now would have taken.
//
//drill:hotpath
func (p *Port) pushVisibility(size units.ByteSize) {
	if p.visDelay <= 0 {
		p.applyVisibility(size)
		return
	}
	s := p.dom.sim
	at := s.Now() + p.visDelay
	p.visRing.push(visEntry{at: at, key: s.ReserveKey(at), size: size})
}

// settleVisibility applies, in FIFO order, every parked visibility update
// the port's scheduler has passed.
//
//drill:hotpath
func (p *Port) settleVisibility() {
	for !p.visRing.empty() {
		e := p.visRing.peek()
		if !p.dom.sim.Reached(e.at, e.key) {
			return
		}
		p.applyVisibility(e.size)
		p.visRing.pop()
	}
}

// applyVisibility is one visibility update taking effect.
//
//drill:hotpath
func (p *Port) applyVisibility(size units.ByteSize) {
	if p.visSkip > 0 {
		p.visSkip--
		return
	}
	p.VisPkts++
	p.VisBytes += int64(size)
}

// departVisibility reconciles the visible counters when a packet leaves
// the waiting queue, possibly before its visibility update took effect.
//
//drill:hotpath
func (p *Port) departVisibility(size units.ByteSize) {
	p.settleVisibility()
	if p.VisPkts > 0 {
		p.VisPkts--
		p.VisBytes -= int64(size)
		return
	}
	p.visSkip++
}
