package fabric

import (
	"drill/internal/metrics"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

// Port is one directed output channel: the FIFO queue feeding a link
// direction, the packets on the link itself, and the delayed-visibility
// occupancy counters forwarding engines consult (§3.2.1: "the queue length
// does not include the packets that are just entering the queue until
// after they are being fully enqueued").
//
// True occupancy (QueueLen/QueueBytes) counts packets from enqueue until
// their transmission completes; it is what the buffer cap limits and what
// the queue-length sampler reports. Visible occupancy (VisPkts/VisBytes)
// is the load signal engines compare: it lags enqueue by the port's
// visibility delay, and it counts only *waiting* packets — the head being
// read out of buffer memory onto the wire no longer occupies the queue an
// arriving packet must wait behind. (Counting the in-service packet makes
// every placement evict the flow's next packet to a different port, a
// self-displacement artifact that manufactures reordering the hardware
// does not exhibit.) Because the visibility delay is constant per port,
// visibility updates take effect in FIFO order and the skip-counter
// reconciliation below is exact.
//
// One event per hop. A FIFO port at a fixed rate knows each packet's
// departure once the packet starts transmitting: it ends size/rate later,
// and the next packet starts then (Lindley's recursion). So a departure is
// not an event. The port keeps the in-service packet's departure time
// (depAt) under its pure key (sim.DepartKey), parks each visibility update
// under the key sim.ReserveKey reserves for it, and Settle applies —
// before anyone reads the port — every update and departure its scheduler
// has passed (sim.Sim.Reached). A departure moves the head onto the wire
// ring and starts the next packet at that instant. The counters a reader
// then sees are exactly those a scheduler firing one event per update and
// per departure would hold at that point; the raw fields can trail them
// until the next read. Only the wire arrival at the far end is an event: a
// port with anything queued or on the wire has exactly one armed, for the
// wire ring's head, or else for the in-service packet at its departure
// plus propagation.
//
// Where a departure must be seen as it happens the port is a waker: it
// arms a silent wake-up (a port event under the departure's key) that only
// settles it. Boundary ports of a sharded run wake, so their departures
// bound the windows and reach the outbox inside them; so does every port
// while a tracer records transmissions, so trace events stay in (time,
// key) order. A port whose link fails under a packet in service wakes at
// that departure, so the drop happens on time. A TxObserver needs no
// wake-up: it learns each transmission's start time when the port
// settles.
type Port struct {
	Index    int32 // position in Network.Ports
	Chan     topo.ChanID
	From, To topo.NodeID
	Rate     units.Rate
	Prop     units.Time
	Hop      metrics.HopClass

	Cap int // max queued packets (waiting + in service); always positive

	// queue holds the port's packets, head first. The head is in service
	// whenever the queue is non-empty; depAt is its departure.
	queue fifo[*Packet]
	depAt units.Time

	qPkts  int32
	qBytes int64

	VisPkts  int32
	VisBytes int64
	visSkip  int32 // departures that outran their visibility update

	visDelay units.Time
	up       bool
	wake     bool // arm a wake-up at every departure (see the type comment)

	// visRing holds parked visibility updates; wireRing the packets on the
	// link, in (arrival, key) order, each under the arrival key its
	// departure computed. A packet lost at its departure leaves a nil entry
	// there, so its arrival still dispatches, and finds nothing to land.
	visRing  fifo[visEntry]
	wireRing fifo[wireEntry]

	// Shard plumbing (see shard.go). dom owns the queue side (enqueue,
	// visibility, transmission); dstDom owns the wire arrival at the far
	// end. They differ only on boundary ports, whose departures detour
	// through the domain outbox instead of onto the wire ring directly.
	// wireSeq counts departures onto the wire; together with Index it
	// forms the engine-invariant departure and arrival keys.
	dom      *domain
	dstDom   *domain
	boundary bool
	wireSeq  uint64

	// Counters.
	EnqPackets int64 // packets accepted into the queue
	txBytes    int64
	Drops      int64
}

// Up reports whether the underlying link direction is in service.
func (p *Port) Up() bool { return p.up }

// QueueLen reports true occupancy in packets (waiting + in service) after
// settling the port. Like every read below, call it only from the
// scheduler that owns the port (an event of the port's shard, or a
// barrier).
func (p *Port) QueueLen() int32 {
	p.Settle()
	return p.qPkts
}

// QueueBytes reports true occupancy in bytes after settling the port.
func (p *Port) QueueBytes() int64 {
	p.Settle()
	return p.qBytes
}

// TxBytes reports the bytes that finished serializing on the port, lost
// ones included, after settling the port.
func (p *Port) TxBytes() int64 {
	p.Settle()
	return p.txBytes
}

// VisibleBytes reports the occupancy in bytes as a forwarding engine sees
// it — the load signal DRILL compares — after settling the port.
//
//drill:hotpath
func (p *Port) VisibleBytes() int64 {
	p.Settle()
	return p.VisBytes
}

// departKey is the in-service packet's departure key.
//
//drill:hotpath
func (p *Port) departKey() uint64 { return sim.DepartKey(uint64(p.Index), p.wireSeq) }

// Settle applies every departure and visibility update the port's
// scheduler has passed: the per-port form of Network.Settle, for a reader
// that keeps state of its own about the port's transmissions (CONGA's
// DREs). The two commute: departures take waiting packets from the
// queue's head, updates credit them in the same FIFO order, and the skip
// counter absorbs an update whose packet already left, so the visible
// counters end the same whichever comes first. Nothing reads them in
// between.
//
//drill:hotpath
func (p *Port) Settle() {
	for !p.queue.empty() && p.dom.sim.Reached(p.depAt, p.departKey()) {
		p.dom.net.depart(p)
	}
	p.settleVisibility()
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
	if p.VisPkts > 0 {
		p.VisPkts--
		p.VisBytes -= int64(size)
		return
	}
	p.visSkip++
}

// inFlight counts the packets on the port's wire ring, lost ones' empty
// entries left out.
func (p *Port) inFlight() int64 {
	var n int64
	for i := 0; i < p.wireRing.len(); i++ {
		if p.wireRing.at(i).pkt != nil {
			n++
		}
	}
	return n
}
