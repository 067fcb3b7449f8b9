package transport

import (
	"drill/internal/fabric"
	"drill/internal/gro"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// simClock adapts a shard domain's scheduler to gro.Clock, so shim hold
// timers fire inside the receiver host's shard.
type simClock struct{ s *sim.Sim }

func (c simClock) NewTimer(fn func()) gro.Timer { return c.s.NewTimer(fn) }

// Receiver is the TCP receive side of one flow: cumulative ACK generation
// with immediate duplicate ACKs on out-of-order arrival (RFC 2581), plus
// the optional reordering shim and the GRO batching model in front of it.
//
// A closed receiver goes back to its shard domain's flowPool with its
// shim, hold timer, batcher, SACK-list capacity and callbacks, and the
// next flow that shard opens reuses it. It goes back only once the data
// packet's delivery that closed it has returned (Agent.HandlePacket),
// since close runs inside tcpRx, which the shim's drain loop may still be
// iterating. A hold's flush never closes a receiver: every segment the
// shim holds starts beyond a gap TCP has not received, so a flush leaves
// rcvNxt where it was.
type Receiver struct {
	agent *Agent
	id    uint64
	hash  uint32
	peer  topo.NodeID // the sender host
	size  int64

	rcvNxt    int64
	sacked    []span // received-but-not-contiguous byte ranges, sorted
	lastAck   int64
	ackedOnce bool

	dupAcks int  // duplicate ACKs this receiver generated
	closed  bool // every byte arrived and the flow's stats are reported

	// Wire-reorder accounting: a packet whose emission counter is below
	// the maximum seen arrived out of emission order (retransmissions get
	// fresh counters, so they only count if they genuinely overtake).
	txMax      int32
	inversions int

	// lastDataTS echoes the send-timestamp of the packet that triggered the
	// current ACK (per-packet echo → valid sender RTT samples, even for
	// retransmitted or shim-delayed copies).
	lastDataTS units.Time

	shim    *gro.Reorderer // nil when the shim is disabled
	batcher *gro.Batcher   // nil unless Cfg.TrackGRO
}

type span struct{ lo, hi int64 }

// newReceiver builds a receiver for a's shard domain, with its registry's
// shim and batcher settings, to be opened on a flow.
func newReceiver(a *Agent) *Receiver {
	r := &Receiver{}
	cfg := a.reg.Cfg
	if cfg.ShimTimeout > 0 {
		r.shim = gro.NewReorderer(simClock{a.sim}, cfg.ShimTimeout, r.tcpRx)
	}
	if cfg.TrackGRO {
		r.batcher = gro.NewBatcher()
	}
	return r
}

// open starts a new or reset receiver on the flow of its first packet.
func (r *Receiver) open(a *Agent, first *fabric.Packet) {
	r.agent, r.id, r.hash, r.peer, r.size = a, first.FlowID, first.Hash, first.Src, first.AckNo
}

// reset returns a closed receiver to a new one's state, keeping its shim
// (hold timer and callbacks included), batcher and SACK-list capacity for
// the next flow. Its shim must be idle: resetting one that holds segments
// or has a hold armed panics.
func (r *Receiver) reset() {
	if r.shim != nil {
		r.shim.Reset()
	}
	if r.batcher != nil {
		*r.batcher = gro.Batcher{}
	}
	*r = Receiver{shim: r.shim, batcher: r.batcher, sacked: r.sacked[:0]}
}

// onData accepts one data packet off the wire.
//
//drill:hotpath
func (r *Receiver) onData(pkt *fabric.Packet) {
	if pkt.TxSeq < r.txMax {
		r.inversions++
		r.agent.stats.OutOfOrder++
		if tr := r.agent.reg.tracer; tr != nil {
			tr.Flow(trace.OutOfOrder, r.agent.sim.Now(), pkt.FlowID, pkt.Seq, float64(r.txMax-pkt.TxSeq))
		}
		if m := r.agent.reg.met; m != nil {
			m.oooDepth.Observe(float64(len(r.sacked)))
		}
	} else {
		r.txMax = pkt.TxSeq
	}
	seg := gro.Segment{Seq: pkt.Seq, Len: pkt.Len, Payload: pkt.EchoTS}
	if r.shim != nil {
		r.shim.Push(seg)
		return
	}
	r.tcpRx(seg)
}

// tcpRx is the TCP receive path proper (below it sits the shim, if any).
func (r *Receiver) tcpRx(s gro.Segment) {
	r.lastDataTS = s.Payload
	if r.batcher != nil {
		r.batcher.Push(s.Seq, s.Len)
	}
	end := s.Seq + int64(s.Len)
	switch {
	case end <= r.rcvNxt:
		// Old duplicate; re-ACK.
	case s.Seq <= r.rcvNxt:
		r.rcvNxt = end
		r.mergeSacked()
	default:
		r.addSacked(span{s.Seq, end})
	}
	r.sendAck()
	if r.size >= 0 && r.rcvNxt >= r.size {
		r.close()
	}
}

func (r *Receiver) addSacked(sp span) {
	// Insert keeping order; coalesce overlaps.
	out := r.sacked[:0]
	inserted := false
	for _, e := range r.sacked {
		switch {
		case e.hi < sp.lo:
			out = append(out, e)
		case sp.hi < e.lo:
			if !inserted {
				out = append(out, sp)
				inserted = true
			}
			out = append(out, e)
		default: // overlap: grow sp
			if e.lo < sp.lo {
				sp.lo = e.lo
			}
			if e.hi > sp.hi {
				sp.hi = e.hi
			}
		}
	}
	if !inserted {
		out = append(out, sp)
	}
	r.sacked = out
}

func (r *Receiver) mergeSacked() {
	i := 0
	for i < len(r.sacked) && r.sacked[i].lo <= r.rcvNxt {
		if r.sacked[i].hi > r.rcvNxt {
			r.rcvNxt = r.sacked[i].hi
		}
		i++
	}
	r.sacked = append(r.sacked[:0], r.sacked[i:]...)
}

// sendAck emits a cumulative ACK; a non-advancing ACK while data is
// outstanding is a duplicate ACK (the reordering signal of §3.3).
func (r *Receiver) sendAck() {
	if r.ackedOnce && r.rcvNxt == r.lastAck {
		r.dupAcks++
	}
	r.lastAck = r.rcvNxt
	r.ackedOnce = true
	ack := r.agent.host.AllocPacket()
	ack.FlowID = r.id
	ack.Hash = r.hash
	ack.Kind = fabric.Ack
	ack.Dst = r.peer
	ack.Size = fabric.AckBytes
	ack.AckNo = r.rcvNxt
	ack.EchoTS = r.lastDataTS
	r.agent.host.Send(ack)
}

func (r *Receiver) close() {
	if r.closed {
		return
	}
	r.closed = true
	stats := r.agent.stats
	if r.agent.sim.Now() >= r.agent.reg.MeasureFrom {
		stats.DupAcks.Add(r.dupAcks)
		stats.WireReorders.Add(r.inversions)
		if r.batcher != nil {
			r.batcher.Close()
			stats.GROBatches += r.batcher.Batches
			stats.GROSegments += r.batcher.Segments
		}
	}
	r.agent.reg.receivers[r.id] = nil
}
