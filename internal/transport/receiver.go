package transport

import (
	"drill/internal/fabric"
	"drill/internal/gro"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// simClock adapts a host agent's shard scheduler to gro.Clock, so shim
// hold timers fire inside the host's shard.
type simClock struct{ a *Agent }

func (c simClock) Now() units.Time               { return c.a.sim.Now() }
func (c simClock) After(d units.Time, fn func()) { c.a.sim.After(d, fn) }

// Receiver is the TCP receive side of one flow: cumulative ACK generation
// with immediate duplicate ACKs on out-of-order arrival (RFC 2581), plus
// the optional reordering shim and the GRO batching model in front of it.
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

	dupAcks  int // duplicate ACKs this receiver generated
	reported bool

	// Wire-reorder accounting: a packet whose emission counter is below
	// the maximum seen arrived out of emission order (retransmissions get
	// fresh counters, so they only count if they genuinely overtake).
	txMax      int32
	inversions int

	// lastDataTS echoes the send-timestamp of the packet that triggered the
	// current ACK (per-packet echo → valid sender RTT samples, even for
	// retransmitted or shim-delayed copies).
	lastDataTS units.Time
	// lastECN echoes the latest data packet's ECN CE mark back to the
	// sender (DCTCP's per-packet accurate echo, simplified past the
	// delayed-ACK state machine since this receiver ACKs every packet).
	lastECN bool

	shim    shimLayer    // nil when the shim is disabled
	batcher *gro.Batcher // nil unless Cfg.TrackGRO
}

// shimLayer abstracts the fixed and adaptive reordering shims.
type shimLayer interface {
	Push(gro.Segment)
}

type span struct{ lo, hi int64 }

func newReceiver(a *Agent, first *fabric.Packet) *Receiver {
	r := &Receiver{
		agent: a, id: first.FlowID, hash: first.Hash,
		peer: first.Src, size: first.AckNo,
	}
	cfg := a.reg.Cfg
	if cfg.ShimTimeout > 0 {
		if cfg.AdaptiveShim {
			r.shim = gro.NewAdaptiveReorderer(simClock{a},
				cfg.ShimTimeout/4, cfg.ShimTimeout/10, cfg.ShimTimeout, r.tcpRx)
		} else {
			r.shim = gro.NewReorderer(simClock{a}, cfg.ShimTimeout, r.tcpRx)
		}
	}
	if cfg.TrackGRO {
		r.batcher = gro.NewBatcher()
	}
	return r
}

// onData accepts one data packet off the wire.
//
//drill:hotpath
func (r *Receiver) onData(pkt *fabric.Packet) {
	r.lastECN = pkt.ECNCE
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
	ack.ECNCE = r.lastECN
	r.agent.host.Send(ack)
}

func (r *Receiver) close() {
	if r.reported {
		return
	}
	r.reported = true
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
	delete(r.agent.receivers, r.id)
}
