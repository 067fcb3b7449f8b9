package transport

import (
	"drill/internal/fabric"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// Sender is one TCP NewReno sender. All state is driven by the simulator's
// single thread; no locking.
type Sender struct {
	reg   *Registry
	agent *Agent
	id    uint64
	hash  uint32
	dst   topo.NodeID
	size  int64 // bytes to transfer; < 0 = unbounded (elephant throughput)
	class string

	sndUna, sndNxt int64
	cwnd           float64 // in segments
	ssthresh       float64
	dupacks        int
	inRecovery     bool
	recover        int64

	srtt, rttvar units.Time
	hasRTT       bool
	rto          units.Time
	backoff      int

	// rtoTimer is the flow's one retransmission timer. Every re-arm Resets
	// this handle in place — one live heap entry per flow, ever — where the
	// pre-cancellation design pushed a fresh generation-checked closure
	// into the sim heap on every ACK and let the stale one rot until its
	// deadline. It goes back to the shard's pool when the flow finishes,
	// and is nil from then on.
	rtoTimer *flowTimer

	start    units.Time
	fct      units.Time
	done     bool
	measured bool
	txSeq    int32 // emission counter for wire-reorder accounting
}

// ID returns the flow identifier.
func (s *Sender) ID() uint64 { return s.id }

// Class returns the flow's class tag.
func (s *Sender) Class() string { return s.class }

// Done reports whether the whole transfer has been acknowledged.
func (s *Sender) Done() bool { return s.done }

// AckedBytes reports cumulatively acknowledged payload bytes.
func (s *Sender) AckedBytes() int64 { return s.sndUna }

// Start returns when the flow started.
func (s *Sender) Start() units.Time { return s.start }

// FCT returns the completion time (valid once Done).
func (s *Sender) FCT() units.Time { return s.fct }

// Segment, window and timer constants of every sender.
const (
	mss      int32   = 1460 // payload bytes per segment
	initCwnd float64 = 10   // initial window in segments
	// maxCwnd caps the window in segments, modelling the socket buffer /
	// receive window (128 ≈ 190KB).
	maxCwnd float64 = 128
	maxRTO          = 20 * units.Millisecond // RTO backoff cap
	initRTO         = 1 * units.Millisecond  // RTO before the first RTT sample
	// minRTO is the retransmission-timer floor. The paper's NSC Linux 2.6
	// stack used the stock 200ms floor, which is why its tail-FCT axes
	// reach hundreds of ms on every loss; 1ms preserves the
	// drop→timeout→tail amplification at simulation horizons a single
	// machine can run.
	minRTO = 1 * units.Millisecond
)

func (s *Sender) segLen(seq int64) int32 {
	if s.size < 0 {
		return mss
	}
	rem := s.size - seq
	if rem >= int64(mss) {
		return mss
	}
	return int32(rem)
}

func (s *Sender) inflightSegs() int {
	return int((s.sndNxt - s.sndUna + int64(mss) - 1) / int64(mss))
}

// trySend transmits new segments while the window allows.
//
//drill:hotpath
func (s *Sender) trySend() {
	if s.done {
		return
	}
	for (s.size < 0 || s.sndNxt < s.size) && s.inflightSegs() < int(s.cwnd) {
		l := s.segLen(s.sndNxt)
		if l <= 0 {
			break
		}
		s.emit(s.sndNxt, l)
		s.sndNxt += int64(l)
	}
	if !s.rtoTimer.Armed() && s.sndNxt > s.sndUna {
		s.armTimer()
	}
}

// emit sends one segment covering [seq, seq+l).
//
//drill:hotpath
func (s *Sender) emit(seq int64, l int32) {
	s.txSeq++
	pkt := s.agent.host.AllocPacket()
	pkt.FlowID = s.id
	pkt.Hash = s.hash
	pkt.Kind = fabric.Data
	pkt.Dst = s.dst
	pkt.Size = units.ByteSize(l) + fabric.HeaderBytes
	pkt.Seq = seq
	pkt.Len = l
	pkt.AckNo = s.size // data packets carry the flow size for the receiver
	pkt.EchoTS = s.agent.sim.Now()
	pkt.TxSeq = s.txSeq
	s.agent.host.Send(pkt)
}

// onAck processes a cumulative acknowledgment.
//
//drill:hotpath
func (s *Sender) onAck(pkt *fabric.Packet) {
	if s.done {
		return
	}
	now := s.agent.sim.Now()
	// RTT sample from the echoed per-packet timestamp: valid even for
	// retransmissions, since the echo identifies the copy that arrived.
	s.sampleRTT(now - pkt.EchoTS)

	ack := pkt.AckNo
	switch {
	case ack > s.sndUna:
		s.newAck(ack)
	case ack == s.sndUna && s.sndNxt > s.sndUna:
		s.dupAck()
	}
	if m := s.reg.met; m != nil {
		m.cwnd.Observe(s.cwnd)
	}
	s.trySend()
	if s.size >= 0 && s.sndUna >= s.size {
		s.finish(now)
	}
}

func (s *Sender) newAck(ack int64) {
	ackedSegs := float64(ack-s.sndUna) / float64(mss)
	s.sndUna = ack
	s.backoff = 0
	if s.inRecovery {
		if ack >= s.recover {
			// Full acknowledgment: leave recovery, deflate.
			s.inRecovery = false
			s.cwnd = s.ssthresh
			s.dupacks = 0
		} else {
			// Partial ack (NewReno): retransmit the next hole, deflate by
			// the amount acked, inflate by one for the retransmission.
			s.retransmit()
			s.cwnd -= ackedSegs
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.cwnd++
		}
	} else {
		s.dupacks = 0
		if s.cwnd < s.ssthresh {
			s.cwnd += ackedSegs // slow start
		} else {
			s.cwnd += ackedSegs / s.cwnd // congestion avoidance
		}
		if s.cwnd > maxCwnd {
			s.cwnd = maxCwnd
		}
	}
	if s.sndNxt > s.sndUna {
		s.armTimer()
	} else {
		s.rtoTimer.Stop() // nothing outstanding: disarm
	}
}

func (s *Sender) dupAck() {
	s.dupacks++
	if s.inRecovery {
		s.cwnd++ // window inflation per extra dup
		return
	}
	if s.dupacks == 3 {
		// Fast retransmit + fast recovery.
		s.ssthresh = max(float64(s.inflightSegs())/2, 2)
		s.cwnd = s.ssthresh + 3
		s.recover = s.sndNxt
		s.inRecovery = true
		s.retransmit()
	}
}

// retransmit resends the first unacknowledged segment.
func (s *Sender) retransmit() {
	l := s.segLen(s.sndUna)
	if l <= 0 {
		return
	}
	s.agent.stats.Retransmits++
	if tr := s.reg.tracer; tr != nil {
		tr.Flow(trace.Retransmit, s.agent.sim.Now(), s.id, s.sndUna, float64(l))
	}
	s.emit(s.sndUna, l)
	s.armTimer()
}

func (s *Sender) sampleRTT(rtt units.Time) {
	if rtt <= 0 {
		return
	}
	if !s.hasRTT {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.hasRTT = true
	} else {
		// RFC 6298 with α=1/8, β=1/4 in integer arithmetic.
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar += (diff - s.rttvar) / 4
		s.srtt += (rtt - s.srtt) / 8
	}
	rto := s.srtt + 4*s.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	s.rto = rto
}

// armTimer (re)schedules the flow's RTO: a Reset of the one live timer, so
// re-arms move the existing heap entry instead of abandoning it.
//
//drill:hotpath
func (s *Sender) armTimer() {
	d := s.rto << uint(s.backoff)
	if d > maxRTO {
		d = maxRTO
	}
	s.rtoTimer.Reset(d)
}

func (s *Sender) onTimeout() {
	if s.done {
		return // defensive: finish() stops the timer, so this cannot fire
	}
	s.agent.stats.Timeouts++
	if tr := s.reg.tracer; tr != nil {
		tr.Flow(trace.Timeout, s.agent.sim.Now(), s.id, s.sndUna, float64(s.backoff))
	}
	s.ssthresh = max(float64(s.inflightSegs())/2, 2)
	s.cwnd = 1
	s.dupacks = 0
	s.inRecovery = false
	if s.backoff < 6 {
		s.backoff++
	}
	// Retransmit only the first unacknowledged segment (RFC 6298); the
	// receiver's cumulative ACK over its buffered out-of-order data then
	// advances the window past everything that actually arrived.
	s.retransmit()
}

func (s *Sender) finish(now units.Time) {
	s.done = true
	s.rtoTimer.Stop() // remove the pending RTO from the sim heap eagerly
	s.fct = now - s.start
	s.agent.stats.FlowsFinished++
	if s.measured {
		ms := s.fct.Millis()
		s.agent.stats.FCT.Add(ms)
		if s.class != "" {
			s.agent.stats.ClassDist(s.class).Add(ms)
		}
		if m := s.reg.met; m != nil {
			m.fct.Observe(s.fct.Micros())
		}
	}
	s.reg.senders[s.id] = nil
	if s.reg.OnComplete != nil {
		s.reg.OnComplete(s)
	}
	s.agent.pool.putTimer(s.rtoTimer)
	s.rtoTimer = nil
}
