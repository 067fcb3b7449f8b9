package transport

import (
	"fmt"
	"reflect"
	"testing"

	"drill/internal/fabric"
	"drill/internal/lb"
	"drill/internal/sim"
	"drill/internal/units"
)

// A reuse script is one flow's data segments as its receiver sees them,
// each op three bytes:
//
//	b0: bits 0-2 the kind (0-5 deliver, 6 wait, 7 complete), bits 3-4 the
//	    gap before it (reuseGaps; a wait's gap is a hold timeout and more)
//	b1: bits 0-3 the first unit of the segment (mod the flow's units),
//	    bits 4-5 its length in units less one (capped at the flow's end)
//	b2: the segment's emission counter (TxSeq)
//
// complete delivers every unit in order, one every reuseStep, until the
// flow's receiver closes. A delivery after the close is a late segment.
const (
	reuseUnit  = 500 // bytes per unit
	reuseStep  = 50 * units.Nanosecond
	reuseStart = 10 * units.Millisecond // the compared script's start
	reuseOps   = 64                     // ops per script, at most

	opWait     = 6
	opComplete = 7

	// Config byte bits.
	reuseShim     = 1
	reuseGRO      = 2
	reuseLongHold = 4
)

var reuseGaps = [4]units.Time{0, 100 * units.Nanosecond, 1 * units.Microsecond, 3 * units.Microsecond}

type reuseOp struct {
	kind          byte
	gap           units.Time
	start, length int // bytes
	txSeq         int32
}

type reuseScript struct {
	units int // the flow's size in units
	ops   []reuseOp
}

// decodeReuse splits a fuzz input into a config byte, the earlier script
// (played to completion on one host) and the compared one.
func decodeReuse(data []byte) (cfg Config, earlier, compared reuseScript) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	c := at(0)
	hold := 2 * units.Microsecond
	if c&reuseLongHold != 0 {
		hold = 5 * units.Microsecond
	}
	if c&reuseShim != 0 {
		cfg.ShimTimeout = hold
	}
	cfg.TrackGRO = c&reuseGRO != 0
	earlier.units, compared.units = 1+int(at(1))%12, 1+int(at(2))%12
	n1 := int(at(3)) % 16
	body := data[min(4, len(data)):]
	ops := func(sc *reuseScript, b []byte) {
		for i := 0; i+3 <= len(b) && len(sc.ops) < reuseOps; i += 3 {
			op := reuseOp{kind: b[i] & 7, gap: reuseGaps[b[i]>>3&3], txSeq: int32(b[i+2])}
			if op.kind == opWait {
				op.gap = hold + reuseGaps[b[i]>>3&3]
			}
			first := int(b[i+1]&15) % sc.units
			n := min(1+int(b[i+1]>>4&3), sc.units-first)
			op.start, op.length = first*reuseUnit, n*reuseUnit
			sc.ops = append(sc.ops, op)
		}
	}
	ops(&earlier, body[:min(3*n1, len(body))])
	ops(&compared, body[min(3*n1, len(body)):])
	// The earlier receiver must close, so that it is pooled when the
	// compared flow opens.
	earlier.ops = append(earlier.ops, reuseOp{kind: opComplete})
	return cfg, earlier, compared
}

// reuseInput encodes a fuzz input; each op is {b0, b1, b2} as above.
func reuseInput(cfg, units1, units2 byte, earlier, compared [][3]byte) []byte {
	b := []byte{cfg, units1 - 1, units2 - 1, byte(len(earlier))}
	for _, op := range append(earlier, compared...) {
		b = append(b, op[0], op[1], op[2])
	}
	return b
}

// seg encodes a delivery of units [first, first+n) after gap index g.
func seg(g, first, n, tx byte) [3]byte { return [3]byte{g << 3, first | (n-1)<<4, tx} }

// ackRec is one ACK as the flow's sender host receives it.
type ackRec struct {
	at   units.Time
	flow uint64
	ack  int64
	echo units.Time
	hash uint32
	src  int
}

type ackLog struct {
	s    *sim.Sim
	acks []ackRec
}

func (l *ackLog) HandlePacket(_ *fabric.Host, p *fabric.Packet) {
	l.acks = append(l.acks, ackRec{l.s.Now(), p.FlowID, p.AckNo, p.EchoTS, p.Hash, int(p.Src)})
}

// reuseRun is what one run of the compared script shows.
type reuseRun struct {
	acks     []ackRec
	stats    string
	receiver string // the compared flow's receiver at the end, if open
	reused   bool   // the compared flow's first receiver came from the pool
}

// playReuse plays the compared script into flow 2 at host 4 from host 0,
// starting at reuseStart. With warm set, flow 1 first plays the earlier
// script at host 5 from host 1, closes and leaves its receiver in the
// pool. It also fails t if a receiver that closed did not go back to the
// pool.
func playReuse(t *testing.T, cfg Config, earlier, compared reuseScript, warm bool) reuseRun {
	t.Helper()
	s, n, r, tp := testbed(t, lb.ECMP{}, cfg)
	for i := 0; i < 2; i++ { // flow IDs 1 and 2, with no senders
		r.senders = append(r.senders, nil)
		r.receivers = append(r.receivers, nil)
	}
	log := &ackLog{s: s}
	n.Host(tp.Hosts[0]).Handler = log
	pool := r.agents[tp.Hosts[4]].pool
	if r.agents[tp.Hosts[5]].pool != pool {
		t.Fatal("hosts 4 and 5 draw from different pools")
	}

	var run reuseRun
	seen := map[*Receiver]bool{}
	deliver := func(id uint64, dst, src int, size, start, length int, tx int32) {
		pkt := &fabric.Packet{FlowID: id, Hash: 7 * uint32(id), Kind: fabric.Data,
			Src: tp.Hosts[src], Dst: tp.Hosts[dst], Seq: int64(start), Len: int32(length),
			AckNo: int64(size), EchoTS: s.Now(), TxSeq: tx}
		r.agents[tp.Hosts[dst]].HandlePacket(n.Host(tp.Hosts[dst]), pkt)
		if rcv := r.receivers[id]; rcv != nil {
			seen[rcv] = true
		}
	}
	schedule := func(at units.Time, id uint64, dst, src int, sc reuseScript) units.Time {
		size := sc.units * reuseUnit
		for _, op := range sc.ops {
			at += op.gap
			switch op.kind {
			case opWait:
			case opComplete:
				done := false
				for u := 0; u < sc.units; u++ {
					at += reuseStep
					s.At(at, func() {
						if done {
							return
						}
						deliver(id, dst, src, size, u*reuseUnit, reuseUnit, int32(u))
						done = r.receivers[id] == nil
					})
				}
			default:
				s.At(at, func() { deliver(id, dst, src, size, op.start, op.length, op.txSeq) })
			}
		}
		return at
	}
	if warm {
		if end := schedule(0, 1, 5, 1, earlier); end >= reuseStart {
			t.Fatalf("the earlier script ends at %v, after the compared one starts", end)
		}
	}
	s.At(reuseStart, func() {
		if warm && len(pool.receivers) == 0 {
			t.Fatal("the earlier flow left no receiver in the pool")
		}
		r.Stats = Stats{} // the earlier flow's
		run.reused = len(pool.receivers) > 0
	})
	schedule(reuseStart, 2, 4, 0, compared)
	s.Run()

	pooled := map[*Receiver]bool{}
	for _, rcv := range pool.receivers {
		pooled[rcv] = true
	}
	for rcv := range seen {
		if !pooled[rcv] && r.receivers[1] != rcv && r.receivers[2] != rcv {
			t.Fatalf("a receiver left its slot without going back to the pool: %s", receiverState(rcv))
		}
	}
	st := &r.Stats
	run.acks = log.acks
	run.stats = fmt.Sprintf("dupacks=%v reorders=%v gro=%d/%d ooo=%d", st.DupAcks, st.WireReorders,
		st.GROBatches, st.GROSegments, st.OutOfOrder)
	run.receiver = receiverState(r.receivers[2])
	return run
}

// receiverState prints everything a receiver carries from one delivery to
// the next.
func receiverState(r *Receiver) string {
	if r == nil {
		return "none"
	}
	s := fmt.Sprintf("id=%d hash=%d peer=%d size=%d rcvNxt=%d sacked=%v lastAck=%d ackedOnce=%v dupAcks=%d closed=%v txMax=%d inversions=%d lastDataTS=%d",
		r.id, r.hash, r.peer, r.size, r.rcvNxt, r.sacked, r.lastAck, r.ackedOnce, r.dupAcks, r.closed,
		r.txMax, r.inversions, r.lastDataTS)
	if r.shim != nil {
		s += fmt.Sprintf(" shim=%d/%d/%d/%v", r.shim.Expected(), r.shim.Held(), r.shim.Flushes, r.shim.Idle())
	}
	if r.batcher != nil {
		s += fmt.Sprintf(" gro=%+v", *r.batcher)
	}
	return s
}

// FuzzReceiverReuse plays a segment script into a new receiver and into
// one that served an earlier script for another host of the same shard
// and went back to the pool. Both must send the same ACKs at the same
// times, report the same stats and end in the same state. The scripts mix
// loss, reordering, duplicates, late segments after the close (which open
// a receiver at rcvNxt 0, from the pool), shim holds and flushes, and run
// with the shim and GRO on and off.
func FuzzReceiverReuse(f *testing.F) {
	// Close inside the shim's drain loop: units 3, [1,4) and 2 are held;
	// unit 0 drains them, [1,4) closes the flow, and the drain goes on to
	// deliver 2 and 3 after the close. A late unit 2 follows.
	f.Add(reuseInput(reuseShim, 4, 4,
		[][3]byte{seg(1, 1, 1, 1), seg(1, 0, 1, 0)},
		[][3]byte{seg(1, 3, 1, 3), seg(1, 1, 3, 4), seg(1, 2, 1, 2), seg(1, 0, 1, 0), seg(2, 2, 1, 9)}))
	// A close reached through a hold flush. A flush cannot close a flow
	// itself (everything held lies beyond a gap TCP lacks), so the close
	// comes with the first delivery after it: unit 2 is held and flushed,
	// and unit 1, below the shim's expected sequence, fills TCP's gap.
	f.Add(reuseInput(reuseShim|reuseGRO, 3, 3,
		[][3]byte{seg(1, 2, 1, 2), {opWait, 0, 0}, seg(1, 0, 1, 0)},
		[][3]byte{seg(1, 0, 1, 0), seg(1, 2, 1, 2), {opWait, 0, 0}, seg(1, 1, 1, 1), seg(3, 1, 1, 5)}))
	// Loss, duplicates and a late segment without the shim, GRO on.
	f.Add(reuseInput(reuseGRO, 6, 5,
		[][3]byte{seg(1, 0, 2, 0), seg(1, 4, 2, 3), seg(0, 4, 2, 3)},
		[][3]byte{seg(1, 0, 1, 0), seg(1, 2, 1, 2), seg(0, 2, 1, 2), seg(1, 1, 1, 1), {opComplete, 0, 0}, seg(1, 3, 1, 9)}))
	// Holds that the gap fills, then a timeout flush, with the long hold.
	f.Add(reuseInput(reuseShim|reuseLongHold, 8, 6,
		[][3]byte{seg(1, 1, 1, 1), seg(2, 0, 1, 0), seg(1, 3, 2, 3), {opWait, 0, 0}},
		[][3]byte{seg(1, 1, 1, 1), seg(1, 0, 1, 0), seg(1, 3, 1, 3), {opWait, 0, 0}, seg(1, 2, 1, 2), seg(1, 5, 1, 5), {opComplete, 0, 0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, earlier, compared := decodeReuse(data)
		fresh := playReuse(t, cfg, earlier, compared, false)
		reused := playReuse(t, cfg, earlier, compared, true)
		if !reused.reused {
			t.Fatal("the compared flow did not reuse a pooled receiver")
		}
		if !reflect.DeepEqual(fresh.acks, reused.acks) {
			t.Fatalf("ACKs differ:\nfresh  %v\nreused %v", fresh.acks, reused.acks)
		}
		if fresh.stats != reused.stats {
			t.Fatalf("stats differ:\nfresh  %s\nreused %s", fresh.stats, reused.stats)
		}
		if fresh.receiver != reused.receiver {
			t.Fatalf("final receivers differ:\nfresh  %s\nreused %s", fresh.receiver, reused.receiver)
		}
	})
}
