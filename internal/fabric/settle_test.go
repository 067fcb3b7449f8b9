package fabric

import (
	"fmt"
	"testing"

	"drill/internal/metrics"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// The settled port against the two-event model. FuzzPortVsTwoEvent drives
// a two-host fabric — host 0's NIC into the leaf, the leaf's port to host
// 1 — through scripts of sends, reads, and link failures and restores, and
// runs the same script through twoEvent, a reference kept here that
// dispatches one txDone event per departure, one event per visibility
// update and one per arrival, as the data plane did before departures
// settled when read. The two run on separate schedulers that draw the same
// sequence numbers when they agree, so every read — visible and true
// occupancy, bytes sent, drops, queueing totals, the conservation terms —
// and every arrival's (time, key, packet) must match.

// Port indexes of the reference's events on its own scheduler.
const (
	refNIC  = 0   // host 0 → leaf
	refDown = 1   // leaf → host 1
	refVis  = 100 // + port: visibility updates
)

// refPort is one port of the two-event reference.
type refPort struct {
	s                  *sim.Sim
	idx                int32 // the real port's index: keys are built from it
	rate               units.Rate
	prop, visDelay     units.Time
	cap                int
	hop                metrics.HopClass
	up, busy           bool
	queue              []refPkt
	qPkts              int32
	qBytes, txBytes    int64
	drops              int64
	waitNs, started    int64 // queueing totals, as HopStats records them
	vis                []visEntry
	visPkts            int32
	visBytes           int64
	visSkip            int32
	wireSeq            uint64
	wire               []wireEntry // pkt carries the packet's Seq in its Seq field
	slot               int32       // this port's index among the reference's ports
	arrivals           *[]arrival  // where arrivals at the far end are recorded
	deliver            func(refPkt)
	enqAt              []units.Time
	dropped, delivered *int64
}

type refPkt struct {
	seq  int64
	size units.ByteSize
}

// arrival is one packet landing at the far end of a port.
type arrival struct {
	port int32
	at   units.Time
	key  uint64
	seq  int64
}

// twoEvent is the reference fabric: the NIC and the leaf's port to host 1.
type twoEvent struct {
	s                      *sim.Sim
	ports                  [2]*refPort
	arrivals               []arrival
	sent, delivered, drops int64
}

func newTwoEvent(s *sim.Sim, nic, down *Port) *twoEvent {
	m := &twoEvent{s: s}
	for i, p := range []*Port{nic, down} {
		m.ports[i] = &refPort{s: s, idx: p.Index, rate: p.Rate, prop: p.Prop, visDelay: p.visDelay,
			cap: p.Cap, hop: p.Hop, up: p.up, slot: int32(i), arrivals: &m.arrivals,
			dropped: &m.drops, delivered: &m.delivered}
	}
	m.ports[refNIC].deliver = func(pkt refPkt) { m.ports[refDown].enqueue(pkt) }
	m.ports[refDown].deliver = func(refPkt) { m.delivered++ }
	s.OnPort(func(port int32, arrival bool) {
		switch {
		case port >= refVis:
			m.ports[port-refVis].fireVis()
		case arrival:
			m.ports[port].arrive()
		default:
			m.ports[port].txDone()
		}
	})
	return m
}

func (p *refPort) enqueue(pkt refPkt) {
	if !p.up || int(p.qPkts) >= p.cap {
		p.drops++
		*p.dropped++
		return
	}
	now := p.s.Now()
	p.queue = append(p.queue, pkt)
	p.enqAt = append(p.enqAt, now)
	p.qPkts++
	p.qBytes += int64(pkt.size)
	if p.visDelay <= 0 {
		p.applyVis(pkt.size)
	} else {
		at := now + p.visDelay
		p.vis = append(p.vis, visEntry{at: at, key: p.s.ReserveKey(at), size: pkt.size})
		if len(p.vis) == 1 {
			p.s.AtPort(at, p.vis[0].key, refVis+p.slot)
		}
	}
	if !p.busy {
		p.transmit()
	}
}

func (p *refPort) fireVis() {
	e := p.vis[0]
	p.vis = p.vis[1:]
	if len(p.vis) > 0 {
		p.s.AtPort(p.vis[0].at, p.vis[0].key, refVis+p.slot)
	}
	p.applyVis(e.size)
}

func (p *refPort) applyVis(size units.ByteSize) {
	if p.visSkip > 0 {
		p.visSkip--
		return
	}
	p.visPkts++
	p.visBytes += int64(size)
}

func (p *refPort) departVis(size units.ByteSize) {
	if p.visPkts > 0 {
		p.visPkts--
		p.visBytes -= int64(size)
		return
	}
	p.visSkip++
}

func (p *refPort) transmit() {
	pkt := p.queue[0]
	p.busy = true
	p.waitNs += int64(p.s.Now() - p.enqAt[0])
	p.started++
	p.departVis(pkt.size)
	p.s.AtPort(p.s.Now()+units.TxTime(pkt.size, p.rate), sim.DepartKey(uint64(p.idx), p.wireSeq), p.slot)
}

func (p *refPort) pop() refPkt {
	pkt := p.queue[0]
	p.queue, p.enqAt = p.queue[1:], p.enqAt[1:]
	p.qPkts--
	p.qBytes -= int64(pkt.size)
	return pkt
}

func (p *refPort) txDone() {
	pkt := p.pop()
	p.txBytes += int64(pkt.size)
	p.busy = false
	if !p.up {
		p.drops++
		*p.dropped++
		for len(p.queue) > 0 {
			q := p.pop()
			p.departVis(q.size)
			p.drops++
			*p.dropped++
		}
		return
	}
	at, key := p.s.Now()+p.prop, sim.ArrivalKey(uint64(p.idx), p.wireSeq)
	p.wireSeq++
	p.wire = append(p.wire, wireEntry{at: at, key: key, pkt: &Packet{Seq: pkt.seq, Size: pkt.size}})
	p.s.AtPort(at, key, p.slot)
	if len(p.queue) > 0 {
		p.transmit()
	}
}

func (p *refPort) arrive() {
	e := p.wire[0]
	p.wire = p.wire[1:]
	*p.arrivals = append(*p.arrivals, arrival{port: p.idx, at: e.at, key: e.key, seq: e.pkt.Seq})
	p.deliver(refPkt{seq: e.pkt.Seq, size: e.pkt.Size})
}

func (p *refPort) setLink(up bool) {
	if p.up == up {
		return
	}
	p.up = up
	if p.busy {
		return
	}
	if !up {
		for len(p.queue) > 0 {
			q := p.pop()
			p.departVis(q.size)
			p.drops++
			*p.dropped++
		}
	} else if len(p.queue) > 0 {
		p.transmit()
	}
}

// portRead is what a script read observes of one port.
type portRead struct {
	vis, qBytes, tx, drops, waitNs, started int64
	visPkts, qPkts                          int32
}

// Script operations.
const (
	opSend     = iota // host 0 sends a packet
	opReadNIC         // read the NIC
	opReadDown        // read the leaf's port to host 1
	opFail            // fail a link (global event)
	opRestore         // restore it
	opConserve        // read the conservation terms
	numPortOps
)

type portOp struct {
	kind   uint8
	gap    units.Time // after the previous op
	link   int        // 0: host 0's link, 1: host 1's link
	size   units.ByteSize
	global bool // a read scheduled as a global event
}

// decodePortScript turns fuzz bytes into a script: the first byte turns
// the tracer on (odd) and sets the leaf port's queue cap; then three bytes
// per op: the kind in the low three bits of the first and a gap multiplier
// in the rest, times the third byte; the second byte's low bits pick the
// link and the global flag, its top six bits the size.
func decodePortScript(data []byte) (traced bool, queueCap int, ops []portOp) {
	if len(data) == 0 {
		return false, 4, nil
	}
	traced, queueCap = data[0]&1 == 1, 1+int(data[0]>>1)%8
	data = data[1:]
	if len(data) > 3*256 {
		data = data[:3*256]
	}
	for i := 0; i+2 < len(data); i += 3 {
		a, b := data[i+1], data[i+2]
		ops = append(ops, portOp{
			kind:   (data[i] & 7) % numPortOps,
			gap:    units.Time(data[i]>>3) * units.Time(b) % 4000,
			link:   int(a) & 1,
			size:   units.ByteSize(64 + int(a>>2)*1454/63),
			global: a&2 != 0,
		})
	}
	return traced, queueCap, ops
}

// arriveLB records every packet's arrival at a switch; it never chooses,
// since host 1 hangs off the only leaf.
type arriveLB struct {
	nic      int32 // host 0's NIC: the port every leaf arrival came over
	arrivals *[]arrival
	ref      []arrival // the reference's arrivals, to check keys against
	failed   string
}

func (arriveLB) Name() string { return "arrive-recorder" }
func (arriveLB) Choose(*Network, *Switch, *Engine, *Packet) int32 {
	panic("arriveLB: no choice to make on a one-leaf fabric")
}
func (b *arriveLB) OnArrive(net *Network, sw *Switch, pkt *Packet) {
	b.record(net.Sim, b.nic, pkt)
}

// record notes an arrival and checks it lands in the reference's slot:
// the event dispatching it is under exactly the reference's key.
func (b *arriveLB) record(s *sim.Sim, port int32, pkt *Packet) {
	i := len(*b.arrivals)
	*b.arrivals = append(*b.arrivals, arrival{port: port, at: s.Now(), seq: pkt.Seq})
	if b.failed != "" || i >= len(b.ref) {
		return
	}
	if r := b.ref[i]; !s.Reached(r.at, r.key) || s.Reached(r.at, r.key+1<<3) {
		b.failed = fmt.Sprintf("arrival %d (port %d seq %d at %d) not dispatched under the reference key %#x",
			i, port, pkt.Seq, s.Now(), r.key)
	}
}

// recordSink delivers host 1's packets to the recorder.
type recordSink struct {
	b    *arriveLB
	port int32
}

func (r recordSink) HandlePacket(h *Host, pkt *Packet) { r.b.record(h.Net().Sim, r.port, pkt) }

// runPortScript runs the script on the reference and on the real fabric
// and returns the first difference, or "". Host 0's link runs at 40G and
// host 1's at 10G, so the leaf's port to host 1 queues and, at a small
// cap, drops.
func runPortScript(traced bool, queueCap int, ops []portOp) string {
	tp := topo.New()
	leaf := tp.AddNode(topo.Leaf, "L0")
	h0, h1 := tp.AddNode(topo.Host, "h0"), tp.AddNode(topo.Host, "h1")
	tp.AddLink(h0, leaf, 40*units.Gbps, topo.DefaultProp)
	tp.AddLink(h1, leaf, 10*units.Gbps, topo.DefaultProp)
	s := sim.New(1)
	b := &arriveLB{arrivals: new([]arrival)}
	cfg := Config{Balancer: b, QueueCap: queueCap}
	var ring *trace.Ring
	if traced {
		ring = trace.NewRing(1 << 12)
		cfg.Tracer = trace.New(ring)
	}
	n := New(s, tp, cfg)
	nic, down := n.Host(h0).NIC, n.Ports[n.hostNIC[h1]]
	b.nic = nic.Index

	// The reference first, on a scheduler of its own.
	rs := sim.New(1)
	m := newTwoEvent(rs, nic, down)
	var refReads []string
	readRef := func(p *refPort) string {
		return fmt.Sprint(portRead{vis: p.visBytes, qBytes: p.qBytes, tx: p.txBytes, drops: p.drops,
			waitNs: p.waitNs, started: p.started, visPkts: p.visPkts, qPkts: p.qPkts})
	}
	refInFlight := func() int64 { return int64(len(m.ports[0].wire) + len(m.ports[1].wire)) }
	schedule(rs, ops, func(i int, op portOp) {
		switch op.kind {
		case opSend:
			m.sent++
			m.ports[refNIC].enqueue(refPkt{seq: int64(i), size: op.size})
		case opReadNIC:
			refReads = append(refReads, readRef(m.ports[refNIC]))
		case opReadDown:
			refReads = append(refReads, readRef(m.ports[refDown]))
		case opFail, opRestore:
			m.ports[op.link].setLink(op.kind == opRestore)
		case opConserve:
			queued := int64(m.ports[0].qPkts + m.ports[1].qPkts)
			refReads = append(refReads, fmt.Sprint(m.sent, m.delivered, m.drops, queued, refInFlight()))
		}
	})
	rs.Run()
	for _, p := range m.ports {
		if len(p.queue) != 0 || len(p.wire) != 0 {
			// A down link keeps nothing queued, so a drained run is empty.
			return fmt.Sprintf("reference port %d: %d queued, %d on the wire after Run", p.idx, len(p.queue), len(p.wire))
		}
	}

	// The real fabric.
	b.ref = m.arrivals
	n.Host(h1).Handler = recordSink{b: b, port: down.Index}
	var reads []string
	read := func(p *Port) string {
		vis := p.VisibleBytes()
		return fmt.Sprint(portRead{vis: vis, qBytes: p.QueueBytes(), tx: p.TxBytes(), drops: p.Drops,
			waitNs: n.Hops.QueueingNs[p.Hop], started: n.Hops.Packets[p.Hop], visPkts: p.VisPkts, qPkts: p.QueueLen()})
	}
	src := n.Host(h0)
	schedule(s, ops, func(i int, op portOp) {
		switch op.kind {
		case opSend:
			pkt := src.AllocPacket()
			pkt.FlowID, pkt.Dst, pkt.Size, pkt.Seq = 1, h1, op.size, int64(i)
			src.Send(pkt)
		case opReadNIC:
			reads = append(reads, read(nic))
		case opReadDown:
			reads = append(reads, read(down))
		case opFail, opRestore:
			n.setLink(topo.LinkID([]*Port{nic, down}[op.link].Chan/2), op.kind == opRestore)
		case opConserve:
			// DroppedPackets reads before anything settles a port: a loss
			// at a departure must already have been applied by then.
			reads = append(reads, fmt.Sprint(n.SentPackets(), n.DeliveredPackets(), n.DroppedPackets(),
				n.QueuedPackets(), n.InFlightPackets()))
		}
	})
	s.Run()
	if b.failed != "" {
		return b.failed
	}
	if len(reads) != len(refReads) {
		return fmt.Sprintf("%d reads, reference %d", len(reads), len(refReads))
	}
	for i := range reads {
		if reads[i] != refReads[i] {
			return fmt.Sprintf("read %d: settled %s, two-event %s", i, reads[i], refReads[i])
		}
	}
	got := *b.arrivals
	if len(got) != len(m.arrivals) {
		return fmt.Sprintf("%d arrivals, reference %d", len(got), len(m.arrivals))
	}
	for i, a := range got {
		if r := m.arrivals[i]; a.port != r.port || a.at != r.at || a.seq != r.seq {
			return fmt.Sprintf("arrival %d: port %d seq %d at %d, reference port %d seq %d at %d",
				i, a.port, a.seq, a.at, r.port, r.seq, r.at)
		}
	}
	if ring != nil {
		var last units.Time
		for i, ev := range ring.Events() {
			if ev.T < last {
				return fmt.Sprintf("trace event %d (%v) at %d after one at %d", i, ev.Kind, ev.T, last)
			}
			last = ev.T
		}
	}
	return ""
}

// schedule puts the script's ops on s at their cumulative times, in
// order, as local events or, for link changes and reads marked global,
// as global ones.
func schedule(s *sim.Sim, ops []portOp, do func(i int, op portOp)) {
	var at units.Time
	for i, op := range ops {
		at += op.gap
		i, op := i, op
		if op.kind == opFail || op.kind == opRestore || op.global && op.kind != opSend {
			s.AtGlobal(at, func() { do(i, op) })
			continue
		}
		s.At(at, func() { do(i, op) })
	}
}

// portSeed builds fuzz input from a tracer flag, a queue cap and ops.
func portSeed(traced bool, queueCap int, ops ...[3]byte) []byte {
	b := []byte{byte((queueCap-1)%8) << 1}
	if traced {
		b[0] |= 1
	}
	for _, op := range ops {
		b = append(b, op[:]...)
	}
	return b
}

// seedOp encodes one op: kind, a gap of gapUnits×b ns (gapUnits < 32),
// and a, which picks the link, the global flag and the size with b.
func seedOp(kind uint8, gapUnits uint8, a, b byte) [3]byte {
	return [3]byte{kind | gapUnits<<3, a, b}
}

func FuzzPortVsTwoEvent(f *testing.F) {
	// A 1518-byte packet (a=252) serializes in 304 ns on host 0's 40G
	// link and 1,215 ns on host 1's 10G link; visibility lags enqueue by
	// 15 and 60 ns, and propagation takes 200 ns.
	const mtu = 252
	// A failure of host 0's link at 100 ns, while the first packet is in
	// service and a second waits, restored after the departure: both are
	// lost at the departure, which a read at 400 ns counts before anything
	// settles the port. The next packet goes through.
	f.Add(portSeed(false, 4,
		seedOp(opSend, 0, mtu, 0), seedOp(opSend, 0, mtu, 0),
		seedOp(opFail, 1, 0, 100), seedOp(opConserve, 2, 2, 150), seedOp(opReadNIC, 0, 0, 0),
		seedOp(opRestore, 2, 0, 150), seedOp(opConserve, 1, 0, 1),
		seedOp(opSend, 1, mtu, 100), seedOp(opReadNIC, 0, 0, 0), seedOp(opConserve, 4, 2, 250)))
	// A failure after a departure nobody read: the packet left at 304 ns
	// under a live link, so it arrives although the link is down at 400.
	f.Add(portSeed(false, 4,
		seedOp(opSend, 0, mtu, 0), seedOp(opFail, 2, 0, 200),
		seedOp(opRestore, 1, 0, 50), seedOp(opConserve, 4, 0, 250)))
	// A restore before the departure: the packet in service survives.
	f.Add(portSeed(false, 4,
		seedOp(opSend, 0, mtu, 0), seedOp(opSend, 0, mtu, 0),
		seedOp(opFail, 1, 0, 100), seedOp(opRestore, 1, 0, 100),
		seedOp(opReadNIC, 1, 2, 50), seedOp(opConserve, 1, 0, 250)))
	// Visibility updates at departure instants. On the NIC, the second
	// packet enqueues 15 ns before the first departs (289 ns); on the
	// leaf's port, the second packet of another pair arrives 60 ns before
	// the first departs (1,155 = 5×231 ns after it was sent), and reads
	// at that departure (1,719 ns) run as a local and a global event.
	f.Add(portSeed(false, 4,
		seedOp(opSend, 0, mtu, 0), seedOp(opSend, 17, mtu, 17),
		seedOp(opReadNIC, 1, 0, 15), seedOp(opReadNIC, 0, 2, 0), seedOp(opConserve, 4, 0, 250)))
	f.Add(portSeed(false, 4,
		seedOp(opSend, 0, mtu, 0), seedOp(opSend, 5, mtu, 231),
		seedOp(opReadDown, 2, 0, 141), seedOp(opReadDown, 0, 2, 0),
		seedOp(opReadDown, 1, 0, 60), seedOp(opConserve, 3, 0, 255)))
	// A tracer attached: every port wakes at its departures. A burst
	// overflows a two-packet leaf queue, host 1's link fails under a
	// packet in service and comes back, and the trace must stay in time
	// order.
	f.Add(portSeed(true, 2,
		seedOp(opSend, 0, mtu, 0), seedOp(opSend, 0, mtu, 0), seedOp(opSend, 0, mtu, 0),
		seedOp(opSend, 0, mtu, 0), seedOp(opFail, 6, 1, 250), seedOp(opReadDown, 1, 1, 10),
		seedOp(opRestore, 2, 1, 250), seedOp(opSend, 1, mtu, 100), seedOp(opConserve, 5, 0, 250)))
	f.Fuzz(func(t *testing.T, data []byte) {
		traced, queueCap, ops := decodePortScript(data)
		if d := runPortScript(traced, queueCap, ops); d != "" {
			t.Fatal(d)
		}
	})
}
