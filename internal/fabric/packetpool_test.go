package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"drill/internal/metrics"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

func TestPoolRecyclesZeroed(t *testing.T) {
	var pool PacketPool
	p := pool.Get()
	// Dirty every recycling-sensitive field.
	p.FlowID = 9
	p.Hash = 0xdead
	p.Kind = Ack
	p.Seq = 1234
	p.EchoTS = 55
	p.CE = 3
	p.Path = []topo.ChanID{1, 2, 3}
	p.PathIdx = 2
	p.Hops = 4
	p.enqAt = 98
	pool.Put(p)

	q := pool.Get()
	if q != p {
		t.Fatal("Get did not reuse the shelved packet")
	}
	want := Packet{poolState: poolLive}
	if !reflect.DeepEqual(*q, want) {
		t.Fatalf("recycled packet not zeroed: %+v", *q)
	}
	if pool.Gets != 2 || pool.News != 1 || pool.Puts != 1 {
		t.Fatalf("pool counters gets=%d news=%d puts=%d, want 2/1/1",
			pool.Gets, pool.News, pool.Puts)
	}
}

func TestPoolIgnoresForeignPackets(t *testing.T) {
	var pool PacketPool
	p := &Packet{FlowID: 1}
	pool.Put(p)
	if pool.Puts != 0 || pool.Idle() != 0 {
		t.Fatal("hand-built packet entered the pool")
	}
	if p.FlowID != 1 {
		t.Fatal("hand-built packet was zeroed by Put")
	}
}

func TestPoolDoubleRecyclePanics(t *testing.T) {
	var pool PacketPool
	p := pool.Get()
	pool.Put(p)
	defer func() {
		if recover() == nil {
			t.Error("double Put did not panic")
		}
	}()
	pool.Put(p)
}

func TestPoolGetPutAllocs(t *testing.T) {
	// The recycle round trip is the hot path's allocation budget: zero.
	var pool PacketPool
	pool.Put(pool.Get())
	allocs := testing.AllocsPerRun(1000, func() {
		pool.Put(pool.Get())
	})
	if allocs != 0 {
		t.Fatalf("Get+Put allocates %v per op, want 0", allocs)
	}
}

// TestDeliveredPoolPacketsAreRecycled proves the terminal sites feed the
// free list: traffic pushed through the fabric from the pool comes back,
// while the hand-built packets tests use stay untouched.
func TestDeliveredPoolPacketsAreRecycled(t *testing.T) {
	s, n, tp := newNet(t, Config{})
	src := n.Host(tp.Hosts[0])
	dst := tp.Hosts[2]
	n.Host(dst).Handler = &sink{}
	const N = 25
	for i := 0; i < N; i++ {
		pkt := src.AllocPacket()
		pkt.FlowID = 1
		pkt.Hash = 77
		pkt.Dst = dst
		pkt.Size = 1518
		pkt.Seq = int64(i)
		src.Send(pkt)
	}
	s.Run()
	if n.Delivered != N {
		t.Fatalf("delivered %d, want %d", n.Delivered, N)
	}
	if n.Pool().Puts != N {
		t.Fatalf("pool recycled %d packets, want %d (every delivery is terminal)",
			n.Pool().Puts, N)
	}
	if idle := n.Pool().Idle(); idle != N {
		t.Fatalf("free list holds %d packets, want %d", idle, N)
	}
	// Steady state: the same traffic again must allocate no new packets.
	news := n.Pool().News
	for i := 0; i < N; i++ {
		pkt := src.AllocPacket()
		pkt.FlowID = 1
		pkt.Hash = 77
		pkt.Dst = dst
		pkt.Size = 1518
		src.Send(pkt)
	}
	s.Run()
	if n.Pool().News != news {
		t.Fatalf("steady-state rerun allocated %d fresh packets, want 0",
			n.Pool().News-news)
	}
}

// TestDroppedPoolPacketsAreRecycled covers the drop-site recycling paths:
// queue overflow must return pooled packets to the free list too.
func TestDroppedPoolPacketsAreRecycled(t *testing.T) {
	s, n, tp := newNet(t, Config{Balancer: fixedLB{}, QueueCap: 4})
	src1, src2 := n.Host(tp.Hosts[0]), n.Host(tp.Hosts[1])
	dst := tp.Hosts[2]
	n.Host(dst).Handler = &sink{}
	const N = 50
	for i := 0; i < N; i++ {
		for _, src := range []*Host{src1, src2} {
			pkt := src.AllocPacket()
			pkt.FlowID = uint64(i%2 + 5)
			pkt.Hash = uint32(i % 2)
			pkt.Dst = dst
			pkt.Size = 1518
			src.Send(pkt)
		}
	}
	s.Run()
	if n.Hops.TotalDrops() == 0 {
		t.Fatal("fixture dropped nothing; drop recycling untested")
	}
	// Every packet ended delivered or dropped; both sites recycle.
	if n.Pool().Puts != 2*N {
		t.Fatalf("pool recycled %d packets, want %d (delivered + dropped)",
			n.Pool().Puts, 2*N)
	}
}

// handlerFunc adapts a function to PacketHandler.
type handlerFunc func(h *Host, pkt *Packet)

func (f handlerFunc) HandlePacket(h *Host, pkt *Packet) { f(h, pkt) }

// pooledVsHandBuiltRun drives one fixed traffic pattern — four hosts
// converging on shallow queues, with a leaf uplink failing
// mid-run — allocating every packet through alloc. Each delivery becomes
// one transcript line, copied inside the handler while the packet is
// live, and each segment carrying payload is answered with an ACK from
// the same allocator: the shape of the transport's receive path.
func pooledVsHandBuiltRun(t *testing.T, alloc func(h *Host) *Packet) (*Network, []string) {
	s, n, tp := newNet(t, Config{QueueCap: 8, RouteDelay: 10 * units.Microsecond})
	var log []string
	echo := handlerFunc(func(h *Host, pkt *Packet) {
		log = append(log, fmt.Sprintf("%d h%d f%d s%d k%d hops=%d",
			s.Now(), h.ID, pkt.FlowID, pkt.Seq, pkt.Kind, pkt.Hops))
		if pkt.Kind == Data && pkt.Len > 0 {
			ack := alloc(h)
			ack.FlowID, ack.Hash, ack.Kind = pkt.FlowID, pkt.Hash, Ack
			ack.Dst, ack.Size, ack.Seq = pkt.Src, AckBytes, pkt.Seq
			h.Send(ack)
		}
	})
	for _, h := range tp.Hosts {
		n.Host(h).Handler = echo
	}
	for i := 0; i < 75; i++ {
		for j, id := range tp.Hosts {
			src, dst := n.Host(id), tp.Hosts[(j+2+i%2)%len(tp.Hosts)]
			flow, seq := uint64(j), int64(i)
			s.At(units.Time(i)*units.Microsecond, func() {
				pkt := alloc(src)
				pkt.FlowID, pkt.Hash, pkt.Dst, pkt.Seq = flow, uint32(seq), dst, seq
				pkt.Size, pkt.Len = 1518, 1518-HeaderBytes
				src.Send(pkt)
			})
		}
	}
	link := tp.LinkBetween(tp.Leaves[0], n.LeafUplinks(tp.Leaves[0])[0].To)[0]
	s.At(30*units.Microsecond, func() { n.FailLink(link, false) })
	s.Run()
	return n, log
}

// TestPooledMatchesHandBuilt is the pool's end-to-end reference. The pool
// never recycles hand-built packets, so traffic allocated with &Packet{}
// is the fresh-allocation baseline; the same traffic allocated through
// Host.AllocPacket — recycled at every delivery and drop site, on a run
// that drops and loses a link mid-flight — must deliver the same packets,
// with the same hop counts, at the same instants.
func TestPooledMatchesHandBuilt(t *testing.T) {
	pooled, got := pooledVsHandBuiltRun(t, (*Host).AllocPacket)
	fresh, want := pooledVsHandBuiltRun(t, func(*Host) *Packet { return &Packet{} })

	if pool := pooled.Pool(); pool.News >= pool.Gets {
		t.Fatalf("pooled run reused nothing: gets=%d news=%d", pool.Gets, pool.News)
	}
	if fresh.Pool().Gets != 0 || fresh.Pool().Puts != 0 {
		t.Fatalf("hand-built run moved packets through the pool: gets=%d puts=%d",
			fresh.Pool().Gets, fresh.Pool().Puts)
	}
	if pooled.Hops.TotalDrops() == 0 {
		t.Fatal("fixture exercises too little: no drops")
	}
	if pooled.Delivered != fresh.Delivered || pooled.Hops.TotalDrops() != fresh.Hops.TotalDrops() {
		t.Errorf("totals differ: pooled delivered=%d drops=%d, hand-built delivered=%d drops=%d",
			pooled.Delivered, pooled.Hops.TotalDrops(), fresh.Delivered, fresh.Hops.TotalDrops())
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("delivery %d differs:\n pooled     %s\n hand-built %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("pooled run delivered %d packets, hand-built %d", len(got), len(want))
	}
}

// TestHopWaitNoInt32Overflow is the regression test for the per-hop wait
// accounting: a queueing wait beyond 2.147 s (int32 nanoseconds) must not
// wrap. 200 packets serialized at 1 Mbps make the NIC queue's tail wait
// seconds, and the hop class's total minutes.
func TestHopWaitNoInt32Overflow(t *testing.T) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 1, Leaves: 1, HostsPerLeaf: 2,
		HostRate: 1 * units.Mbps, CoreRate: 1 * units.Mbps})
	s := sim.New(1)
	n := New(s, tp, Config{Balancer: fixedLB{}})
	src := n.Host(tp.Hosts[0])
	dst := tp.Hosts[1]
	rx := &sink{}
	n.Host(dst).Handler = rx

	// 1518 B at 1 Mbps ≈ 12.1 ms serialization; packet i waits ~i·12.1 ms
	// in the NIC queue, so the burst's tail waits well past the 2.147 s
	// int32 boundary.
	const N = 200
	for i := 0; i < N; i++ {
		src.Send(&Packet{FlowID: 1, Hash: 1, Dst: dst, Size: 1518, Seq: int64(i)})
	}
	s.Run()
	if len(rx.got) != N {
		t.Fatalf("delivered %d, want %d", len(rx.got), N)
	}
	txTime := int64(units.TxTime(1518, 1*units.Mbps))
	if tail := txTime * (N - 1); tail < int64(2200*units.Millisecond) {
		t.Fatalf("tail wait %v too small to exercise the int32 boundary; fixture drifted",
			units.Time(tail))
	}
	// Packet i waits i serializations, so the NIC hop's total is
	// txTime·N(N−1)/2.
	if got, want := n.Hops.QueueingNs[metrics.HostUp], txTime*N*(N-1)/2; got != want {
		t.Fatalf("NIC queueing total = %d ns, want exactly %d", got, want)
	}
}
