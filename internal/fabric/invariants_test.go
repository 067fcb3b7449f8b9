package fabric

import (
	"testing"
	"testing/quick"

	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// TestConservationProperty drives random traffic through random small Clos
// fabrics and checks packet conservation: every injected packet is either
// delivered or accounted as a drop.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, spines, leaves, pkts uint8) bool {
		sp := int(spines%3) + 2
		lv := int(leaves%3) + 2
		n := int(pkts)%200 + 1
		tp := topo.LeafSpine(topo.LeafSpineConfig{
			Spines: sp, Leaves: lv, HostsPerLeaf: 2,
			HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
		s := sim.New(seed)
		net := New(s, tp, Config{Balancer: randomLB{}, QueueCap: 8})
		for _, h := range tp.Hosts {
			net.Host(h).Handler = &sink{}
		}
		rng := s.Stream(1)
		injected := 0
		for i := 0; i < n; i++ {
			src := tp.Hosts[rng.Intn(len(tp.Hosts))]
			dst := tp.Hosts[rng.Intn(len(tp.Hosts))]
			if src == dst {
				continue
			}
			injected++
			at := units.Time(rng.Intn(100)) * units.Microsecond
			pkt := &Packet{FlowID: uint64(i), Hash: uint32(rng.Int31()),
				Dst: dst, Size: units.ByteSize(rng.Intn(1400) + 100)}
			host := net.Host(src)
			s.At(at, func() { host.Send(pkt) })
		}
		s.Run()
		return net.Delivered+net.Hops.TotalDrops() == int64(injected)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQueuesDrainProperty: after traffic stops, every queue and every
// settled visibility counter returns to exactly zero, with no visibility
// update left parked.
func TestQueuesDrainProperty(t *testing.T) {
	f := func(seed int64, pkts uint8) bool {
		tp := topo.LeafSpine(topo.LeafSpineConfig{
			Spines: 3, Leaves: 3, HostsPerLeaf: 2,
			HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
		s := sim.New(seed)
		net := New(s, tp, Config{Balancer: randomLB{}})
		for _, h := range tp.Hosts {
			net.Host(h).Handler = &sink{}
		}
		rng := s.Stream(2)
		for i := 0; i < int(pkts); i++ {
			src := tp.Hosts[rng.Intn(len(tp.Hosts))]
			dst := tp.Hosts[(rng.Intn(len(tp.Hosts)-1)+1+int(src))%len(tp.Hosts)]
			if src == dst {
				continue
			}
			host := net.Host(src)
			pkt := &Packet{FlowID: uint64(i), Hash: uint32(i), Dst: dst, Size: 1518}
			host.Send(pkt)
		}
		s.Run()
		for _, p := range net.Ports {
			if vp, vb, skip := settled(p); p.QueueLen() != 0 || p.QueueBytes() != 0 || vp != 0 || vb != 0 || skip != 0 || !p.visRing.empty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMidRunFailureConservation: failing links mid-burst never loses
// accounting — delivered + dropped == injected.
func TestMidRunFailureConservation(t *testing.T) {
	f := func(seed int64) bool {
		tp := topo.LeafSpine(topo.LeafSpineConfig{
			Spines: 3, Leaves: 3, HostsPerLeaf: 2,
			HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
		s := sim.New(seed)
		net := New(s, tp, Config{Balancer: randomLB{}, RouteDelay: 5 * units.Microsecond})
		for _, h := range tp.Hosts {
			net.Host(h).Handler = &sink{}
		}
		rng := s.Stream(3)
		const n = 300
		for i := 0; i < n; i++ {
			src := tp.Hosts[i%len(tp.Hosts)]
			dst := tp.Hosts[(i+2)%len(tp.Hosts)]
			at := units.Time(i) * 300 * units.Nanosecond
			host := net.Host(src)
			pkt := &Packet{FlowID: uint64(i), Hash: uint32(rng.Int31()), Dst: dst, Size: 1518}
			s.At(at, func() { host.Send(pkt) })
		}
		// Fail two random core links mid-burst.
		var core []topo.LinkID
		for _, l := range tp.Links {
			if tp.Nodes[l.A].Kind != topo.Host && tp.Nodes[l.B].Kind != topo.Host {
				core = append(core, l.ID)
			}
		}
		rng.Shuffle(len(core), func(i, j int) { core[i], core[j] = core[j], core[i] })
		s.At(20*units.Microsecond, func() { net.FailLink(core[0], false) })
		s.At(40*units.Microsecond, func() { net.FailLink(core[1], false) })
		s.Run()
		delivered := net.Delivered
		dropped := net.Hops.TotalDrops()
		// Some packets may be dropped for unreachability; all must be accounted.
		return delivered+dropped == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestVisibilityNeverExceedsWaiting: the visible occupancy is always a
// subset of the true queue, never negative, for all schemes under load.
func TestVisibilityNeverExceedsWaiting(t *testing.T) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 2, Leaves: 2, HostsPerLeaf: 3,
		HostRate: 10 * units.Gbps, CoreRate: 10 * units.Gbps})
	s := sim.New(5)
	net := New(s, tp, Config{Balancer: randomLB{}, QueueCap: 16})
	for _, h := range tp.Hosts {
		net.Host(h).Handler = &sink{}
	}
	for i := 0; i < 400; i++ {
		src := tp.Hosts[i%3]
		dst := tp.Hosts[3+(i%3)]
		host := net.Host(src)
		pkt := &Packet{FlowID: uint64(i), Hash: uint32(i * 7), Dst: dst, Size: 1518}
		s.At(units.Time(i)*200*units.Nanosecond, func() { host.Send(pkt) })
	}
	violations := 0
	for s.Pending() > 0 {
		s.RunUntil(s.Now() + 500*units.Nanosecond)
		for _, p := range net.Ports {
			if vp, vb, _ := settled(p); vp < 0 || vb < 0 || vp > p.QueueLen() {
				violations++
			}
		}
	}
	if violations > 0 {
		t.Fatalf("%d visibility invariant violations", violations)
	}
}

// TestEveryPortDropCountsOnce covers each way a port loses packets: a full
// queue, an enqueue onto a down port before the control plane reconverges,
// the link failing under the packet in service, and the drain of the
// packets waiting behind it. Host 0 sends at t=0 over a 40G NIC into
// 10G leaf uplinks, and the fixed balancer forwards everything on one
// uplink p. At the checkpoint, before anything can be delivered, each
// cause must have grown p's drops, its hop class's drops, the tracer's
// Drop count and the pool's recycled packets by exactly the packets lost,
// and Sent == Delivered + drops + queued + in flight.
func TestEveryPortDropCountsOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		queueCap int
		sends    int
		failAt   units.Time // when p's link fails (reconverging after 1ms); 0 = never
		waiting  int32      // packets queued on p (in service included) when it fails
		lost     int64
	}{
		// Arrivals at the leaf every 303.6ns from 503.6ns; the first holds
		// the 1214.4ns uplink serialization, one waits, two overflow.
		{name: "full queue", queueCap: 2, sends: 4, lost: 2},
		{name: "down port before reconvergence", sends: 3, failAt: 1, lost: 3},
		{name: "link fails under the packet in service", sends: 1, failAt: 600, waiting: 1, lost: 1},
		// The in-service packet plus the two drained behind it.
		{name: "drain of the waiting packets", sends: 3, failAt: 1200, waiting: 3, lost: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 2, Leaves: 2, HostsPerLeaf: 2,
				HostRate: 40 * units.Gbps, CoreRate: 10 * units.Gbps})
			s := sim.New(1)
			tr := trace.New(nil)
			n := New(s, tp, Config{Balancer: fixedLB{}, QueueCap: tc.queueCap, Tracer: tr})
			src, dst := n.Host(tp.Hosts[0]), tp.Hosts[2]
			n.Host(dst).Handler = &sink{}
			p := n.Ports[n.Switches[tp.Leaves[0]].Groups(1)[0].Ports[0]]
			if tc.failAt > 0 {
				s.AtGlobal(tc.failAt, func() {
					if tc.waiting > 0 && p.QueueLen() != tc.waiting {
						t.Fatalf("fixture: p holds %d packets at the failure, want %d, one in service",
							p.QueueLen(), tc.waiting)
					}
					n.FailLink(topo.LinkID(p.Chan/2), false)
				})
			}
			for i := 0; i < tc.sends; i++ {
				pkt := src.AllocPacket()
				pkt.FlowID, pkt.Dst, pkt.Size, pkt.Seq = 1, dst, 1518, int64(i)
				src.Send(pkt)
			}
			s.RunUntil(3 * units.Microsecond)

			if n.Delivered != 0 || src.NIC.QueueLen() != 0 {
				t.Fatalf("fixture: at the checkpoint %d delivered, %d still on the NIC; want 0 and 0",
					n.Delivered, src.NIC.QueueLen())
			}
			drops := n.Hops.TotalDrops()
			if got := n.Delivered + drops + n.QueuedPackets() + n.InFlightPackets(); got != n.Sent {
				t.Errorf("conservation: sent=%d, delivered+drops+queued+inflight=%d", n.Sent, got)
			}
			for _, c := range []struct {
				what string
				got  int64
			}{
				{"port drops", p.Drops},
				{"hop-class drops", n.Hops.Drops[p.Hop]},
				{"all drops", drops},
				{"traced drops", tr.Count(trace.Drop)},
				{"recycled packets", n.Pool().Puts},
			} {
				if c.got != tc.lost {
					t.Errorf("%s = %d, want %d", c.what, c.got, tc.lost)
				}
			}
		})
	}
}
