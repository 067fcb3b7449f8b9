package experiments

import (
	"testing"

	"drill/internal/fabric"
	"drill/internal/metrics"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/transport"
	"drill/internal/units"
	"drill/internal/workload"
)

// checkConservation asserts the packet-conservation law at the current sim
// instant: every packet a host ever sent is in exactly one of four places —
// delivered to a destination host, dropped, sitting in a port queue, or on
// the wire between a transmitter and its receiver. The first three come
// from trace event counts and the fabric's queue occupancy; the wire
// population is LinkDepart − Arrive − Deliver, since each departure is
// matched by exactly one switch arrival or host delivery.
func checkConservation(t *testing.T, when string, tr *trace.Tracer, net *fabric.Network) {
	t.Helper()
	sent := tr.Count(trace.Send)
	delivered := tr.Count(trace.Deliver)
	dropped := tr.Count(trace.Drop)
	queued := net.QueuedPackets()
	inflight := tr.Count(trace.LinkDepart) - tr.Count(trace.Arrive) - delivered
	if inflight < 0 {
		t.Errorf("%s: in-flight packet count is negative (%d): departs=%d arrives=%d delivers=%d",
			when, inflight, tr.Count(trace.LinkDepart), tr.Count(trace.Arrive), delivered)
	}
	if got := delivered + dropped + queued + inflight; got != sent {
		t.Errorf("%s: conservation violated: sent=%d but delivered=%d + dropped=%d + queued=%d + inflight=%d = %d",
			when, sent, delivered, dropped, queued, inflight, got)
	}
	// The trace layer and the fabric's own aggregate counters are
	// independent tallies of the same events; they must agree exactly.
	// (Sent is read directly: these runs are sequential, where the single
	// domain's counter aliases the network total.)
	if sent != net.Sent {
		t.Errorf("%s: trace counted %d sends, fabric counted %d", when, sent, net.Sent)
	}
	if delivered != net.Delivered {
		t.Errorf("%s: trace counted %d delivers, fabric counted %d", when, delivered, net.Delivered)
	}
	if drops := net.Hops.TotalDrops(); dropped != drops {
		t.Errorf("%s: trace counted %d drops, fabric counted %d", when, dropped, drops)
	}
}

// conservationRun drives one short, deliberately lossy run (tiny queues at
// high load) of the given scheme with a counts-only tracer attached and
// checks conservation at several mid-run instants — queues and wires
// populated — and once more after the drain window. The law holds at *any*
// instant; the fabric need not be idle (lossy flows may still be
// retransmitting), it only has to account for every packet.
func conservationRun(t *testing.T, sc Scheme, failAt units.Time) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 4, Leaves: 4, HostsPerLeaf: 4,
		CoreRate: 10 * units.Gbps, HostRate: 10 * units.Gbps,
	})
	s := sim.New(7)
	tr := trace.New(nil) // counts only: no sink allocation, pure tallies
	net := fabric.New(s, tp, fabric.Config{
		Balancer: sc.New(),
		QueueCap: 8, // small caps force enqueue-overflow drops
		Tracer:   tr,
	})
	reg := transport.NewRegistry(s, net, transport.Config{ShimTimeout: sc.Shim})
	end := 800 * units.Microsecond
	g := workload.NewGenerator(reg, workload.Truncate(workload.FacebookCache, 2e6),
		workload.Load(1.0), end)
	g.Start()
	if failAt > 0 {
		if err := UplinkFailure(2, failAt, false).Install(s, net, tp, 7, end); err != nil {
			t.Fatal(err)
		}
	}

	for _, at := range []units.Time{end / 4, end / 2, 3 * end / 4} {
		at := at
		s.At(at, func() { checkConservation(t, at.String(), tr, net) })
	}
	s.RunUntil(end + 10*units.Millisecond)

	checkConservation(t, "post-drain", tr, net)
	if sent := tr.Count(trace.Send); sent == 0 {
		t.Fatal("run sent no packets; the invariant was checked vacuously")
	}
	if tr.Count(trace.Deliver) == 0 {
		t.Fatal("run delivered no packets; the invariant was checked vacuously")
	}
}

// TestPacketConservation runs the conservation invariant against every
// standard scheme — each exercises a different enqueue/forward path through
// the fabric — plus a mid-run link-failure variant that exercises the
// dead-link and queue-drain drop paths.
func TestPacketConservation(t *testing.T) {
	for _, name := range []string{"ECMP", "Random", "RR", "WCMP", "CONGA", "Presto", "DRILL"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, ok := SchemeByName(name)
			if !ok {
				t.Fatalf("unknown scheme %q", name)
			}
			conservationRun(t, sc, 0)
		})
	}
	t.Run("DRILL/link-failure", func(t *testing.T) {
		t.Parallel()
		sc, _ := SchemeByName("DRILL")
		conservationRun(t, sc, 300*units.Microsecond)
	})
}

// TestConservationSeesDrops guards the guard: the lossy configuration the
// conservation runs use must actually drop packets, or the drop terms of
// the invariant go untested.
func TestConservationSeesDrops(t *testing.T) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 4, Leaves: 4, HostsPerLeaf: 4,
		CoreRate: 10 * units.Gbps, HostRate: 10 * units.Gbps,
	})
	s := sim.New(7)
	tr := trace.New(nil)
	sc, _ := SchemeByName("ECMP")
	net := fabric.New(s, tp, fabric.Config{Balancer: sc.New(), QueueCap: 8, Tracer: tr})
	reg := transport.NewRegistry(s, net, transport.Config{})
	end := 800 * units.Microsecond
	g := workload.NewGenerator(reg, workload.Truncate(workload.FacebookCache, 2e6),
		workload.Load(1.0), end)
	g.Start()
	s.RunUntil(end + 10*units.Millisecond)
	if tr.Count(trace.Drop) == 0 {
		t.Error("8-packet queues at 100% ECMP load dropped nothing; tighten the conservation fixture")
	}
}

// TestUnreachableDropHopClassification pins the tier attribution of
// unreachable-destination drops (trace Drop events with Port == -1: the
// switch had no output port to charge). Long propagation wires keep ~8
// packets in flight toward the spines when both spine→leaf1 links fail
// with instant reconvergence, so the spines' empty tables must book those
// drops against Hop2 — before the fix every unreachable drop was hardcoded
// to Hop1, whichever tier dropped the packet. Late packets hitting leaf0's
// emptied tables are legitimately Hop1; nothing else may appear at Port -1
// in a 2-stage fabric.
func TestUnreachableDropHopClassification(t *testing.T) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 2, Leaves: 2, HostsPerLeaf: 2,
		CoreRate: 40 * units.Gbps, HostRate: 10 * units.Gbps,
		Prop: 10 * units.Microsecond,
	})
	s := sim.New(3)
	ring := trace.NewRing(1 << 14)
	tr := trace.New(ring)
	sc, _ := SchemeByName("ECMP")
	net := fabric.New(s, tp, fabric.Config{Balancer: sc.New(), Tracer: tr})

	src := net.Host(tp.Hosts[0])
	dst := tp.Hosts[2] // under leaf1
	const N = 100
	for i := 0; i < N; i++ {
		pkt := src.AllocPacket()
		pkt.FlowID = uint64(i)
		pkt.Hash = uint32(i) // spread across both spines
		pkt.Dst = dst
		pkt.Size = 1518
		src.Send(pkt)
	}
	// The NIC paces one packet out every ~1.2µs; each then spends 10µs on
	// the leaf→spine wire. Failing both spine-side links at 30µs therefore
	// catches several packets mid-wire, deterministically.
	leaf1 := tp.Leaves[1]
	s.At(30*units.Microsecond, func() {
		for _, l := range tp.Links {
			ka, kb := tp.Nodes[l.A].Kind, tp.Nodes[l.B].Kind
			if (ka == topo.Spine && l.B == leaf1) || (kb == topo.Spine && l.A == leaf1) {
				net.FailLink(l.ID, true)
			}
		}
	})
	s.Run()

	if ring.Dropped() != 0 {
		t.Fatalf("ring sink overflowed (%d events lost); grow the fixture's capacity", ring.Dropped())
	}
	byHop := map[uint8]int64{}
	var unreachable int64
	for _, ev := range ring.Events() {
		if ev.Kind != trace.Drop {
			continue
		}
		byHop[ev.Hop]++
		if ev.Port == -1 {
			unreachable++
			if h := metrics.HopClass(ev.Hop); h != metrics.Hop1 && h != metrics.Hop2 {
				t.Errorf("unreachable drop booked against %v; only leaf (hop1-up) and spine (hop2-down) tiers exist here", h)
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no unreachable-destination drops; the empty-table path went unexercised")
	}
	spineUnreachable := false
	for _, ev := range ring.Events() {
		if ev.Kind == trace.Drop && ev.Port == -1 && metrics.HopClass(ev.Hop) == metrics.Hop2 {
			spineUnreachable = true
			break
		}
	}
	if !spineUnreachable {
		t.Error("no unreachable drop at a spine (Hop2); mid-wire packets should have arrived after reconvergence")
	}
	// The trace's per-hop drop tally and the fabric's HopStats are
	// independent recordings of the same sites; they must agree per class.
	for c := metrics.HopClass(0); c < metrics.NumHopClasses; c++ {
		if got, want := byHop[uint8(c)], net.Hops.Drops[c]; got != want {
			t.Errorf("%v: trace counted %d drops, fabric counted %d", c, got, want)
		}
	}
	if delivered := net.Delivered; delivered+net.Hops.TotalDrops() != N {
		t.Errorf("conservation: delivered %d + dropped %d != %d sent",
			delivered, net.Hops.TotalDrops(), N)
	}
}
