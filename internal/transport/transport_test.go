package transport

import (
	"testing"

	"drill/internal/fabric"
	"drill/internal/lb"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

func testbed(t *testing.T, bal fabric.Balancer, tcfg Config) (*sim.Sim, *fabric.Network, *Registry, *topo.Topology) {
	t.Helper()
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 2, Leaves: 2, HostsPerLeaf: 4,
		HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
	s := sim.New(7)
	n := fabric.New(s, tp, fabric.Config{Balancer: bal})
	r := NewRegistry(s, n, tcfg)
	return s, n, r, tp
}

func TestSingleFlowCompletes(t *testing.T) {
	s, _, r, tp := testbed(t, lb.ECMP{}, Config{})
	f := r.StartFlow(tp.Hosts[0], tp.Hosts[4], 100*1460, "")
	s.Run()
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if f.AckedBytes() != 100*1460 {
		t.Fatalf("acked %d bytes", f.AckedBytes())
	}
	if r.Stats.FCT.Count() != 1 {
		t.Fatalf("FCT samples = %d", r.Stats.FCT.Count())
	}
	// Lower bound: 100 packets × 1518B at 10G ≈ 121µs serialization alone.
	fct := f.FCT()
	if fct < 120*units.Microsecond || fct > 5*units.Millisecond {
		t.Fatalf("implausible FCT %v", fct)
	}
	if r.Stats.Retransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", r.Stats.Retransmits)
	}
}

func TestTinyFlow(t *testing.T) {
	s, _, r, tp := testbed(t, lb.ECMP{}, Config{})
	f := r.StartFlow(tp.Hosts[0], tp.Hosts[4], 300, "mice")
	s.Run()
	if !f.Done() {
		t.Fatal("tiny flow did not complete")
	}
	if d := r.Stats.FCTByClass["mice"]; d == nil || d.Count() != 1 {
		t.Fatal("class FCT missing")
	}
}

func TestManyParallelFlowsConserveBytes(t *testing.T) {
	s, n, r, tp := testbed(t, lb.NewDRILL(), Config{})
	var flows []*Sender
	for i := 0; i < 8; i++ {
		src := tp.Hosts[i%4]
		dst := tp.Hosts[4+(i+1)%4]
		flows = append(flows, r.StartFlow(src, dst, int64(5000*(i+1)), ""))
	}
	s.Run()
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d incomplete: acked %d", i, f.AckedBytes())
		}
	}
	if n.Hops.TotalDrops() > 0 {
		// Light load; drops possible but retransmission must still finish all.
		t.Logf("drops under light load: %d", n.Hops.TotalDrops())
	}
}

func TestIncastRecoversViaRetransmission(t *testing.T) {
	// All 4 hosts under leaf0 + 3 under leaf1 blast one receiver: queue
	// overflow at the last hop forces losses; every flow must still finish.
	s, n, r, tp := testbed(t, lb.NewDRILL(), Config{})
	dst := tp.Hosts[4]
	var flows []*Sender
	for _, src := range []int{0, 1, 2, 3, 5, 6, 7} {
		flows = append(flows, r.StartFlow(tp.Hosts[src], dst, 60*1460, "incast"))
	}
	s.Run()
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("incast flow %d incomplete (acked %d)", i, f.AckedBytes())
		}
	}
	if n.Hops.TotalDrops() == 0 {
		t.Log("no drops in incast (queues large enough); retransmission path unexercised")
	} else if r.Stats.Retransmits == 0 {
		t.Fatal("drops occurred but nothing was retransmitted")
	}
}

func TestReorderingCountsDupAcks(t *testing.T) {
	// Per-packet Random over unequal paths creates reordering; ECMP cannot.
	run := func(bal fabric.Balancer) int {
		s, _, r, tp := testbed(t, bal, Config{})
		for i := 0; i < 6; i++ {
			r.StartFlow(tp.Hosts[i%4], tp.Hosts[4+i%4], 200*1460, "")
		}
		s.Run()
		return int(r.Stats.DupAcks.FracAtLeast(1) * float64(r.Stats.DupAcks.Count()))
	}
	ecmpDups := run(lb.ECMP{})
	if ecmpDups != 0 {
		t.Fatalf("ECMP produced %d flows with dup ACKs; must be 0", ecmpDups)
	}
}

func TestWireReorderZeroForECMP(t *testing.T) {
	s, _, r, tp := testbed(t, lb.ECMP{}, Config{})
	for i := 0; i < 8; i++ {
		r.StartFlow(tp.Hosts[i%4], tp.Hosts[4+i%4], 100*1460, "")
	}
	s.Run()
	if got := r.Stats.WireReorders.FracAtLeast(1); got != 0 {
		t.Fatalf("ECMP wire reorder fraction = %v", got)
	}
}

func TestShimSuppressesDupAcks(t *testing.T) {
	// Force reordering: random per-packet spraying with concurrent load.
	load := func(shim units.Time) (flowsWithDups float64, finished int) {
		s, _, r, tp := testbed(t, lb.Random{}, Config{ShimTimeout: shim})
		for i := 0; i < 12; i++ {
			r.StartFlow(tp.Hosts[i%4], tp.Hosts[4+(i*3)%4], 300*1460, "")
		}
		s.Run()
		return r.Stats.DupAcks.FracAtLeast(1), int(r.Stats.DupAcks.Count())
	}
	noShim, fin1 := load(0)
	withShim, fin2 := load(300 * units.Microsecond)
	if fin1 != 12 || fin2 != 12 {
		t.Fatalf("flows finished: %d / %d, want 12", fin1, fin2)
	}
	if withShim > noShim {
		t.Fatalf("shim increased dup-ACK flows: %v -> %v", noShim, withShim)
	}
	t.Logf("dup-ack flow fraction: no shim %.3f, shim %.3f", noShim, withShim)
}

func TestRTOFiresWhenAllAcksLost(t *testing.T) {
	// Sever the reverse path mid-flow by failing links is complex; instead
	// rely on incast overload with tiny queues to force RTOs.
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 2, Leaves: 2, HostsPerLeaf: 4,
		HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
	s := sim.New(7)
	n := fabric.New(s, tp, fabric.Config{Balancer: lb.ECMP{}, QueueCap: 4})
	r := NewRegistry(s, n, Config{})
	var flows []*Sender
	dst := tp.Hosts[4]
	for _, src := range []int{0, 1, 2, 3} {
		flows = append(flows, r.StartFlow(tp.Hosts[src], dst, 120*1460, ""))
	}
	s.Run()
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d stuck at %d bytes", i, f.AckedBytes())
		}
	}
	if n.Hops.TotalDrops() == 0 {
		t.Fatal("expected drops with cap-4 queues under 4:1 incast")
	}
	t.Logf("drops=%d retx=%d timeouts=%d", n.Hops.TotalDrops(),
		r.Stats.Retransmits, r.Stats.Timeouts)
}

// TestRTOFloor holds the retransmission timer to its 1ms floor: on this
// testbed a 100-segment flow's smoothed RTT settles in the tens of
// microseconds, so the estimator alone would arm a timer far shorter than
// minRTO.
func TestRTOFloor(t *testing.T) {
	s, _, r, tp := testbed(t, lb.ECMP{}, Config{})
	f := r.StartFlow(tp.Hosts[0], tp.Hosts[4], 100*1460, "")
	s.Run()
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if est := f.srtt + 4*f.rttvar; f.srtt <= 0 || est >= minRTO {
		t.Fatalf("srtt=%v rttvar=%v: the estimate %v does not sit below the floor", f.srtt, f.rttvar, est)
	}
	if f.rto != minRTO {
		t.Fatalf("rto = %v with srtt %v, want the %v floor", f.rto, f.srtt, minRTO)
	}
	t.Logf("srtt=%v rttvar=%v rto=%v", f.srtt, f.rttvar, f.rto)
}

func TestElephantThroughputApproachesLine(t *testing.T) {
	s, _, r, tp := testbed(t, lb.ECMP{}, Config{})
	f := r.StartFlow(tp.Hosts[0], tp.Hosts[4], -1, "elephant")
	horizon := 4 * units.Millisecond
	s.RunUntil(horizon)
	gbps := float64(f.AckedBytes()) * 8 / horizon.Seconds() / 1e9
	// One 10G host link, minus header overhead and slow-start ramp.
	if gbps < 7.5 || gbps > 10.01 {
		t.Fatalf("elephant goodput %.2f Gbps, want ~9.6", gbps)
	}
}

func TestWarmupExclusion(t *testing.T) {
	s, _, r, tp := testbed(t, lb.ECMP{}, Config{})
	r.MeasureFrom = 1 * units.Millisecond
	r.StartFlow(tp.Hosts[0], tp.Hosts[4], 1460, "") // warm-up flow
	s.At(2*units.Millisecond, func() {
		r.StartFlow(tp.Hosts[1], tp.Hosts[5], 1460, "")
	})
	s.Run()
	if r.Stats.FCT.Count() != 1 {
		t.Fatalf("measured FCTs = %d, want 1 (warm-up excluded)", r.Stats.FCT.Count())
	}
}

func TestGROBatchAccounting(t *testing.T) {
	s, _, r, tp := testbed(t, lb.ECMP{}, Config{TrackGRO: true})
	r.StartFlow(tp.Hosts[0], tp.Hosts[4], 200*1460, "")
	s.Run()
	if r.Stats.GROSegments < 200 {
		t.Fatalf("GRO segments = %d", r.Stats.GROSegments)
	}
	if r.Stats.GROBatches == 0 || r.Stats.GROBatches > r.Stats.GROSegments {
		t.Fatalf("GRO batches = %d (segments %d)", r.Stats.GROBatches, r.Stats.GROSegments)
	}
	// In-order delivery: batches ≈ bytes / 64KiB.
	wantMax := int64(200*1460/65536) + 2
	if r.Stats.GROBatches > wantMax {
		t.Fatalf("too many batches for in-order flow: %d > %d", r.Stats.GROBatches, wantMax)
	}
}

func TestFlowToSelfPanics(t *testing.T) {
	_, _, r, tp := testbed(t, lb.ECMP{}, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for self-flow")
		}
	}()
	r.StartFlow(tp.Hosts[0], tp.Hosts[0], 100, "")
}

func TestFlowHashStable(t *testing.T) {
	h1 := flowHash(5, 2, 9)
	h2 := flowHash(5, 2, 9)
	if h1 != h2 {
		t.Fatal("flow hash not deterministic")
	}
	if flowHash(6, 2, 9) == h1 {
		t.Fatal("flow hash ignores flow id")
	}
}

// TestNoStaleRTOEventsAtCompletion is the regression test for the
// one-timer-per-flow RTO design. Every ACK re-arms the retransmission
// timer; the old arm-by-closure scheme left one dead heap entry per ACK,
// so a 400-packet flow finished with ~400 stale events still pending.
// Reset now moves the flow's single timer entry in place, so the instant a
// flow completes the heap holds only the handful of in-flight data-plane
// events — and the flow's timer is disarmed.
func TestNoStaleRTOEventsAtCompletion(t *testing.T) {
	s, _, r, tp := testbed(t, lb.ECMP{}, Config{})
	const pkts = 400
	var pendingAtDone int
	r.OnComplete = func(f *Sender) {
		if f.rtoTimer.Armed() {
			t.Error("RTO timer still armed at flow completion")
		}
		pendingAtDone = s.Pending()
	}
	f := r.StartFlow(tp.Hosts[0], tp.Hosts[4], pkts*1460, "")
	s.Run()
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	// Generous bound: the tail of the ACK path may still be in flight, but
	// nothing proportional to the flow length.
	if pendingAtDone > 16 {
		t.Fatalf("%d events pending at flow completion; want O(1), not O(packets) — stale RTO closures are accumulating again", pendingAtDone)
	}
	// With the whole simulation drained, the heap must be empty: Stop()
	// removes timer entries instead of abandoning them.
	if s.Pending() != 0 {
		t.Fatalf("%d events pending after Run drained", s.Pending())
	}
}

// TestFinishedFlowsLeaveNoSlots: senders and receivers live in slots
// indexed by flow ID. A sender's slot is cleared when its flow finishes
// and a receiver's when it closes, so no finished flow stays reachable
// from the registry, while a flow still running keeps both endpoints.
func TestFinishedFlowsLeaveNoSlots(t *testing.T) {
	s, _, r, tp := testbed(t, lb.NewDRILL(), Config{ShimTimeout: 100 * units.Microsecond})
	var done []*Sender
	for i := 0; i < 6; i++ {
		done = append(done, r.StartFlow(tp.Hosts[i%4], tp.Hosts[4+i%4], int64(20_000*(i+1)), ""))
	}
	live := r.StartFlow(tp.Hosts[1], tp.Hosts[6], -1, "elephant")
	s.RunUntil(2 * units.Millisecond)
	for _, f := range done {
		if !f.Done() {
			t.Fatalf("flow %d unfinished", f.ID())
		}
		if r.senders[f.ID()] != nil || r.receivers[f.ID()] != nil {
			t.Errorf("finished flow %d still in its slots: sender %v, receiver %v",
				f.ID(), r.senders[f.ID()] != nil, r.receivers[f.ID()] != nil)
		}
	}
	if r.senders[live.ID()] != live || r.receivers[live.ID()] == nil {
		t.Errorf("running flow %d lost an endpoint: sender %v, receiver %v",
			live.ID(), r.senders[live.ID()] != nil, r.receivers[live.ID()] != nil)
	}
	if want := len(done) + 2; len(r.senders) != want || len(r.receivers) != want {
		t.Errorf("%d sender and %d receiver slots for %d flows, want %d each (slot 0 unused)",
			len(r.senders), len(r.receivers), len(done)+1, want)
	}
}
