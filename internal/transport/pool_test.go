package transport

import (
	"testing"

	"drill/internal/fabric"
	"drill/internal/lb"
	"drill/internal/units"
)

// TestFlowAllocs: once a first flow has left its receiver and RTO timer in
// the pool, each further flow between two hosts allocates only its
// handle, the Sender, with the shim on or off. Without the pool a flow
// made 6 allocations with the shim, 4 without and 7 with GRO as well.
func TestFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"shim", Config{ShimTimeout: 100 * units.Microsecond}},
		{"no shim", Config{}},
		{"shim and GRO", Config{ShimTimeout: 100 * units.Microsecond, TrackGRO: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, r, tp := testbed(t, lb.ECMP{}, tc.cfg)
			flow := func() {
				f := r.StartFlow(tp.Hosts[0], tp.Hosts[4], 100*1460, "")
				s.Run()
				if !f.Done() {
					t.Fatal("flow did not complete")
				}
			}
			flow()
			if got := testing.AllocsPerRun(50, flow); got != 1 {
				t.Errorf("a flow allocates %v times after the first, want 1 (its handle)", got)
			}
		})
	}
}

// TestFinishedFlowsAreReused: a finished flow's RTO timer and its closed
// receiver serve the next flow of their shard, between other hosts, while
// the finished flow's handle keeps answering.
func TestFinishedFlowsAreReused(t *testing.T) {
	s, _, r, tp := testbed(t, lb.ECMP{}, Config{ShimTimeout: 100 * units.Microsecond, TrackGRO: true})
	var timer *flowTimer
	r.OnComplete = func(f *Sender) { timer = f.rtoTimer }
	first := r.StartFlow(tp.Hosts[0], tp.Hosts[4], 50*1460, "")
	s.Run()
	pool := r.agents[tp.Hosts[4]].pool
	if len(pool.receivers) != 1 || len(pool.timers) != 1 || pool.timers[0] != timer {
		t.Fatalf("pool holds %d receivers and %d timers, want the first flow's one of each",
			len(pool.receivers), len(pool.timers))
	}
	rcv := pool.receivers[0]
	second := r.StartFlow(tp.Hosts[1], tp.Hosts[5], 20*1460, "")
	if second.rtoTimer != timer || timer.s != second {
		t.Error("the second flow did not take the first one's RTO timer")
	}
	s.Run()
	if len(pool.receivers) != 1 || pool.receivers[0] != rcv {
		t.Error("the second flow did not take and return the first one's receiver")
	}
	if !first.Done() || first.AckedBytes() != 50*1460 || first.FCT() <= 0 || first.rtoTimer != nil {
		t.Errorf("the first handle changed: done %v, acked %d, FCT %v, timer kept %v",
			first.Done(), first.AckedBytes(), first.FCT(), first.rtoTimer != nil)
	}
	if !second.Done() || r.Stats.FlowsFinished != 2 || r.Stats.GROSegments < 70 {
		t.Errorf("second flow done %v, %d finished, %d GRO segments", second.Done(),
			r.Stats.FlowsFinished, r.Stats.GROSegments)
	}
}

// TestPoolRefusesBusyObjects: the pool panics, as a second PacketPool.Put
// does, on a receiver whose shim still holds a segment with its hold
// armed, and on an RTO timer that is still armed.
func TestPoolRefusesBusyObjects(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("returning %s did not panic", what)
			}
		}()
		fn()
	}
	_, n, r, tp := testbed(t, lb.ECMP{}, Config{ShimTimeout: 100 * units.Microsecond})
	f := r.StartFlow(tp.Hosts[0], tp.Hosts[4], 10*1460, "")
	a := r.agents[tp.Hosts[4]]
	a.HandlePacket(n.Host(tp.Hosts[4]), &fabric.Packet{FlowID: f.ID(), Kind: fabric.Data,
		Src: tp.Hosts[0], Dst: tp.Hosts[4], Seq: 1460, Len: 1460, AckNo: 10 * 1460})
	rcv := r.receivers[f.ID()]
	if rcv == nil || rcv.shim.Held() != 1 || rcv.shim.Idle() {
		t.Fatal("the out-of-order segment was not held")
	}
	mustPanic("a receiver whose shim holds a segment", func() { a.pool.putReceiver(rcv) })
	if !f.rtoTimer.Armed() {
		t.Fatal("a flow with data in flight has no RTO armed")
	}
	mustPanic("an armed RTO timer", func() { a.pool.putTimer(f.rtoTimer) })
}
