package sim

import (
	"testing"

	"drill/internal/units"
)

// TestShardGroupFrontier pins where the window protocol leaves each
// shard's dispatch frontier, as seen by the global events at a barrier
// and by readers after RunUntil returns: parked at the start of the
// barrier instant while its globals run (they sort before every shard
// event there), over all of the horizon after the final pass — idle
// shards included — and at the horizon's start when the loop found
// nothing to run before it.
func TestShardGroupFrontier(t *testing.T) {
	g := &ShardGroup{Global: New(1), Lookahead: 64}
	s0, s1 := New(1), New(1)
	g.Shards = []*Sim{s0, s1}
	g.Exchange = func() {}

	var at150, at1000, at1500 uint64
	s0.At(100, func() { at150 = s0.ReserveKey(150) })
	s0.At(1000, func() { at1500 = s0.ReserveKey(1500) })
	s1.At(900, func() { at1000 = s1.ReserveKey(1000) })
	const all = ^uint64(0)

	var checks int
	expect := func(what string, s *Sim, at units.Time, key uint64, want bool) {
		checks++
		if got := s.Reached(at, key); got != want {
			t.Errorf("%s: Reached(%d, %#x) = %v, want %v", what, at, key, got, want)
		}
	}
	g.Global.AtGlobal(150, func() {
		expect("global at the update's instant", s0, 150, at150, false)
		expect("global at the update's instant, earlier instant", s0, 149, all, true)
	})
	g.Global.AtGlobal(200, func() {
		expect("global after the update's instant", s0, 150, at150, true)
	})
	g.Global.AtGlobal(2000, func() {
		expect("global at the horizon, idle shard", s0, 1500, at1500, true)
		expect("global at the horizon, its own instant", s0, 2000, 1, false)
	})

	g.Start()
	defer g.Close()
	g.RunUntil(1000)
	// The final pass covers all of the horizon on every shard: s1 was idle
	// at 1000 but holds an update reserved for exactly then.
	expect("after RunUntil, idle shard", s1, 1000, at1000, true)
	expect("after RunUntil, busy shard", s0, 1000, all-1, true)
	// Nothing is pending anywhere before 2000: the window loop runs no
	// window, and the shards must still be parked at 2000 for its global.
	g.RunUntil(2000)
	if checks != 7 {
		t.Fatalf("%d frontier checks ran, want 7", checks)
	}
}
