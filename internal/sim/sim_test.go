package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"drill/internal/units"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var trace []units.Time
	s.At(10, func() {
		trace = append(trace, s.Now())
		s.After(5, func() { trace = append(trace, s.Now()) })
		s.At(12, func() { trace = append(trace, s.Now()) })
	})
	s.Run()
	want := []units.Time{10, 12, 15}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New(1)
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	fired := make(map[units.Time]bool)
	for _, at := range []units.Time{5, 10, 15, 20} {
		at := at
		s.At(at, func() { fired[at] = true })
	}
	s.RunUntil(12)
	if !fired[5] || !fired[10] || fired[15] {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 12 {
		t.Fatalf("clock = %v, want 12", s.Now())
	}
	s.RunUntil(25)
	if !fired[15] || !fired[20] {
		t.Fatalf("fired = %v", fired)
	}
}

func TestHeapProperty(t *testing.T) {
	// Property: any random multiset of times is dispatched in sorted order.
	f := func(times []uint16) bool {
		s := New(7)
		var got []units.Time
		for _, v := range times {
			at := units.Time(v)
			s.At(at, func() { got = append(got, at) })
		}
		s.Run()
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) &&
			len(got) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		s := New(42)
		rng := s.Stream(3)
		var got []int
		var rec func()
		n := 0
		rec = func() {
			got = append(got, rng.Intn(1000))
			n++
			if n < 50 {
				s.After(units.Time(rng.Intn(100)+1), rec)
			}
		}
		s.At(0, rec)
		s.Run()
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	s := New(9)
	a, b := s.Stream(1), s.Stream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Intn(1<<30) == b.Intn(1<<30) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams look correlated: %d/100 identical draws", same)
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var ticks []units.Time
	tick := NewObserverTicker(s, 10, func(now units.Time) { ticks = append(ticks, now) })
	s.RunUntil(55)
	tick.Stop()
	s.Run()
	want := []units.Time{10, 20, 30, 40, 50}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tick *Ticker
	tick = NewObserverTicker(s, 5, func(units.Time) {
		n++
		if n == 2 {
			tick.Stop()
		}
	})
	// The stopping tick arms no further one: the sampler that stops at the
	// end of its window leaves no tick behind to bound a shard window.
	s.RunUntil(10)
	if p := s.Pending(); p != 0 {
		t.Fatalf("the stopping tick left %d events pending, want 0", p)
	}
	s.RunUntil(100)
	if n != 2 {
		t.Fatalf("ticks after stop: n = %d, want 2", n)
	}
}

func TestTimerFires(t *testing.T) {
	s := New(1)
	var at units.Time = -1
	tm := s.NewTimer(func() { at = s.Now() })
	tm.Reset(7)
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	s.Run()
	if at != 7 {
		t.Fatalf("timer fired at %v, want 7", at)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerResetMovesSingleEntry(t *testing.T) {
	// The cancellable-timer contract: any number of re-arms holds exactly
	// one live heap entry, and only the final deadline fires.
	s := New(1)
	fires := 0
	tm := s.NewTimer(func() { fires++ })
	for i := 0; i < 1000; i++ {
		tm.Reset(units.Time(10 + i))
		if got := s.Pending(); got != 1 {
			t.Fatalf("after %d resets Pending() = %d, want 1", i+1, got)
		}
	}
	s.Run()
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1", fires)
	}
	if s.Now() != 1009 {
		t.Fatalf("fired at %v, want the final deadline 1009", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.NewTimer(func() { fired = true })
	if tm.Stop() {
		t.Fatal("stopping an unarmed timer reported a cancellation")
	}
	tm.Reset(5)
	if !tm.Stop() {
		t.Fatal("Stop did not report cancelling an armed timer")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0 (entry removed eagerly)", s.Pending())
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	// A stopped timer can be re-armed.
	tm.Reset(3)
	s.Run()
	if !fired {
		t.Fatal("re-armed timer did not fire")
	}
}

func TestTimerEarlierReset(t *testing.T) {
	// Resetting to an earlier deadline must sift the entry up, not down.
	s := New(1)
	var got []units.Time
	tm := s.NewTimer(func() { got = append(got, s.Now()) })
	s.At(50, func() { got = append(got, s.Now()) })
	tm.Reset(100)
	tm.Reset(5)
	s.Run()
	if len(got) != 2 || got[0] != 5 || got[1] != 50 {
		t.Fatalf("dispatch order = %v, want [5 50]", got)
	}
}

func TestTimerFIFOTieBreakOnReset(t *testing.T) {
	// A reset takes a fresh sequence number: at an equal deadline the timer
	// fires after events that were scheduled before the reset.
	s := New(1)
	var got []string
	s.At(10, func() { got = append(got, "event") })
	tm := s.NewTimer(func() { got = append(got, "timer") })
	tm.Reset(10)
	s.Run()
	if len(got) != 2 || got[0] != "event" || got[1] != "timer" {
		t.Fatalf("tie-break order = %v, want [event timer]", got)
	}
}

func TestTimerHeapIntegrity(t *testing.T) {
	// Property: interleaving plain events with timer resets/stops preserves
	// dispatch order and never corrupts the index-tracked heap.
	f := func(ops []uint16) bool {
		s := New(11)
		var got []units.Time
		timers := make([]*Timer, 4)
		for i := range timers {
			timers[i] = s.NewTimer(func() { got = append(got, s.Now()) })
		}
		for _, op := range ops {
			tm := timers[int(op)%len(timers)]
			switch d := units.Time(op >> 4); op % 3 {
			case 0:
				s.At(s.Now()+d, func() { got = append(got, s.Now()) })
			case 1:
				tm.Reset(d)
			case 2:
				tm.Stop()
			}
		}
		s.Run()
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) &&
			s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetAllocs(t *testing.T) {
	// The re-arm path must be allocation-free: Reset moves the existing heap
	// entry (or reuses the timer's one closure) rather than capturing a new
	// closure per arm. Warm the heap first so append growth is excluded.
	s := New(1)
	tm := s.NewTimer(func() {})
	tm.Reset(1)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(5)
		tm.Stop()
	})
	if allocs != 0 {
		t.Fatalf("Reset+Stop allocates %v per op, want 0", allocs)
	}
}

func BenchmarkTimerReset(b *testing.B) {
	s := New(1)
	tm := s.NewTimer(func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(units.Time(i%97 + 1))
	}
	tm.Stop()
}

func BenchmarkScheduler(b *testing.B) {
	s := New(1)
	rng := rand.New(rand.NewSource(2))
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			s.After(units.Time(rng.Intn(50)+1), next)
		}
	}
	b.ResetTimer()
	s.At(0, next)
	s.Run()
}

func TestObserverEventsInvisibleToAccounting(t *testing.T) {
	// The same workload with and without an observer ticker must report the
	// same Executed count: observer dispatches are excluded, which is what
	// lets a metrics-enabled run stay byte-identical to a metrics-free one.
	run := func(observe bool) (executed uint64, ticks int) {
		s := New(7)
		if observe {
			NewObserverTicker(s, 3, func(units.Time) { ticks++ })
		}
		var next func()
		i := 0
		next = func() {
			if i++; i < 50 {
				s.After(2, next)
			}
		}
		s.At(0, next)
		s.RunUntil(120)
		return s.Executed, ticks
	}
	plain, _ := run(false)
	observed, ticks := run(true)
	if plain != observed {
		t.Fatalf("Executed with observer ticker = %d, without = %d; observer events must not count", observed, plain)
	}
	if want := 120 / 3; ticks != want {
		t.Fatalf("observer ticks = %d, want %d", ticks, want)
	}
}

func TestObserverEventsDoNotBlockDrain(t *testing.T) {
	s := New(1)
	NewObserverTicker(s, 5, func(units.Time) {})
	done := false
	s.After(12, func() { done = true })
	s.Run() // must return once only observer ticks remain
	if !done {
		t.Fatal("real event did not run")
	}
	if s.Now() != 12 {
		t.Fatalf("drained at t=%v, want 12 (observer ticks alone must not keep Run alive)", s.Now())
	}
}

func TestObserverTickerStop(t *testing.T) {
	s := New(1)
	ticks := 0
	var tk *Ticker
	tk = NewObserverTicker(s, 2, func(now units.Time) {
		ticks++
		if now >= 6 {
			tk.Stop()
		}
	})
	s.After(40, func() {})
	s.Run()
	if ticks != 3 {
		t.Fatalf("ticks after Stop = %d, want 3", ticks)
	}
}

// TestKeyClassesOrderDepartures pins where a departure sorts among
// same-time events: after every global and local key, before every
// arrival. Departures are settled when read, and the fabric's results rest
// on that slot: a packet forwarded onto a port by a same-time arrival must
// queue behind the packet that finished serializing at that instant, and
// a departure key sorting after arrivals moved every bench golden. The
// wake-up that dispatches under a departure key is silent: Executed
// leaves it out, so it changes no event count.
func TestKeyClassesOrderDepartures(t *testing.T) {
	const maxPort, maxN = 1<<25 - 1, 1<<34 - 1
	if DepartKey(maxPort, maxN) >= ArrivalKey(0, 0) {
		t.Fatalf("departure key %#x sorts at or after arrival key %#x", DepartKey(maxPort, maxN), ArrivalKey(0, 0))
	}
	s := New(1)
	var got []string
	s.OnPort(func(port int32, arrival bool) {
		if arrival {
			got = append(got, "arrival")
		} else {
			got = append(got, "depart")
		}
	})
	const at = 100
	// Scheduled in reverse class order, so sequence numbers favour the
	// later classes: only the class bits can put them right.
	s.AtPort(at, ArrivalKey(0, 0), 0)
	s.AtPort(at, DepartKey(maxPort, maxN), maxPort)
	s.At(at, func() { got = append(got, "local") })
	reserved := s.ReserveKey(at)
	s.AtGlobal(at, func() { got = append(got, "global") })
	s.At(at-1, func() {
		if s.Reached(at, DepartKey(0, 0)) {
			t.Error("a departure at a later instant already reached")
		}
	})
	s.Run()
	want := []string{"global", "local", "depart", "arrival"}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
	if reserved >= DepartKey(0, 0) {
		t.Fatalf("reserved local key %#x sorts at or after departure key %#x", reserved, DepartKey(0, 0))
	}
	if s.Executed != 4 {
		t.Fatalf("Executed = %d, want 4: the departure wake-up must be silent", s.Executed)
	}
	if !s.Reached(at, DepartKey(maxPort, maxN)) {
		t.Fatal("departure not reached after its instant drained")
	}
}
