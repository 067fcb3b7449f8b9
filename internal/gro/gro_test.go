package gro

import (
	"fmt"
	"testing"

	"drill/internal/units"
)

// fakeClock runs timers manually and counts what they arm.
type fakeClock struct {
	now    units.Time
	timers []*fakeTimer
	resets int // Reset calls across every timer
}

// fakeTimer is one re-armable timer of a fakeClock.
type fakeTimer struct {
	c     *fakeClock
	fn    func()
	at    units.Time
	armed bool
}

func (c *fakeClock) NewTimer(fn func()) Timer {
	t := &fakeTimer{c: c, fn: fn}
	c.timers = append(c.timers, t)
	return t
}

func (t *fakeTimer) Reset(d units.Time) {
	t.at, t.armed = t.c.now+d, true
	t.c.resets++
}

func (t *fakeTimer) Stop() bool {
	was := t.armed
	t.armed = false
	return was
}

// armed counts the timers armed now: the events a scheduler would hold.
func (c *fakeClock) armed() int {
	n := 0
	for _, t := range c.timers {
		if t.armed {
			n++
		}
	}
	return n
}

// advance moves the clock to `to`, firing the timers due by then.
func (c *fakeClock) advance(to units.Time) {
	c.now = to
	for _, t := range c.timers {
		if t.armed && t.at <= to {
			t.armed = false
			t.fn()
		}
	}
}

func seg(seq int64, l int32) Segment { return Segment{Seq: seq, Len: l} }

func collect(out *[]int64) func(Segment) {
	return func(s Segment) { *out = append(*out, s.Seq) }
}

func TestReordererInOrderPassThrough(t *testing.T) {
	var got []int64
	c := &fakeClock{}
	r := NewReorderer(c, 100, collect(&got))
	for i := int64(0); i < 5; i++ {
		r.Push(seg(i*100, 100))
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d", len(got))
	}
	if r.Held() != 0 || r.Flushes != 0 {
		t.Fatalf("held=%d flushes=%d", r.Held(), r.Flushes)
	}
}

func TestReordererRestoresOrder(t *testing.T) {
	var got []int64
	c := &fakeClock{}
	r := NewReorderer(c, 100, collect(&got))
	r.Push(seg(0, 100))
	r.Push(seg(200, 100)) // gap at 100
	r.Push(seg(300, 100))
	if len(got) != 1 {
		t.Fatalf("delivered early: %v", got)
	}
	r.Push(seg(100, 100)) // gap fills
	want := []int64{0, 100, 200, 300}
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if r.Expected() != 400 {
		t.Fatalf("expected = %d", r.Expected())
	}
}

func TestReordererTimeoutFlush(t *testing.T) {
	var got []int64
	c := &fakeClock{}
	r := NewReorderer(c, 50, collect(&got))
	r.Push(seg(0, 100))
	r.Push(seg(300, 100))
	r.Push(seg(200, 100))
	c.advance(49)
	if len(got) != 1 {
		t.Fatalf("flushed early: %v", got)
	}
	c.advance(50)
	// Flushed in order despite the hole at 100.
	want := []int64{0, 200, 300}
	if len(got) != 3 || got[1] != 200 || got[2] != 300 {
		t.Fatalf("got %v, want %v", got, want)
	}
	if r.Flushes != 1 {
		t.Fatalf("flushes = %d", r.Flushes)
	}
	// Late retransmission of the hole is still delivered (as a duplicate
	// below Expected? no — 100 < expected 400, delivered for dup-ACK).
	r.Push(seg(100, 100))
	if len(got) != 4 || got[3] != 100 {
		t.Fatalf("late fill not delivered: %v", got)
	}
}

func TestReordererDuplicatesPassThrough(t *testing.T) {
	var got []int64
	c := &fakeClock{}
	r := NewReorderer(c, 100, collect(&got))
	r.Push(seg(0, 100))
	r.Push(seg(0, 100)) // spurious retransmission
	if len(got) != 2 {
		t.Fatalf("duplicate swallowed: %v", got)
	}
	// Buffered duplicate is dropped (only one copy kept).
	r.Push(seg(200, 100))
	r.Push(seg(200, 100))
	if r.Held() != 1 {
		t.Fatalf("held = %d, want 1", r.Held())
	}
}

func TestReordererZeroTimeoutDisabled(t *testing.T) {
	var got []int64
	c := &fakeClock{}
	r := NewReorderer(c, 0, collect(&got))
	r.Push(seg(200, 100))
	r.Push(seg(0, 100))
	if len(got) != 2 || got[0] != 200 {
		t.Fatalf("pass-through broken: %v", got)
	}
}

func TestReordererTimerRearmsAfterProgress(t *testing.T) {
	var got []int64
	c := &fakeClock{}
	r := NewReorderer(c, 50, collect(&got))
	r.Push(seg(100, 100)) // hole at 0
	c.advance(30)
	r.Push(seg(0, 100)) // fills; drains both
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	r.Push(seg(300, 100)) // new hole at 200
	c.advance(60)         // old timer (armed at 0, due 50) must not flush the new hole early
	if r.Flushes != 0 && len(got) != 2 {
		t.Fatalf("stale timer flushed: flushes=%d got=%v", r.Flushes, got)
	}
	c.advance(80) // new timer due at 30+? — armed at push time 30? no: at 60. due 110.
	c.advance(110)
	if len(got) != 3 {
		t.Fatalf("timeout flush missing: %v", got)
	}
}

func TestBatcherInOrder(t *testing.T) {
	b := NewBatcher()
	// 100 in-order 1460B segments: 64KiB threshold → ceil(146000/65536)=3 batches.
	for i := 0; i < 100; i++ {
		b.Push(int64(i)*1460, 1460)
	}
	b.Close()
	if b.Segments != 100 {
		t.Fatalf("segments = %d", b.Segments)
	}
	want := int64(3)
	if b.Batches != want {
		t.Fatalf("batches = %d, want %d", b.Batches, want)
	}
}

func TestBatcherReorderingIncreasesBatches(t *testing.T) {
	inOrder := NewBatcher()
	for i := 0; i < 40; i++ {
		inOrder.Push(int64(i)*1460, 1460)
	}
	inOrder.Close()

	reordered := NewBatcher()
	for i := 0; i < 40; i += 2 { // swap every pair
		reordered.Push(int64(i+1)*1460, 1460)
		reordered.Push(int64(i)*1460, 1460)
	}
	reordered.Close()
	if reordered.Batches <= inOrder.Batches {
		t.Fatalf("reordering should increase batches: %d vs %d",
			reordered.Batches, inOrder.Batches)
	}
}

// TestReordererHoldLeavesNoTimer: a hold that its gap filling disarms
// leaves nothing armed, so a scheduler keeps no dead event for it, and the
// receiver holds one timer however many holds it makes. Flushes stay
// where the timeouts put them.
func TestReordererHoldLeavesNoTimer(t *testing.T) {
	var got []int64
	c := &fakeClock{}
	r := NewReorderer(c, 50, collect(&got))
	for i := int64(0); i < 10; i++ {
		base := 200 * i
		r.Push(seg(base+100, 100)) // hole at base: a hold
		if c.armed() != 1 {
			t.Fatalf("hold %d: %d timers armed, want 1", i, c.armed())
		}
		c.advance(c.now + 10)
		r.Push(seg(base, 100)) // the gap fills: the hold ends
		if c.armed() != 0 {
			t.Fatalf("hold %d: %d timers armed after the gap filled, want 0", i, c.armed())
		}
	}
	if len(c.timers) != 1 || c.resets != 10 || r.Flushes != 0 || len(got) != 20 {
		t.Fatalf("%d timers, %d resets, %d flushes, %d delivered; want 1, 10, 0, 20",
			len(c.timers), c.resets, r.Flushes, len(got))
	}
	// A hold the gap does not fill still flushes at its timeout.
	r.Push(seg(2100, 100))
	c.advance(c.now + 50)
	if r.Flushes != 1 || c.armed() != 0 || len(got) != 21 {
		t.Fatalf("timeout: %d flushes, %d armed, %d delivered; want 1, 0, 21", r.Flushes, c.armed(), len(got))
	}
}

// TestReordererReset: a shim reset after serving one flow behaves as a new
// one for the next (the same deliveries, holds and flushes) and keeps its
// one timer. Resetting a shim that holds a segment, and so has a hold
// armed, panics.
func TestReordererReset(t *testing.T) {
	play := func(r *Reorderer, c *fakeClock) {
		r.Push(seg(0, 100))
		r.Push(seg(300, 100)) // a hold
		r.Push(seg(100, 100)) // drains to 200; the hold goes on for 200
		c.advance(c.now + 60) // the flush
		r.Push(seg(200, 100)) // late, below expected
		r.Push(seg(500, 100)) // a new hold, filled
		r.Push(seg(400, 100))
	}
	var fresh, reused []int64
	c1 := &fakeClock{}
	r1 := NewReorderer(c1, 50, collect(&fresh))
	play(r1, c1)

	c2 := &fakeClock{}
	r2 := NewReorderer(c2, 50, collect(&reused))
	r2.Push(seg(200, 100)) // another flow: held, then flushed
	c2.advance(60)
	r2.Push(seg(0, 100))
	if !r2.Idle() || r2.Flushes != 1 {
		t.Fatalf("the first flow left idle %v, %d flushes", r2.Idle(), r2.Flushes)
	}
	r2.Reset()
	if r2.Expected() != 0 || r2.Held() != 0 || r2.Flushes != 0 {
		t.Fatalf("reset shim: expected %d, held %d, flushes %d", r2.Expected(), r2.Held(), r2.Flushes)
	}
	reused = reused[:0]
	c2.now = 0 // where the new shim's run started
	play(r2, c2)
	if fmt.Sprint(fresh) != fmt.Sprint(reused) || r1.Flushes != r2.Flushes || r1.Expected() != r2.Expected() {
		t.Fatalf("reset shim delivered %v (%d flushes, expected %d), a new one %v (%d, %d)",
			reused, r2.Flushes, r2.Expected(), fresh, r1.Flushes, r1.Expected())
	}
	if len(c2.timers) != 1 {
		t.Fatalf("the reset shim made %d timers, want its one", len(c2.timers))
	}

	r2.Push(seg(700, 100)) // held: the hold is armed
	defer func() {
		if recover() == nil {
			t.Error("Reset of a shim holding a segment did not panic")
		}
	}()
	r2.Reset()
}
