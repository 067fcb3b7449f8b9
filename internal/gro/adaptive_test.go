package gro

import (
	"testing"

	"drill/internal/units"
)

func TestAdaptiveShrinkToFastSkew(t *testing.T) {
	var got []int64
	c := &fakeClock{}
	a := NewAdaptiveReorderer(c, 200*units.Microsecond, 10*units.Microsecond,
		500*units.Microsecond, collect(&got))
	// Repeated short reorderings: gap fills after 5µs each time.
	seq := int64(0)
	for round := 0; round < 40; round++ {
		a.Push(seg(seq+100, 100)) // hole at seq
		c.advance(c.now + 5*units.Microsecond)
		a.Push(seg(seq, 100)) // fill
		seq += 200
	}
	if a.CurrentHold() > 60*units.Microsecond {
		t.Fatalf("hold did not adapt down: %v", a.CurrentHold())
	}
	if a.r.Flushes != 0 {
		t.Fatalf("spurious flushes: %d", a.r.Flushes)
	}
	if len(got) != 80 {
		t.Fatalf("delivered %d", len(got))
	}
}

func TestAdaptiveClamps(t *testing.T) {
	c := &fakeClock{}
	a := NewAdaptiveReorderer(c, 1*units.Microsecond, 20*units.Microsecond,
		100*units.Microsecond, func(Segment) {})
	if a.CurrentHold() != 20*units.Microsecond {
		t.Fatalf("hold below min: %v", a.CurrentHold())
	}
	a.skewEst = float64(10 * units.Millisecond)
	a.r.timeout = a.hold()
	if a.CurrentHold() != 100*units.Microsecond {
		t.Fatalf("hold above max: %v", a.CurrentHold())
	}
}

func TestAdaptiveLossStillFlushes(t *testing.T) {
	var got []int64
	c := &fakeClock{}
	a := NewAdaptiveReorderer(c, 30*units.Microsecond, 10*units.Microsecond,
		100*units.Microsecond, collect(&got))
	a.Push(seg(0, 100))
	a.Push(seg(200, 100)) // hole at 100 — lost, never fills
	c.advance(c.now + 200*units.Microsecond)
	if a.r.Flushes != 1 {
		t.Fatalf("flushes = %d", a.r.Flushes)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
}

func TestAdaptiveInOrderUntouched(t *testing.T) {
	var got []int64
	c := &fakeClock{}
	a := NewAdaptiveReorderer(c, 30*units.Microsecond, 10*units.Microsecond,
		100*units.Microsecond, collect(&got))
	for i := int64(0); i < 10; i++ {
		a.Push(seg(i*100, 100))
	}
	if len(got) != 10 || a.Held() != 0 {
		t.Fatalf("in-order path broken: %d delivered, %d held", len(got), a.Held())
	}
	if a.Expected() != 1000 {
		t.Fatalf("expected = %d", a.Expected())
	}
}
