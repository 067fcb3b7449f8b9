package gro

import "drill/internal/units"

// AdaptiveReorderer wraps Reorderer with a Juggler-style adaptive hold
// timeout: it tracks how long genuinely-late packets (gap fills) actually
// took to arrive and sets the hold to a small multiple of that estimate,
// clamped to [Min, Max]. Genuine reordering skew (queueing differences,
// tens of µs) is waited out; losses — which never fill the gap — only
// stall the flow for the current estimate instead of a worst-case constant.
//
// This is the extension the paper's §3.3 alludes to via [35] (Juggler):
// "recent proposals for handling reordering at the end hosts."
type AdaptiveReorderer struct {
	r *Reorderer

	// Min and Max clamp the adaptive hold.
	Min, Max units.Time
	// Mult scales the skew estimate into a hold timeout.
	Mult int

	clock Clock
	// skewEst is an EWMA of observed fill delays.
	skewEst float64

	// holdStart tracks when the current gap opened, to measure fill delay.
	holdStart units.Time
}

// NewAdaptiveReorderer returns an adaptive shim starting from an initial
// hold of start, clamped to [min, max].
func NewAdaptiveReorderer(clock Clock, start, min, max units.Time, deliver func(Segment)) *AdaptiveReorderer {
	a := &AdaptiveReorderer{
		Min: min, Max: max, Mult: 2,
		clock:   clock,
		skewEst: float64(start),
	}
	a.r = NewReorderer(clock, a.hold(), deliver)
	return a
}

func (a *AdaptiveReorderer) hold() units.Time {
	h := units.Time(a.skewEst) * units.Time(a.Mult)
	if h < a.Min {
		h = a.Min
	}
	if h > a.Max {
		h = a.Max
	}
	return h
}

// Expected returns the next in-order sequence number.
func (a *AdaptiveReorderer) Expected() int64 { return a.r.Expected() }

// Held returns the number of buffered segments.
func (a *AdaptiveReorderer) Held() int { return a.r.Held() }

// CurrentHold reports the adaptive hold in effect.
func (a *AdaptiveReorderer) CurrentHold() units.Time { return a.r.timeout }

// Push accepts one segment, adapting the hold from observed fill delays.
func (a *AdaptiveReorderer) Push(s Segment) {
	wasHolding := a.r.Held() > 0
	if !wasHolding {
		a.holdStart = a.clock.Now()
	}
	fillsGap := wasHolding && s.Seq <= a.r.Expected()
	a.r.Push(s)
	if fillsGap && a.r.Held() == 0 {
		// The gap closed: the fill delay is a genuine skew sample.
		delay := float64(a.clock.Now() - a.holdStart)
		a.skewEst += (delay - a.skewEst) / 8
		a.r.timeout = a.hold()
	}
}
