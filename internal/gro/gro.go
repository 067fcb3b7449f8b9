// Package gro models the receiver-host mechanisms the paper discusses in
// §3.3: the Generic Receive Offload batching optimization whose efficiency
// packet reordering destroys, and the optional fixed-hold reordering shim
// (as in Presto's vSwitch shim) that buffers out-of-order packets briefly
// to restore in-order delivery before TCP sees them.
package gro

import (
	"sort"

	"drill/internal/units"
)

// Clock gives a shim its hold timer.
type Clock interface {
	// NewTimer returns an unarmed timer that runs fn when it fires.
	NewTimer(fn func()) Timer
}

// Timer is a re-armable one-shot timer, as sim.Timer is: Reset arms it d
// from now, replacing any earlier deadline, and Stop disarms it.
type Timer interface {
	Reset(d units.Time)
	Stop() bool
}

// Segment is the portion of a flow's byte stream one packet carries.
type Segment struct {
	Seq int64
	Len int32
	// Payload carries the packet's send-timestamp echo downstream. It is a
	// concrete type rather than `any` deliberately: one Segment is built
	// per delivered data packet, and boxing a timestamp into an interface
	// is a heap allocation on the hottest receive path.
	Payload units.Time
}

// Reorderer is a per-flow shim buffer: segments are delivered downstream in
// sequence order; a gap is waited out up to Timeout, after which buffered
// segments are flushed in order anyway (letting TCP's own recovery run).
// The zero Timeout flushes immediately (shim disabled ≈ pass-through).
//
// A hold is one timer per receiver, created at its first hold: each hold
// re-arms it, and a gap that fills disarms it, so a held flow leaves no
// dead events behind and allocates nothing per hold.
type Reorderer struct {
	clock   Clock
	timeout units.Time
	deliver func(Segment)

	expected int64
	buf      []Segment // sorted by Seq
	timer    Timer     // the hold timer; nil until the first hold
	armed    bool

	// Flushes counts timeout-triggered flushes (telemetry).
	Flushes int64
}

// NewReorderer returns a shim for one flow starting at sequence 0.
func NewReorderer(clock Clock, timeout units.Time, deliver func(Segment)) *Reorderer {
	return &Reorderer{clock: clock, timeout: timeout, deliver: deliver}
}

// Expected returns the next in-order sequence number.
func (r *Reorderer) Expected() int64 { return r.expected }

// Held returns the number of buffered out-of-order segments.
func (r *Reorderer) Held() int { return len(r.buf) }

// Idle reports whether the shim holds nothing and has no hold armed.
func (r *Reorderer) Idle() bool { return len(r.buf) == 0 && !r.armed }

// Reset returns an idle shim to a new one's state, at sequence 0 with no
// flushes counted, so that another flow can reuse it. It keeps its clock,
// timeout, delivery callback, hold timer and buffer capacity. Resetting a
// shim that holds segments or has a hold armed panics: their delivery
// would be lost.
func (r *Reorderer) Reset() {
	if !r.Idle() {
		panic("gro: Reset of a shim that holds segments or has a hold armed")
	}
	r.expected, r.buf, r.Flushes = 0, r.buf[:0], 0
}

// Push accepts one segment from the wire.
func (r *Reorderer) Push(s Segment) {
	if s.Seq+int64(s.Len) <= r.expected {
		// Entirely duplicate (spurious retransmission): deliver so TCP can
		// generate its duplicate ACK; nothing to reorder.
		r.deliver(s)
		return
	}
	if s.Seq <= r.expected {
		r.deliver(s)
		if end := s.Seq + int64(s.Len); end > r.expected {
			r.expected = end
		}
		r.drain()
		return
	}
	if r.timeout <= 0 {
		// Shim disabled: pass through immediately.
		r.deliver(s)
		if end := s.Seq + int64(s.Len); end > r.expected {
			r.expected = end
		}
		return
	}
	r.insert(s)
	if !r.armed {
		r.arm()
	}
}

func (r *Reorderer) insert(s Segment) {
	i := sort.Search(len(r.buf), func(i int) bool { return r.buf[i].Seq >= s.Seq })
	if i < len(r.buf) && r.buf[i].Seq == s.Seq {
		return // duplicate of an already-buffered segment; drop the copy
	}
	r.buf = append(r.buf, Segment{})
	copy(r.buf[i+1:], r.buf[i:])
	r.buf[i] = s
}

// drain delivers buffered segments that have become contiguous.
func (r *Reorderer) drain() {
	i := 0
	for i < len(r.buf) && r.buf[i].Seq <= r.expected {
		s := r.buf[i]
		r.deliver(s)
		if end := s.Seq + int64(s.Len); end > r.expected {
			r.expected = end
		}
		i++
	}
	if i > 0 {
		r.buf = append(r.buf[:0], r.buf[i:]...)
	}
	if len(r.buf) == 0 {
		if r.armed {
			r.timer.Stop() // the gap filled: no flush
			r.armed = false
		}
	} else if !r.armed {
		r.arm()
	}
}

// arm starts a hold of one timeout.
func (r *Reorderer) arm() {
	r.armed = true
	if r.timer == nil {
		r.timer = r.clock.NewTimer(r.flush)
	}
	r.timer.Reset(r.timeout)
}

// flush delivers everything buffered, in order, skipping gaps: the hole is
// declared lost and TCP recovery takes over.
func (r *Reorderer) flush() {
	r.Flushes++
	r.armed = false
	for _, s := range r.buf {
		r.deliver(s)
		if end := s.Seq + int64(s.Len); end > r.expected {
			r.expected = end
		}
	}
	r.buf = r.buf[:0]
}

// Batcher models GRO's per-flow packet coalescing (§3.3): consecutive
// in-order segments merge into a batch until a size threshold is exceeded
// or an out-of-order arrival forces a flush. The batch count per delivered
// byte is the CPU-overhead proxy the paper reports ("DRILL increases the
// number of batches by less than 0.5%").
type Batcher struct {
	expected int64
	batchLen int64

	// Batches counts completed batches; Segments counts segments seen.
	Batches  int64
	Segments int64
}

// groMax is the batch size at which GRO flushes (the standard 64KB).
const groMax = 64 * units.KiB

// NewBatcher returns a GRO model with the standard 64KB threshold.
func NewBatcher() *Batcher { return &Batcher{} }

// Push folds one arriving segment into the current batch.
func (b *Batcher) Push(seq int64, length int32) {
	b.Segments++
	inOrder := seq == b.expected
	if !inOrder || b.batchLen+int64(length) > int64(groMax) {
		if b.batchLen > 0 {
			b.Batches++
		}
		b.batchLen = 0
	}
	if end := seq + int64(length); end > b.expected {
		b.expected = end
	}
	b.batchLen += int64(length)
}

// Close flushes the final partial batch.
func (b *Batcher) Close() {
	if b.batchLen > 0 {
		b.Batches++
		b.batchLen = 0
	}
}
