// Package gro models the receiver-host mechanisms the paper discusses in
// §3.3: the Generic Receive Offload batching optimization whose efficiency
// packet reordering destroys, and the optional reordering-resilient shim
// layer (as in Presto's vSwitch shim / Juggler) that buffers out-of-order
// packets briefly to restore in-order delivery before TCP sees them.
package gro

import (
	"sort"

	"drill/internal/units"
)

// Clock abstracts the simulator for timer scheduling.
type Clock interface {
	Now() units.Time
	After(d units.Time, fn func())
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
type Reorderer struct {
	clock   Clock
	timeout units.Time
	deliver func(Segment)

	expected int64
	buf      []Segment // sorted by Seq
	timerGen int
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
		r.timerGen++ // disarm any pending flush
		r.armed = false
	} else if !r.armed {
		r.arm()
	}
}

func (r *Reorderer) arm() {
	r.armed = true
	r.timerGen++
	gen := r.timerGen
	r.clock.After(r.timeout, func() {
		if gen != r.timerGen {
			return
		}
		r.flush()
	})
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
	Threshold units.ByteSize // flush when a batch reaches this size (64KB)

	expected int64
	batchLen int64

	// Batches counts completed batches; Segments counts segments seen.
	Batches  int64
	Segments int64
}

// NewBatcher returns a GRO model with the standard 64KB threshold.
func NewBatcher() *Batcher { return &Batcher{Threshold: 64 * units.KiB} }

// Push folds one arriving segment into the current batch.
func (b *Batcher) Push(seq int64, length int32) {
	b.Segments++
	inOrder := seq == b.expected
	if !inOrder || b.batchLen+int64(length) > int64(b.Threshold) {
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
