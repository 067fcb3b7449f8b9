package fabric

import (
	"drill/internal/units"
)

// fifo is an amortized-zero-allocation FIFO: each Port's packet queue and
// its visibility and wire rings. It is a circular buffer over a backing
// array whose length is 0 or a power of two: a pop masks the head forward
// and never copies, and a push into a full ring doubles the array,
// copying the live entries to its front in FIFO order. The live entries
// then cycle inside an array sized by the ring's peak occupancy, touching
// the same few cache lines instead of walking onto cold ones, and a
// steady-state push/pop cycle allocates nothing.
type fifo[T any] struct {
	buf  []T
	head int // index of the oldest entry
	n    int // live entries
}

//drill:hotpath
func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// grow doubles the backing array (to 4 entries from empty) and moves the
// live entries to its front, oldest first.
//
//drill:hotpath
//drill:allocs 1 doubling amortizes; capacity is retained across pops
func (f *fifo[T]) grow() {
	buf := make([]T, max(4, 2*len(f.buf)))
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

// pop removes and returns the oldest entry. It zeroes the vacated slot,
// so a recycled *Packet is not kept reachable from the ring.
//
//drill:hotpath
func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

func (f *fifo[T]) empty() bool { return f.n == 0 }

func (f *fifo[T]) len() int { return f.n }

// peek returns the oldest entry in place.
//
//drill:hotpath
func (f *fifo[T]) peek() *T { return &f.buf[f.head] }

// at returns the i-th oldest entry in place; i must be below len.
func (f *fifo[T]) at(i int) *T { return &f.buf[(f.head+i)&(len(f.buf)-1)] }

// visEntry is one pending delayed-visibility update: packet size to credit
// to the port's visible occupancy at time at, under the FIFO tie-break key
// reserved when the packet enqueued. Visibility delay is constant per
// port, so entries are pushed — and therefore settled — in (at, key)
// order.
type visEntry struct {
	at   units.Time
	key  uint64
	size units.ByteSize
}

// wireEntry is one packet in flight on a port's link: it arrives at the
// far end at time at, under the arrival key computed when its transmission
// completed. Propagation delay is constant per port and departures are
// spaced by a serialization time, so the ring is in (at, key) order by
// construction. pkt is nil for a packet lost at its departure: the entry
// keeps the arrival that was armed for it.
type wireEntry struct {
	at  units.Time
	key uint64
	pkt *Packet
}
