package fabric

import (
	"drill/internal/units"
)

// fifo is an amortized-zero-allocation FIFO: each Port's packet queue and
// its visibility and wire rings. Pushes append; pops advance a head cursor
// and compact the backing slice once the dead prefix dominates. After
// warm-up the backing array is reused indefinitely, so a steady-state
// push/pop cycle allocates nothing.
type fifo[T any] struct {
	buf  []T
	head int
}

//drill:hotpath
//drill:allocs 1 buffer growth amortizes; capacity is retained across pops
func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }

//drill:hotpath
func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head > 64 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

func (f *fifo[T]) empty() bool { return f.head == len(f.buf) }

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

//drill:hotpath
func (f *fifo[T]) peek() *T { return &f.buf[f.head] }

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
// completed. Propagation delay is constant per port and the departure
// counter behind the key is monotone, so the ring is in (at, key) order by
// construction.
type wireEntry struct {
	at  units.Time
	key uint64
	pkt *Packet
}
