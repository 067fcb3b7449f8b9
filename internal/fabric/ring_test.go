package fabric

import (
	"fmt"
	"math/bits"
	"testing"
)

// newest returns the most recently pushed entry in place.
func (f *fifo[T]) newest() *T { return f.at(f.n - 1) }

// fifoCoverage counts what a script reached: ring growths and pops that
// wrapped the head from the array's last slot to its first.
type fifoCoverage struct{ growths, wraps int }

// runFifoScript drives a fifo and a plain slice queue through the ops
// data encodes, one byte each, and reports the first disagreement. After
// every push and pop it compares order, len, empty, peek, every entry by
// position (at) and the newest entry, requires the capacity to be 0 or the smallest power of two that
// holds the peak occupancy, at least 4 (so never above max(4, 2 × peak)),
// and requires every vacated slot to be zero.
func runFifoScript(data []byte, cov *fifoCoverage) error {
	var f fifo[uint64]
	var model []uint64
	next, peak := uint64(1), 0 // entries are 1, 2, …, so 0 marks a vacated slot
	check := func(op string) error {
		if f.len() != len(model) || f.empty() != (len(model) == 0) {
			return fmt.Errorf("after %s: len %d empty %v, model holds %d", op, f.len(), f.empty(), len(model))
		}
		c, want := len(f.buf), 0
		if peak > 0 {
			want = max(4, 1<<bits.Len(uint(peak-1)))
		}
		if c != want {
			return fmt.Errorf("after %s: capacity %d at peak occupancy %d, want %d", op, c, peak, want)
		}
		if len(model) > 0 && (*f.peek() != model[0] || *f.newest() != model[len(model)-1]) {
			return fmt.Errorf("after %s: peek %d newest %d, want %d and %d", op, *f.peek(), *f.newest(), model[0], model[len(model)-1])
		}
		for i, v := range model {
			if *f.at(i) != v {
				return fmt.Errorf("after %s: at(%d) is %d, want %d", op, i, *f.at(i), v)
			}
		}
		for i, v := range f.buf {
			switch k := (i - f.head) & (c - 1); {
			case k < len(model) && v != model[k]:
				return fmt.Errorf("after %s: entry %d is %d, want %d", op, k, v, model[k])
			case k >= len(model) && v != 0:
				return fmt.Errorf("after %s: vacated slot %d holds %d", op, i, v)
			}
		}
		return nil
	}
	push := func() error {
		c := len(f.buf)
		f.push(next)
		if len(f.buf) != c {
			cov.growths++
		}
		model = append(model, next)
		next++
		peak = max(peak, len(model))
		return check("push")
	}
	pop := func() error {
		if len(model) == 0 {
			return nil
		}
		if f.head == len(f.buf)-1 {
			cov.wraps++
		}
		if got := f.pop(); got != model[0] {
			return fmt.Errorf("pop returned %d, want %d", got, model[0])
		}
		model = model[1:]
		return check("pop")
	}
	for _, b := range data {
		k := int(b&63) + 1
		var err error
		switch b >> 6 {
		case 0: // a burst of pushes
			for i := 0; i < k && err == nil; i++ {
				err = push()
			}
		case 1: // a burst of pops
			for i := 0; i < k && err == nil; i++ {
				err = pop()
			}
		case 2: // a steady stretch: the live window wraps around the array without growing it
			for i := 0; i < 8*k && err == nil; i++ {
				if err = push(); err == nil {
					err = pop()
				}
			}
		default: // drain
			for len(model) > 0 && err == nil {
				err = pop()
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fifoSeeds grow a ring through several doublings with entries parked
// across the array's end, run long wrap-around stretches at a fixed
// capacity, and drain and refill a grown ring.
var fifoSeeds = [][]byte{
	{0x02, 0x41, 0x03, 0x40, 0x05, 0x42, 0x0f, 0x48, 0x3f, 0x50, 0x3f, 0xff},
	{0x03, 0xbf, 0x41, 0xbf, 0x06, 0x9f, 0x0d, 0xbf},
	{0x3f, 0x3f, 0xc0, 0x01, 0x81, 0x7f, 0x3f, 0xbf, 0xc0},
	{0x00, 0x40, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x41, 0x80, 0x02, 0x42, 0x07, 0x83},
}

func FuzzFifo(f *testing.F) {
	for _, s := range fifoSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runFifoScript(data, &fifoCoverage{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFifoSeedsCover: the fuzz seeds, which plain go test runs, reach
// several growths and many wrap-arounds.
func TestFifoSeedsCover(t *testing.T) {
	var cov fifoCoverage
	for i, s := range fifoSeeds {
		if err := runFifoScript(s, &cov); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	if cov.growths < 12 || cov.wraps < 100 {
		t.Fatalf("seeds reached %d growths and %d wraps, want at least 12 and 100", cov.growths, cov.wraps)
	}
	t.Logf("coverage: %+v", cov)
}

// TestFifoZeroAllocs: push/pop cycles within a ring's capacity allocate
// nothing, for the packet queue and the wire ring alike.
func TestFifoZeroAllocs(t *testing.T) {
	var q fifo[*Packet]
	var w fifo[wireEntry]
	pkt := &Packet{}
	for i := 0; i < 8; i++ {
		q.push(pkt)
		w.push(wireEntry{pkt: pkt})
	}
	for !q.empty() {
		q.pop()
		w.pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 7; i++ {
			q.push(pkt)
			w.push(wireEntry{pkt: pkt})
		}
		for i := 0; i < 7; i++ {
			q.pop()
			w.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per push/pop cycle within capacity, want 0", allocs)
	}
}
