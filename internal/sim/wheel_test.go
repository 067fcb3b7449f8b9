package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"drill/internal/units"
)

// The timing wheel must be a pure representation change: New and the
// heap-only oracle dispatch the same events in the same order with the
// same Pending and Executed counts, byte for byte. The tests here drive
// both schedulers through the same scripted operation sequences — every
// scheduling entry point the engine uses, spanning the near window, the
// wheel horizon, the far overflow tier, timer churn, mid-run clock
// advances, and the fabric's batched port rings — and diff the full
// dispatch transcripts.

// newHeapOnly returns a simulator that bypasses the timing wheel and runs
// every event through the near heap — the pre-wheel scheduler, kept as
// the oracle the wheel's dispatch order is diffed against.
func newHeapOnly(seed int64) *Sim {
	s := New(seed)
	s.heapOnly = true
	return s
}

// wheelOp is one scripted scheduler operation. Scripts are generated
// (property test) or decoded from fuzz input, then applied identically to
// a wheel Sim and a heap-only Sim.
type wheelOp struct {
	kind  uint8 // one of the op* constants
	delay units.Time
	tm    int // timer, registered callback or ring index
}

// Script operations.
const (
	opAfter     = iota // After
	opChain            // After whose callback schedules a child
	opDaemon           // AfterDaemon
	opReset            // Timer.Reset
	opStop             // Timer.Stop
	opRunUntil         // RunUntil now+delay
	opGlobal           // AtGlobal now+delay
	opObserver         // AfterObserver
	opRunBefore        // RunBefore now+delay
	opAfterID          // AfterID on a Register-ed callback
	opVisPush          // push onto a visibility ring, from an event delay out
	opWirePush         // push onto a wire ring, from an event delay out
	numWheelOps        // op count
)

// wheelScriptTimers is how many timers, registered callbacks, and rings of
// each kind a script drives.
const wheelScriptTimers = 4

// Ring delays sit on the script's 256ns tie grid, so ring entries land at
// the same instants as quantized script events and the keys decide.
var (
	visDelays  = [wheelScriptTimers]units.Time{256, 768, 3 * bucketW, horizonW + 512}
	wireDelays = [wheelScriptTimers]units.Time{512, 16 * bucketW, 256, 2 * bucketW}
)

// portRing is a FIFO event source with a constant delay, modelled on the
// fabric's per-port visibility rings (port < 0: keys from ReserveKey) and
// wire rings (keys from ArrivalKey over a per-ring departure counter).
// Batched — the engine's shape — it reserves each entry's key at push
// time, parks the entry, and arms only its head through one registered
// callback. Unbatched — the oracle — every push schedules its own event
// under the same key, one closure per entry.
type portRing struct {
	s       *Sim
	delay   units.Time
	port    int64
	sent    uint64
	batched bool
	id      FnID
	q       []ringEntry
	land    func(label int)
}

type ringEntry struct {
	at    units.Time
	key   uint64
	label int
}

func newPortRing(s *Sim, batched bool, delay units.Time, port int64, land func(int)) *portRing {
	r := &portRing{s: s, delay: delay, port: port, batched: batched, land: land}
	if batched {
		r.id = s.Register(r.fire)
	}
	return r
}

func (r *portRing) push(label int) {
	at := r.s.Now() + r.delay
	var key uint64
	if r.port < 0 {
		key = r.s.ReserveKey()
	} else {
		key = ArrivalKey(uint64(r.port), r.sent)
		r.sent++
	}
	if !r.batched {
		r.s.schedule(event{at: at, key: key, id: r.s.alloc(func() { r.land(label) }, nil)})
		return
	}
	r.q = append(r.q, ringEntry{at: at, key: key, label: label})
	if len(r.q) == 1 {
		r.s.AtKeyID(at, key, r.id)
	}
}

// fire lands the head and, like visFire and wireFire, re-arms the next
// entry at its reserved slot before the landing's effects run.
func (r *portRing) fire() {
	e := r.q[0]
	r.q = r.q[1:]
	if len(r.q) > 0 {
		r.s.AtKeyID(r.q[0].at, r.q[0].key, r.id)
	}
	r.land(e.label)
}

// applyScript runs ops on s and returns the dispatch transcript: one line
// per event in dispatch order, recording the label, the clock, the events
// pending — scheduled, or parked behind a batched ring's head, so both
// ring shapes count alike — and Executed, observed inside the callback,
// plus a line per clock advance and a trailer after Run drains the queue.
func applyScript(s *Sim, ops []wheelOp, batched bool) []string {
	var log []string
	var vis, wire [wheelScriptTimers]*portRing
	state := func() string {
		p := s.Pending()
		for _, r := range append(vis[:], wire[:]...) {
			if len(r.q) > 1 {
				p += len(r.q) - 1
			}
		}
		return fmt.Sprintf("@%d:p%d:e%d", s.Now(), p, s.Executed)
	}
	rec := func(label int) { log = append(log, fmt.Sprint(label)+state()) }
	var tms [wheelScriptTimers]*Timer
	var ids [wheelScriptTimers]FnID
	for i := range tms {
		i := i
		tms[i] = s.NewTimer(func() { rec(-1 - i) })
		ids[i] = s.Register(func() { rec(-100 - i) })
		vis[i] = newPortRing(s, batched, visDelays[i], -1, func(label int) { rec(2_000_000 + label) })
		// A wire arrival is enqueued at the far end: it feeds a
		// visibility ring, as arrive → enqueue does.
		wire[i] = newPortRing(s, batched, wireDelays[i], int64(i), func(label int) {
			rec(3_000_000 + label)
			vis[(i+label)%wheelScriptTimers].push(label)
		})
	}
	for i, op := range ops {
		label := i
		tm := op.tm % wheelScriptTimers
		switch op.kind {
		case opAfter:
			s.After(op.delay, func() { rec(label) })
		case opChain:
			// Scheduling from inside a callback lands in the already-open
			// window — the near-heap straggler path.
			child := (op.delay*7919 + 13) % (3 * bucketW)
			s.After(op.delay, func() {
				rec(label)
				s.After(child, func() { rec(label + 1_000_000) })
			})
		case opDaemon:
			s.AfterDaemon(op.delay, func() { rec(label) })
		case opReset:
			tms[tm].Reset(op.delay)
		case opStop:
			tms[tm].Stop()
		case opRunUntil:
			s.RunUntil(s.Now() + op.delay)
			log = append(log, "adv"+state())
		case opGlobal:
			s.AtGlobal(s.Now()+op.delay, func() { rec(label) })
		case opObserver:
			s.AfterObserver(op.delay, func() { rec(label) })
		case opRunBefore:
			s.RunBefore(s.Now() + op.delay)
			log = append(log, "bef"+state())
		case opAfterID:
			s.AfterID(op.delay, ids[tm])
		case opVisPush:
			s.After(op.delay, func() { vis[tm].push(label) })
		case opWirePush:
			s.After(op.delay, func() { wire[tm].push(label) })
		}
	}
	s.Run()
	return append(log, "end"+state())
}

// diffScript applies ops to a wheel simulator with batched rings and to
// the heap-only oracle with one event per ring entry, and returns the
// first transcript divergence, or "" if they match exactly.
func diffScript(ops []wheelOp) string {
	w := applyScript(New(42), ops, true)
	h := applyScript(newHeapOnly(42), ops, false)
	if len(w) != len(h) {
		return fmt.Sprintf("transcript lengths differ: wheel %d, heap %d", len(w), len(h))
	}
	for i := range w {
		if w[i] != h[i] {
			return fmt.Sprintf("entry %d: wheel %q, heap %q", i, w[i], h[i])
		}
	}
	return ""
}

// randScript generates an op sequence whose delays cover every tier
// boundary: same-instant ties (0), the open bucket window, the wheel
// horizon, and far-tier overflow, with coarse quantization so distinct
// ops frequently collide on the same timestamp and exercise the FIFO
// tie-break.
func randScript(rng *rand.Rand, n int) []wheelOp {
	ranges := []units.Time{
		0,                // same-instant ties
		bucketW,          // inside the open window
		16 * bucketW,     // short wheel hop
		horizonW,         // anywhere on the wheel
		3 * horizonW / 2, // beyond the horizon: far tier
	}
	ops := make([]wheelOp, n)
	for i := range ops {
		r := ranges[rng.Intn(len(ranges))]
		var d units.Time
		if r > 0 {
			d = units.Time(rng.Int63n(int64(r)))
			if rng.Intn(2) == 0 {
				d &^= 255 // quantize to force timestamp collisions
			}
		}
		ops[i] = wheelOp{kind: uint8(rng.Intn(numWheelOps)), delay: d, tm: rng.Intn(wheelScriptTimers)}
	}
	return ops
}

// TestWheelMatchesHeapReference is the equivalence property test: random
// scripts over every scheduling entry point and both ring shapes must
// dispatch identically — same order, same clocks, same Pending and
// Executed counts — on the wheel and the reference heap.
func TestWheelMatchesHeapReference(t *testing.T) {
	iters, n := 300, 120
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := randScript(rng, n)
		if d := diffScript(ops); d != "" {
			t.Fatalf("seed %d: wheel diverged from heap reference: %s", seed, d)
		}
	}
}

// FuzzWheelVsHeap decodes arbitrary bytes into an op script and asserts
// wheel/heap transcript equality. Three bytes per op: the first picks the
// op kind from its low six bits and the delay class from its top two, so
// every (kind, class) pair is reachable; the other two are a 16-bit delay
// seed, stretched across the class's range.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 2, 0, 3, 255, 255})
	f.Add([]byte{1, 0, 4, 3, 12, 0, 5, 0, 64, 4, 0, 0})
	f.Add([]byte{2, 7, 7, 5, 255, 0, 0, 0, 0, 3, 3, 3})
	// Two entries parked on visibility ring 0 (256ns), then a plain event
	// at the second entry's instant: re-armed behind the first, the second
	// entry must keep the key it reserved at push time and fire first.
	f.Add([]byte{0xca, 0, 0, 0xca, 0, 0, 0xc5, 0, 0, 0xc0, 1, 0})
	// Ring pushes on the tie grid, interleaved with plain, global and
	// registered events at the same instants and partial advances.
	f.Add([]byte{0xca, 1, 0, 0xcb, 2, 0, 0xc0, 1, 0, 0xc6, 2, 0, 0xc9, 1, 0, 0x48, 0, 64, 0xca, 3, 0, 0xcb, 0, 0})
	f.Add([]byte{0x0b, 0, 1, 0x0b, 1, 1, 0x0a, 2, 1, 0x07, 0, 9, 0x45, 0, 200, 0x8b, 0, 3, 0x4a, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		var ops []wheelOp
		for i := 0; i+2 < len(data); i += 3 {
			raw := units.Time(data[i+1])<<8 | units.Time(data[i+2])
			var d units.Time
			switch data[i] >> 6 {
			case 0:
				d = raw % bucketW
			case 1:
				d = (raw * 16) % horizonW
			case 2:
				d = raw * units.Time(1) << 10 // up to ~4 horizons out
			case 3:
				d = (raw &^ 255) % (4 * bucketW) // tie-heavy
			}
			kind := (data[i] & 63) % numWheelOps
			ops = append(ops, wheelOp{kind: kind, delay: d, tm: int(data[i+1]) % wheelScriptTimers})
		}
		if d := diffScript(ops); d != "" {
			t.Fatalf("wheel diverged from heap reference: %s", d)
		}
	})
}

// TestWheelScheduleZeroAllocs pins the scheduler's steady-state
// allocation count at zero: events are pointer-free PODs, callbacks park
// in recycled slots, and the wheel's bucket arrays rotate — so once the
// arrays are warm, schedule/dispatch/cancel cycles on every tier must not
// allocate at all.
func TestWheelScheduleZeroAllocs(t *testing.T) {
	s := New(1)
	n := 0
	fn := func() { n++ }
	// Warm every array: buckets, dispatch list, both heaps, the slot table.
	for i := 0; i < 20000; i++ {
		s.After(units.Time(i%4000), fn)
	}
	tm := s.NewTimer(fn)
	tm.Reset(2 * horizonW)
	s.Run()
	tm.Stop()

	if a := testing.AllocsPerRun(2000, func() {
		s.After(100, fn)        // near tier
		s.After(16*bucketW, fn) // wheel tier
		s.After(2*horizonW, fn) // far tier
		s.RunUntil(s.Now() + 3*horizonW)
	}); a != 0 {
		t.Fatalf("schedule/dispatch allocates %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(2000, func() {
		tm.Reset(8 * bucketW)  // wheel: O(1) insert
		tm.Reset(200)          // near heap relocate
		tm.Reset(2 * horizonW) // far heap relocate
		tm.Stop()
	}); a != 0 {
		t.Fatalf("timer reset/stop allocates %v allocs/op, want 0", a)
	}
	id := s.Register(fn)
	if a := testing.AllocsPerRun(2000, func() {
		s.AtKeyID(s.Now()+bucketW, s.ReserveKey(), id)
		s.RunUntil(s.Now() + 2*bucketW)
	}); a != 0 {
		t.Fatalf("AtKeyID arm/dispatch allocates %v allocs/op, want 0", a)
	}
}
