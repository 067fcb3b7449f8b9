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
// advances, the fabric's batched wire rings and its settled-when-read
// visibility queues — and diff the full dispatch transcripts. A frontier
// probe rides along: at every dispatch, and after every RunUntil,
// RunBefore and AdvanceTo, Reached must hold for exactly the events the
// oracle has already dispatched.

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
	tm    int // timer, registered callback, ring or queue index
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
	opVisPush          // park an update on a visibility queue, from an event delay out
	opWirePush         // push onto a wire ring, from an event delay out
	opAdvanceTo        // AdvanceTo now+delay, capped at the next pending event
	numWheelOps        // op count
)

// wheelScriptTimers is how many timers, registered callbacks, rings and
// queues of each kind a script drives.
const wheelScriptTimers = 4

// Ring and queue delays sit on the script's 256ns tie grid, so entries
// land at the same instants as quantized script events and the keys
// decide.
var (
	visDelays  = [wheelScriptTimers]units.Time{256, 768, 3 * bucketW, horizonW + 512}
	wireDelays = [wheelScriptTimers]units.Time{512, 16 * bucketW, 256, 2 * bucketW}
)

// portRing is a FIFO event source with a constant delay, modelled on the
// fabric's per-port wire rings: keys come from ArrivalKey over a per-ring
// departure counter. Batched — the engine's shape — it parks each entry
// and arms only its head through one registered callback. Unbatched — the
// oracle — every push schedules its own event under the same key, one
// closure per entry.
type portRing struct {
	s       *Sim
	delay   units.Time
	port    uint64
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

func newPortRing(s *Sim, batched bool, delay units.Time, port uint64, land func(int)) *portRing {
	r := &portRing{s: s, delay: delay, port: port, batched: batched, land: land}
	if batched {
		r.id = s.Register(r.fire)
	}
	return r
}

func (r *portRing) push(label int) {
	at := r.s.Now() + r.delay
	key := ArrivalKey(r.port, r.sent)
	r.sent++
	if !r.batched {
		r.s.schedule(event{at: at, key: key, id: r.s.alloc(func() { r.land(label) }, nil)})
		return
	}
	r.q = append(r.q, ringEntry{at: at, key: key, label: label})
	if len(r.q) == 1 {
		r.s.AtKeyID(at, key, r.id)
	}
}

// fire lands the head and, like the fabric's wireFire, re-arms the next
// entry at its reserved slot before the landing's effects run.
func (r *portRing) fire() {
	e := r.q[0]
	r.q = r.q[1:]
	if len(r.q) > 0 {
		r.s.AtKeyID(r.q[0].at, r.q[0].key, r.id)
	}
	r.land(e.label)
}

// visQueue is modelled on the fabric's visibility rings: a FIFO of
// updates, each parked under a key from ReserveKey and settled, with no
// event of its own, once Reached passes it.
type visQueue struct {
	s       *Sim
	delay   units.Time
	q       []ringEntry
	settled int
}

func (v *visQueue) push(label int) {
	at := v.s.Now() + v.delay
	v.q = append(v.q, ringEntry{at: at, key: v.s.ReserveKey(at), label: label})
}

func (v *visQueue) settle() {
	for len(v.q) > 0 && v.s.Reached(v.q[0].at, v.q[0].key) {
		v.q = v.q[1:]
		v.settled++
	}
}

// frontierProbe checks Reached against a model of the frontier built from
// the oracle's dispatch sequence. Recording (on the heap-only oracle), it
// captures each dispatched event's (at, key) as the near heap's minimum
// whenever the scheduler is about to take control — at the end of every
// callback and at the entry to every run call — and, at every checkpoint,
// the earliest event still pending. Checking (on the wheel), it keeps the
// model frontier — the highest of the dispatches so far, the start of an
// instant RunBefore or AdvanceTo moved the clock to, and the whole of an
// instant RunUntil ran through — and asserts at every dispatch and after
// every run call that Reached agrees with it: every dispatched event is
// Reached, and the next pending one is not unless it was scheduled behind
// the frontier.
type frontierProbe struct {
	s      *Sim
	record bool
	seen   []event      // the oracle's dispatches, in order
	pend   []checkpoint // the oracle's earliest pending event at each checkpoint
	next   event        // recording: the event the oracle dispatches next
	n, cp  int          // checking: dispatches and checkpoints so far
	done   event        // checking: the highest dispatch so far
	front  event        // checking: the model frontier
	err    string       // first violation
}

type checkpoint struct {
	ev event
	ok bool // something was pending
}

// arm notes the oracle's next dispatch before the scheduler takes control.
func (p *frontierProbe) arm() {
	if p.record && len(p.s.near.ev) > 0 {
		p.next = p.s.near.ev[0]
	}
}

func (p *frontierProbe) fail(format string, args ...any) {
	if p.err == "" {
		p.err = fmt.Sprintf(format, args...)
	}
}

// raise moves the model frontier up to e.
func (p *frontierProbe) raise(e event) {
	if less(&p.front, &e) {
		p.front = e
	}
}

// dispatched runs at the end of every callback.
func (p *frontierProbe) dispatched() {
	if p.record {
		if p.next.at != p.s.now {
			p.fail("oracle dispatch %d: captured at %d, clock %d", len(p.seen), p.next.at, p.s.now)
		}
		p.seen = append(p.seen, p.next)
		p.arm()
	} else {
		if p.n >= len(p.seen) {
			p.fail("wheel dispatched more than the oracle's %d events", len(p.seen))
			return
		}
		cur := p.seen[p.n]
		p.n++
		if less(&p.done, &cur) {
			p.done = cur
		}
		p.raise(cur)
	}
	p.check("dispatch")
}

// parked runs after a run call returned at instant t: RunUntil (all) ran
// through it, RunBefore and AdvanceTo parked at its start.
func (p *frontierProbe) parked(where string, t units.Time, all bool) {
	if !p.record {
		key := uint64(0)
		if all {
			key = ^uint64(0)
		}
		p.raise(event{at: t, key: key})
		p.probe(where, event{at: t, key: 1})
		p.probe(where, event{at: t, key: ^uint64(0) - 1})
		if t > 0 {
			p.probe(where, event{at: t - 1, key: ^uint64(0)})
		}
	}
	p.check(where)
}

// check is one checkpoint: the highest dispatch so far and the earliest
// pending event, against the model.
func (p *frontierProbe) check(where string) {
	if p.record {
		c := checkpoint{ok: len(p.s.near.ev) > 0}
		if c.ok {
			c.ev = p.s.near.ev[0]
		}
		p.pend = append(p.pend, c)
		return
	}
	if p.cp >= len(p.pend) {
		p.fail("%s: more checkpoints than the oracle's %d", where, len(p.pend))
		return
	}
	c := p.pend[p.cp]
	p.cp++
	if p.n > 0 {
		p.probe(where, p.done)
	}
	if c.ok {
		p.probe(where, c.ev)
	}
}

// probe asserts Reached(e) is exactly "e sorts at or before the model
// frontier".
func (p *frontierProbe) probe(where string, e event) {
	if want := !less(&p.front, &e); p.s.Reached(e.at, e.key) != want {
		p.fail("%s after %d dispatches: Reached(%d, %#x) = %v, model frontier (%d, %#x)",
			where, p.n, e.at, e.key, !want, p.front.at, p.front.key)
	}
}

// applyScript runs ops on s and returns the dispatch transcript: one line
// per event in dispatch order, recording the label, the clock, the events
// pending — scheduled, or parked behind a batched ring's head, so both
// ring shapes count alike — Executed and the visibility updates settled so
// far, observed at the end of the callback; plus a line per clock advance
// and a trailer after Run drains the queue. Every callback settles the
// visibility queues before it logs, as every fabric read does.
func applyScript(s *Sim, ops []wheelOp, batched bool, probe *frontierProbe) []string {
	var log []string
	var vis [wheelScriptTimers]*visQueue
	var wire [wheelScriptTimers]*portRing
	state := func() string {
		p := s.Pending()
		settled := 0
		for i := range vis {
			vis[i].settle()
			settled += vis[i].settled
			if r := wire[i]; len(r.q) > 1 {
				p += len(r.q) - 1
			}
		}
		return fmt.Sprintf("@%d:p%d:e%d:v%d", s.Now(), p, s.Executed, settled)
	}
	rec := func(label int) {
		log = append(log, fmt.Sprint(label)+state())
		probe.dispatched()
	}
	// do wraps an event body so the dispatch is logged after it runs:
	// everything the body scheduled is pending when the probe looks.
	do := func(label int, body func()) func() {
		return func() {
			if body != nil {
				body()
			}
			rec(label)
		}
	}
	var tms [wheelScriptTimers]*Timer
	var ids [wheelScriptTimers]FnID
	for i := range tms {
		i := i
		tms[i] = s.NewTimer(do(-1-i, nil))
		ids[i] = s.Register(do(-100-i, nil))
		vis[i] = &visQueue{s: s, delay: visDelays[i]}
		// A wire arrival is enqueued at the far end: it parks a visibility
		// update, as arrive → enqueue does.
		wire[i] = newPortRing(s, batched, wireDelays[i], uint64(i), func(label int) {
			do(3_000_000+label, func() { vis[(i+label)%wheelScriptTimers].push(label) })()
		})
	}
	for i, op := range ops {
		label := i
		tm := op.tm % wheelScriptTimers
		switch op.kind {
		case opAfter:
			s.After(op.delay, do(label, nil))
		case opChain:
			// Scheduling from inside a callback lands in the already-open
			// window — the near-heap straggler path.
			child := (op.delay*7919 + 13) % (3 * bucketW)
			s.After(op.delay, do(label, func() {
				s.After(child, do(label+1_000_000, nil))
			}))
		case opDaemon:
			s.AfterDaemon(op.delay, do(label, nil))
		case opReset:
			tms[tm].Reset(op.delay)
		case opStop:
			tms[tm].Stop()
		case opRunUntil:
			t := s.Now() + op.delay
			probe.arm()
			s.RunUntil(t)
			log = append(log, "adv"+state())
			probe.parked("RunUntil", t, true)
		case opGlobal:
			s.AtGlobal(s.Now()+op.delay, do(label, nil))
		case opObserver:
			s.AfterObserver(op.delay, do(label, nil))
		case opRunBefore:
			t := s.Now() + op.delay
			probe.arm()
			s.RunBefore(t)
			log = append(log, "bef"+state())
			probe.parked("RunBefore", t, false)
		case opAfterID:
			s.AfterID(op.delay, ids[tm])
		case opVisPush:
			s.After(op.delay, do(2_000_000+label, func() { vis[tm].push(label) }))
		case opWirePush:
			s.After(op.delay, do(label, func() { wire[tm].push(label) }))
		case opAdvanceTo:
			// AdvanceTo is only legal up to the next pending event.
			t := s.Now() + op.delay
			if at, ok := s.NextAt(); ok && at < t {
				t = at
			}
			s.AdvanceTo(t)
			log = append(log, "park"+state())
			probe.parked("AdvanceTo", t, false)
		}
	}
	probe.arm()
	s.Run()
	log = append(log, "end"+state())
	// Run drains up to the last reserved key: nothing is left unsettled.
	for i, v := range vis {
		if len(v.q) > 0 {
			probe.fail("visibility queue %d holds %d unsettled updates after Run", i, len(v.q))
		}
	}
	return log
}

// diffScript applies ops to the heap-only oracle with one event per ring
// entry and to a wheel simulator with batched rings, and returns the first
// transcript divergence or frontier violation, or "" if none.
func diffScript(ops []wheelOp) string {
	h := newHeapOnly(42)
	oracle := &frontierProbe{s: h, record: true}
	hl := applyScript(h, ops, false, oracle)
	if oracle.err != "" {
		return "oracle: " + oracle.err
	}
	w := New(42)
	probe := &frontierProbe{s: w, seen: oracle.seen, pend: oracle.pend}
	wl := applyScript(w, ops, true, probe)
	if probe.err != "" {
		return "frontier: " + probe.err
	}
	if len(wl) != len(hl) {
		return fmt.Sprintf("transcript lengths differ: wheel %d, heap %d", len(wl), len(hl))
	}
	for i := range wl {
		if wl[i] != hl[i] {
			return fmt.Sprintf("entry %d: wheel %q, heap %q", i, wl[i], hl[i])
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
	// Two updates parked on visibility queue 0 (256ns), then a plain event
	// at the second update's instant: scheduled after the update reserved
	// its key, it must find the update settled.
	f.Add([]byte{0xca, 0, 0, 0xca, 0, 0, 0xc5, 0, 0, 0xc0, 1, 0})
	// Queue and ring pushes on the tie grid, interleaved with plain,
	// global and registered events at the same instants and partial
	// advances.
	f.Add([]byte{0xca, 1, 0, 0xcb, 2, 0, 0xc0, 1, 0, 0xc6, 2, 0, 0xc9, 1, 0, 0x48, 0, 64, 0xca, 3, 0, 0xcb, 0, 0})
	f.Add([]byte{0x0b, 0, 1, 0x0b, 1, 1, 0x0a, 2, 1, 0x07, 0, 9, 0x45, 0, 200, 0x8b, 0, 3, 0x4a, 1, 0})
	// Parks between pushes: RunBefore and AdvanceTo leave the updates at
	// the parked instant unsettled, RunUntil settles them, and events
	// scheduled at the instant afterwards sort behind the frontier.
	f.Add([]byte{0xca, 0, 0, 0xcc, 1, 0, 0xca, 1, 0, 0xc8, 2, 0, 0xc0, 0, 0, 0xc5, 1, 0, 0x06, 0, 0, 0x00, 0, 0, 0xcc, 3, 0})
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
		s.AtKeyID(s.Now()+bucketW, ArrivalKey(0, uint64(n)), id)
		s.RunUntil(s.Now() + 2*bucketW)
	}); a != 0 {
		t.Fatalf("AtKeyID arm/dispatch allocates %v allocs/op, want 0", a)
	}
}
