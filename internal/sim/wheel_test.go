package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"drill/internal/units"
)

// The timing wheel must be a pure representation change: New and the
// heap-only oracle dispatch the same events in the same order with the
// same Pending and Executed counts, byte for byte. The tests here drive
// both schedulers through the same scripted operation sequences — every
// scheduling entry point the engine uses, spanning the near window, the
// wheel horizon, the far overflow tier, timer churn, bursts that fill a
// bucket past one chunk, mid-run clock advances, the fabric's batched
// wire rings and its settled-when-read visibility queues — and diff the
// full dispatch transcripts. A frontier probe rides along: at every
// dispatch, and after every RunUntil, RunBefore and AdvanceTo, Reached
// must hold for exactly the events the oracle has already dispatched.

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
	tm    int // timer, wake-up port, ring or queue index
}

// Script operations.
const (
	opAfter     = iota // After
	opChain            // After whose callback schedules a child
	opReset            // Timer.Reset
	opStop             // Timer.Stop
	opRunUntil         // RunUntil now+delay
	opGlobal           // AtGlobal now+delay
	opObserver         // AfterObserver
	opRunBefore        // RunBefore now+delay
	opWake             // AtPort under a DepartKey: a silent port wake-up
	opVisPush          // park an update on a visibility queue, from an event delay out
	opWirePush         // push onto a wire ring, from an event delay out
	opAdvanceTo        // AdvanceTo now+delay, capped at the next pending event
	opBurst            // over a chunk of events at now+delay, with a timer reset among them
	opSpread           // over a chunk of events across every offset of one window, same-instant pairs out of key order
	numWheelOps        // op count
)

// wheelScriptTimers is how many timers, wake-up ports, rings and queues
// of each kind a script drives.
const wheelScriptTimers = 4

// spreadEvents is how many offsets an opSpread walks: every offset of the
// window, then some a second time. spreadPort is the lower of the two
// ports its arrivals come from, past the wire rings' ports; wakePort is
// the first of the wake-up ports, past those.
const (
	spreadEvents = 40
	spreadPort   = wheelScriptTimers
	wakePort     = spreadPort + 2
)

// Ring and queue delays sit on the script's 256ns tie grid, so entries
// land at the same instants as quantized script events and the keys
// decide. All but the far visibility queue's are packet timescales that
// land a few buckets to a few hundred buckets out.
var (
	visDelays  = [wheelScriptTimers]units.Time{256, 768, 3072, horizonW + 512}
	wireDelays = [wheelScriptTimers]units.Time{512, 16384, 256, 2048}
)

// portRing is a FIFO event source with a constant delay, modelled on the
// fabric's per-port wire rings: keys come from ArrivalKey over a per-ring
// departure counter. Batched — the engine's shape — it parks each entry
// and arms only its head as a port event. Unbatched — the oracle — every
// push schedules its own event under the same key, one closure per entry.
type portRing struct {
	s       *Sim
	delay   units.Time
	port    uint64
	sent    uint64
	batched bool
	q       []ringEntry
	land    func(label int)
}

type ringEntry struct {
	at    units.Time
	key   uint64
	label int
}

func newPortRing(s *Sim, batched bool, delay units.Time, port uint64, land func(int)) *portRing {
	return &portRing{s: s, delay: delay, port: port, batched: batched, land: land}
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
		r.s.AtPort(at, key, int32(r.port))
	}
}

// fire lands the head and, like the fabric's arrival, re-arms the next
// entry at its reserved slot before the landing's effects run.
func (r *portRing) fire() {
	e := r.q[0]
	r.q = r.q[1:]
	if len(r.q) > 0 {
		r.s.AtPort(r.q[0].at, r.q[0].key, int32(r.port))
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

// wheelCoverage counts the wheel storage paths the scripts reached.
type wheelCoverage struct {
	multiChunk   int // a bucket held more than one chunk
	oldChunk     int // a Timer was stopped or reset from an older chunk than its bucket's newest
	wrapJumps    int // the cursor jumped to an occupied bucket in an earlier bitmap word
	cascadeJumps int // a jump widened the horizon over far events, which cascaded
	spreadPours  int // a pour ordered a bucket spanning half the offsets, with a same-time pair stored out of key order
}

// wheelWatch looks at the wheel simulator whenever the script holds
// control — at the end of every callback and after every script op — to
// count the storage paths it reached and check the storage itself. Two
// looks see at most one cursor move between them: each move opens a
// non-empty bucket, or the far tier's earliest event, before the next
// dispatch.
type wheelWatch struct {
	s   *Sim
	cov *wheelCoverage
	err string // first storage violation
	// The cursor, wheel population and cascade and pour counts at the
	// last look, and the bucket the next cursor move pours, if the wheel
	// held events, with whether spreadBucket held for it.
	cur        int32
	wcount     int
	cascades   uint64
	pours      uint64
	next       int32
	nextSpread bool
}

// look notes a cursor move since the last look.
func (w *wheelWatch) look() {
	if w == nil {
		return
	}
	s := w.s
	if s.cur != w.cur && w.wcount > 0 {
		// The wheel held events at the last look, so the cursor jumped to
		// an occupied bucket, not to the far tier's earliest event.
		if s.cur>>6 < w.cur>>6 {
			w.cov.wrapJumps++
		}
		if s.sched.Cascades > w.cascades {
			w.cov.cascadeJumps++
		}
	}
	// Nothing touches the wheel between a look and the cursor move after
	// it, so a bucket poured since the last look held what it held then.
	if s.sched.Pours != w.pours && s.cur == w.next && w.nextSpread {
		w.cov.spreadPours++
	}
	w.cur, w.wcount, w.cascades, w.pours = s.cur, s.wcount, s.sched.Cascades, s.sched.Pours
	w.next, w.nextSpread = -1, false
	if s.wcount > 0 {
		w.next = s.nextOccupied()
		w.nextSpread = spreadBucket(s, w.next)
	}
}

// spreadBucket reports whether bucket b's untracked events — the ones a
// pour places by offset — span at least half the window's offsets and
// store a same-time pair out of key order, which the pour's insertion pass
// must swap.
func spreadBucket(s *Sim, b int32) bool {
	var chunks []int32
	for c := s.head[b]; c >= 0; c = s.chunks[c].next {
		chunks = append(chunks, c)
	}
	var offsets uint32
	var top [bucketW]uint64 // the highest key stored so far at each offset
	inverted := false
	for k := len(chunks) - 1; k >= 0; k-- { // oldest chunk first
		ch := &s.chunks[chunks[k]]
		for i := range ch.n {
			ev := &ch.ev[i]
			if ev.key&keyTracked != 0 {
				continue
			}
			off := ev.at & (bucketW - 1)
			offsets |= 1 << off
			inverted = inverted || ev.key < top[off]
			top[off] = max(top[off], ev.key)
		}
	}
	return bits.OnesCount32(offsets) >= int(bucketW/2) && inverted
}

// check records the first violation of the wheel's storage invariant.
func (w *wheelWatch) check(where string) {
	if w != nil && w.err == "" {
		if msg := wheelInvariant(w.s); msg != "" {
			w.err = where + ": " + msg
		}
	}
}

// noteBucket counts the bucket holding instant at if it spans chunks.
func (w *wheelWatch) noteBucket(at units.Time) {
	if w == nil {
		return
	}
	if h := w.s.head[bucketOf(at)]; h >= 0 && w.s.chunks[h].next >= 0 {
		w.cov.multiChunk++
	}
}

// noteTimer counts a timer about to be stopped or reset whose wheel entry
// sits in an older chunk than its bucket's newest.
func (w *wheelWatch) noteTimer(t *Timer) {
	if w == nil || t.tier != tierWheel {
		return
	}
	if at := w.s.chunks[t.chunk].ev[t.idx].at; w.s.head[bucketOf(at)] != t.chunk {
		w.cov.oldChunk++
	}
}

func bucketOf(at units.Time) int32 { return int32(at>>wheelShift) & wheelMask }

// wheelInvariant checks the wheel's storage against its bookkeeping: the
// bitmap marks exactly the non-empty buckets, every chunk of a bucket is
// full but the newest, which is not empty, every event sits in its own
// instant's bucket, all of a bucket's events lie in one 32ns window inside
// the wheel's span [base+bucketW, base+horizonW) — which a pour's ordering
// by offset relies on — the buckets hold wcount events, and every chunk is
// in exactly one bucket or on the free list.
func wheelInvariant(s *Sim) string {
	used, events := 0, 0
	for b := int32(0); b < wheelSize; b++ {
		h := s.head[b]
		if occupied := s.occ[b>>6]>>(b&63)&1 != 0; occupied != (h >= 0) {
			return fmt.Sprintf("bucket %d: newest chunk %d, bitmap bit %v", b, h, occupied)
		}
		var first units.Time // the at of the bucket's first event seen
		for c := h; c >= 0; c = s.chunks[c].next {
			ch := &s.chunks[c]
			if c == h && ch.n == 0 || c != h && ch.n != chunkSize {
				return fmt.Sprintf("bucket %d: chunk %d (newest %d) holds %d events", b, c, h, ch.n)
			}
			for i := range ch.n {
				at := ch.ev[i].at
				if bucketOf(at) != b {
					return fmt.Sprintf("bucket %d: chunk %d slot %d holds an event at %d", b, c, i, at)
				}
				if at < s.base+bucketW || at >= s.base+horizonW {
					return fmt.Sprintf("bucket %d: chunk %d slot %d holds an event at %d, outside the wheel's span [%d, %d)",
						b, c, i, at, s.base+bucketW, s.base+horizonW)
				}
				if c == h && i == 0 {
					first = at
				} else if at>>wheelShift != first>>wheelShift {
					return fmt.Sprintf("bucket %d: chunk %d slot %d holds an event at %d, in another window than one at %d",
						b, c, i, at, first)
				}
			}
			used++
			events += int(ch.n)
		}
	}
	if events != s.wcount {
		return fmt.Sprintf("buckets hold %d events, wcount %d", events, s.wcount)
	}
	free := 0
	for c := s.freeChunk; c >= 0; c = s.chunks[c].next {
		free++
	}
	if used+free != len(s.chunks) {
		return fmt.Sprintf("%d chunks in buckets + %d free, pool of %d", used, free, len(s.chunks))
	}
	return ""
}

// applyScript runs ops on s and returns the dispatch transcript: one line
// per event in dispatch order, recording the label, the clock, the events
// pending — scheduled, or parked behind a batched ring's head, so both
// ring shapes count alike — Executed and the visibility updates settled so
// far, observed at the end of the callback; plus a line per clock advance
// and a trailer after Run drains the queue. Every callback settles the
// visibility queues before it logs, as every fabric read does. watch is
// nil for the oracle.
func applyScript(s *Sim, ops []wheelOp, batched bool, probe *frontierProbe, watch *wheelWatch) []string {
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
		watch.look()
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
	var spreadSent uint64                  // arrivals per opSpread port so far
	var wakeSent [wheelScriptTimers]uint64 // wake-ups per wake-up port so far
	// Port events: the wire rings' arrivals, opSpread's arrivals (logged
	// as -100 and -101) and the wake-ups (-200 and up).
	s.OnPort(func(port int32, arrival bool) {
		switch {
		case port < spreadPort:
			wire[port].fire()
		case port < wakePort:
			do(-100-int(port-spreadPort), nil)()
		default:
			if arrival {
				panic("wake-up port dispatched as an arrival")
			}
			do(-200-int(port-wakePort), nil)()
		}
	})
	for i := range tms {
		i := i
		tms[i] = s.NewTimer(do(-1-i, nil))
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
		case opReset:
			watch.noteTimer(tms[tm])
			tms[tm].Reset(op.delay)
		case opStop:
			watch.noteTimer(tms[tm])
			tms[tm].Stop()
		case opRunUntil:
			t := s.Now() + op.delay
			probe.arm()
			s.RunUntil(t)
			log = append(log, "adv"+state())
			probe.parked("RunUntil", t, true)
			watch.check("RunUntil")
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
			watch.check("RunBefore")
		case opWake:
			s.AtPort(s.Now()+op.delay, DepartKey(uint64(wakePort+tm), wakeSent[tm]), int32(wakePort+tm))
			wakeSent[tm]++
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
		case opBurst:
			// More events at one instant than a chunk holds, across
			// classes, with timer tm re-armed among them: once the burst
			// spills into a second chunk, the timer's entry sits in the
			// bucket's older one.
			at := s.Now() + op.delay
			n := chunkSize + 1 + int(op.delay%16)
			for j := 0; j < n; j++ {
				if j == n/2 {
					watch.noteTimer(tms[tm])
					tms[tm].Reset(op.delay)
				}
				if j%3 == 0 {
					s.AtGlobal(at, do(4_000_000+64*label+j, nil))
				} else {
					s.After(op.delay, do(4_000_000+64*label+j, nil))
				}
			}
			watch.noteBucket(at)
		case opSpread:
			// Over a chunk of events across every offset of the window
			// three buckets past now+delay, in scrambled offset order, some
			// offsets twice. At one instant a global event follows a local
			// one, at another a higher port's arrival precedes a lower
			// one's: both pairs are stored out of key order. Timer tm is
			// re-armed into the window midway; timer tm+1, armed into it
			// first, is stopped from the bucket's older chunk at the end.
			w := (s.Now()+op.delay)&^(bucketW-1) + 3*bucketW
			stop := tms[(tm+1)%wheelScriptTimers]
			watch.noteTimer(stop)
			stop.Reset(w + op.delay%bucketW - s.Now())
			for j := 0; j < spreadEvents; j++ {
				at := w + (units.Time(j)*13+op.delay)%bucketW
				l := 5_000_000 + 256*label + 4*j
				switch j % 3 {
				case 0:
					s.At(at, do(l, nil))
				case 1:
					s.At(at, do(l, nil))
					s.AtGlobal(at, do(l+1, nil))
				case 2:
					s.AtPort(at, ArrivalKey(spreadPort+1, spreadSent), spreadPort+1)
					s.AtPort(at, ArrivalKey(spreadPort, spreadSent), spreadPort)
					spreadSent++
				}
				if j == spreadEvents/2 {
					watch.noteTimer(tms[tm])
					tms[tm].Reset(at - s.Now())
				}
			}
			watch.noteBucket(w)
			watch.noteTimer(stop)
			stop.Stop()
		}
		watch.look()
	}
	probe.arm()
	s.Run()
	log = append(log, "end"+state())
	watch.look()
	watch.check("Run")
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
// transcript divergence, frontier violation or wheel storage violation, or
// "" if none. It adds the wheel storage paths reached to cov.
func diffScript(ops []wheelOp, cov *wheelCoverage) string {
	h := newHeapOnly(42)
	oracle := &frontierProbe{s: h, record: true}
	hl := applyScript(h, ops, false, oracle, nil)
	if oracle.err != "" {
		return "oracle: " + oracle.err
	}
	w := New(42)
	probe := &frontierProbe{s: w, seen: oracle.seen, pend: oracle.pend}
	watch := &wheelWatch{s: w, cov: cov}
	wl := applyScript(w, ops, true, probe, watch)
	if probe.err != "" {
		return "frontier: " + probe.err
	}
	if watch.err != "" {
		return "wheel storage after " + watch.err
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
// boundary: same-instant ties (0), the open bucket window, packet
// timescales a few buckets out, the wheel horizon, and far-tier overflow,
// with coarse quantization so distinct ops frequently collide on the same
// timestamp and exercise the FIFO tie-break.
func randScript(rng *rand.Rand, n int) []wheelOp {
	ranges := []units.Time{
		0,                // same-instant ties
		bucketW,          // inside the open window
		64 * bucketW,     // packet timescales: the next 64 buckets
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
// Executed counts — on the wheel and the reference heap, and leave the
// wheel's storage consistent. The scripts must reach every storage path
// of the wheel: a bucket spanning chunks, a timer cancelled from an older
// chunk, a cursor jump that wraps to an earlier bitmap word, a jump that
// cascades far events, and a pour of a bucket spread over half the
// window's offsets that stores a same-time pair out of key order.
func TestWheelMatchesHeapReference(t *testing.T) {
	iters, n := 300, 120
	if testing.Short() {
		iters = 60
	}
	var cov wheelCoverage
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := randScript(rng, n)
		if d := diffScript(ops, &cov); d != "" {
			t.Fatalf("seed %d: wheel diverged from heap reference: %s", seed, d)
		}
	}
	if cov.multiChunk == 0 || cov.oldChunk == 0 || cov.wrapJumps == 0 || cov.cascadeJumps == 0 || cov.spreadPours == 0 {
		t.Fatalf("scripts missed a wheel storage path: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}

// FuzzWheelVsHeap decodes arbitrary bytes into an op script and asserts
// wheel/heap transcript equality. Three bytes per op: the first picks the
// op kind from its low six bits and the delay class from its top two, so
// every (kind, class) pair is reachable; the other two are a 16-bit delay
// seed, stretched across the class's range.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 4, 2, 0, 2, 255, 255})
	f.Add([]byte{1, 0, 4, 2, 12, 0, 4, 0, 64, 3, 0, 0})
	f.Add([]byte{6, 7, 7, 4, 255, 0, 0, 0, 0, 2, 3, 3})
	// Two updates parked on visibility queue 0 (256ns), then a plain event
	// at the second update's instant: scheduled after the update reserved
	// its key, it must find the update settled.
	f.Add([]byte{0xc9, 0, 0, 0xc9, 0, 0, 0xc4, 0, 0, 0xc0, 1, 0})
	// Queue and ring pushes on the tie grid, interleaved with plain,
	// global and registered events at the same instants and partial
	// advances.
	f.Add([]byte{0xc9, 1, 0, 0xca, 2, 0, 0xc0, 1, 0, 0xc5, 2, 0, 0xc8, 1, 0, 0x47, 0, 64, 0xc9, 3, 0, 0xca, 0, 0})
	f.Add([]byte{0x0a, 0, 1, 0x0a, 1, 1, 0x09, 2, 1, 0x06, 0, 9, 0x44, 0, 200, 0x8a, 0, 3, 0x49, 1, 0})
	// Parks between pushes: RunBefore and AdvanceTo leave the updates at
	// the parked instant unsettled, RunUntil settles them, and events
	// scheduled at the instant afterwards sort behind the frontier.
	f.Add([]byte{0xc9, 0, 0, 0xcb, 1, 0, 0xc9, 1, 0, 0xc7, 2, 0, 0xc0, 0, 0, 0xc4, 1, 0, 0x05, 0, 0, 0x00, 0, 0, 0xcb, 3, 0})
	// The chunked buckets: two bursts into one bucket 1.6µs out (timer 0
	// re-armed inside each), timer 0 stopped from the bucket's older
	// chunk, then far events one and two horizons out and a RunUntil past
	// the first, so the cursor's jumps cascade them and wrap the bitmap.
	f.Add([]byte{0x4c, 0, 100, 0x03, 0, 0, 0x4c, 4, 100, 0x02, 0, 0, 0x80, 0x40, 0, 0x80, 0x80, 0, 0x84, 0x60, 0, 0x4c, 1, 7})
	// The spread buckets: every offset of a window 416ns out, then of one
	// 352ns out, each with same-instant pairs stored out of key order, a
	// timer re-armed into it and one stopped from its older chunk; then a
	// RunUntil to 432ns, halfway into the first window, before Run drains
	// the rest.
	f.Add([]byte{0x4d, 0, 20, 0xcd, 1, 0, 0x44, 0, 27})
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
				d = raw % bucketW // inside the open window
			case 1:
				d = (raw * 16) % horizonW
			case 2:
				d = raw * (horizonW >> 14) // up to 4 horizons out
			case 3:
				d = (raw &^ 255) % 4096 // tie-heavy
			}
			kind := (data[i] & 63) % numWheelOps
			ops = append(ops, wheelOp{kind: kind, delay: d, tm: int(data[i+1]) % wheelScriptTimers})
		}
		if d := diffScript(ops, new(wheelCoverage)); d != "" {
			t.Fatalf("wheel diverged from heap reference: %s", d)
		}
	})
}

// TestWheelScheduleZeroAllocs pins the scheduler's steady-state
// allocation count at zero: events are pointer-free PODs, callbacks park
// in recycled slots, and wheel buckets draw their chunks from one pool —
// so once the pool and arrays are warm, schedule/dispatch/cancel cycles on
// every tier must not allocate at all, including the first use of a
// bucket.
func TestWheelScheduleZeroAllocs(t *testing.T) {
	s := New(1)
	n := 0
	fn := func() { n++ }
	// Warm every array: chunk pool, dispatch list, both heaps, the slot
	// table.
	for i := 0; i < 20000; i++ {
		s.After(units.Time(i%4000), fn)
	}
	tm := s.NewTimer(fn)
	tm.Reset(2 * horizonW)
	s.Run()
	tm.Stop()

	// Run parks the clock on the far event, inside the open bucket.
	before := s.Sched()
	if a := testing.AllocsPerRun(2000, func() {
		s.After(0, fn)          // near tier: the open bucket
		s.After(16*bucketW, fn) // wheel tier
		s.After(2*horizonW, fn) // far tier
		s.Run()
	}); a != 0 {
		t.Fatalf("schedule/dispatch allocates %v allocs/op, want 0", a)
	}
	// 2001 ops, counting AllocsPerRun's warm-up call; the far event
	// reaches the near tier by cascade once the wheel drains.
	if d := s.Sched(); d.Near-before.Near != 2*2001 || d.Wheel-before.Wheel != 2001 || d.Far-before.Far != 2001 {
		t.Fatalf("tier routing near/wheel/far %d/%d/%d over 2001 ops, want 4002/2001/2001",
			d.Near-before.Near, d.Wheel-before.Wheel, d.Far-before.Far)
	}
	if a := testing.AllocsPerRun(2000, func() {
		tm.Reset(8 * bucketW)  // wheel: O(1) insert
		tm.Reset(0)            // near heap relocate
		tm.Reset(2 * horizonW) // far heap relocate
		tm.Stop()
	}); a != 0 {
		t.Fatalf("timer reset/stop allocates %v allocs/op, want 0", a)
	}
	s.OnPort(func(int32, bool) { n++ })
	if a := testing.AllocsPerRun(2000, func() {
		s.AtPort(s.Now()+bucketW, ArrivalKey(0, uint64(n)), 0)
		s.AtPort(s.Now()+bucketW, DepartKey(1, uint64(n)), 1)
		s.RunUntil(s.Now() + 2*bucketW)
	}); a != 0 {
		t.Fatalf("AtPort arm/dispatch allocates %v allocs/op, want 0", a)
	}

	// A cold wheel: warm four buckets only, then put one event at a time
	// into each bucket after them. Each takes the chunk the last one
	// returned to the pool, so no bucket allocates on first use.
	cold := New(1)
	for i := 1; i <= 4; i++ {
		cold.After(units.Time(i)*bucketW, fn)
	}
	cold.Run()
	if a := testing.AllocsPerRun(wheelSize-6, func() {
		cold.After(bucketW, fn) // the bucket after the last one
		cold.Run()
	}); a != 0 {
		t.Fatalf("first use of a cold bucket allocates %v allocs/op, want 0", a)
	}
}

// TestWheelMemoryFollowsPending: the wheel's chunk pool is sized by the
// events pending at once, not by the buckets a run has touched. Each
// pattern keeps exactly P events pending — every event re-arms itself one
// period after it fires, half of them through Timers — while the clock
// crosses 20 revolutions. The chunks in use never exceed one partial
// chunk per occupied bucket plus the full ones, min(P, wheelSize) +
// ⌈P/32⌉, and since the pattern repeats every period, the pool reaches its
// size within the first revolution and never grows after it.
func TestWheelMemoryFollowsPending(t *testing.T) {
	const period = 97 * bucketW // an odd bucket count: the pattern walks every bucket
	for _, tc := range []struct {
		name   string
		p      int
		period units.Time
		offset func(j int) units.Time // event j's first instant
	}{
		{"spread", 64, period, func(j int) units.Time { return units.Time(j) * period / 64 }},
		{"one-bucket", 100, period, func(int) units.Time { return 0 }},
		{"clusters", 400, period, func(j int) units.Time { return units.Time(j/40) * period / 10 }},
		{"every-bucket", 6000, horizonW - bucketW, func(j int) units.Time {
			return units.Time(j) * (horizonW - bucketW) / 6000
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			for j := 0; j < tc.p; j++ {
				if j%2 == 0 {
					var fire func()
					fire = func() { s.After(tc.period, fire) }
					s.At(tc.offset(j)+1, fire)
					continue
				}
				var tm *Timer
				tm = s.NewTimer(func() { tm.Reset(tc.period) })
				tm.Reset(tc.offset(j) + 1)
			}
			bound := min(tc.p, wheelSize) + (tc.p+chunkSize-1)/chunkSize
			var firstRev int
			for rev := 1; rev <= 20; rev++ {
				s.RunUntil(units.Time(rev) * horizonW)
				if got := s.Pending(); got != tc.p {
					t.Fatalf("revolution %d: %d events pending, want %d", rev, got, tc.p)
				}
				if len(s.chunks) > bound {
					t.Fatalf("revolution %d: pool of %d chunks, bound %d for %d pending", rev, len(s.chunks), bound, tc.p)
				}
				if rev == 1 {
					firstRev = len(s.chunks)
				} else if len(s.chunks) != firstRev {
					t.Fatalf("revolution %d: pool grew from %d to %d chunks after the first revolution", rev, firstRev, len(s.chunks))
				}
			}
			if msg := wheelInvariant(s); msg != "" {
				t.Fatal(msg)
			}
			t.Logf("%d pending: %d chunks (bound %d)", tc.p, len(s.chunks), bound)
		})
	}
}

// BenchmarkPour times a wheel bucket's round trip — schedule n events into
// one 32ns window a few buckets out, pour the bucket and dispatch it — per
// event. 37 and 54 events are the mean pours of the leaf–spine and
// fat-tree workloads, 4 a sharded run's. Offsets are scrambled and every
// fourth event shares its predecessor's instant; events alternate between
// local ones and arrivals from scrambled ports, so some same-time pairs
// are stored out of key order, as the data plane's are.
func BenchmarkPour(b *testing.B) {
	for _, n := range []int{1, 4, 37, 54, 256} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			s := New(1)
			s.OnPort(func(int32, bool) {})
			fn := func() {}
			rng := rand.New(rand.NewSource(int64(n)))
			offs := make([]units.Time, n)
			for j := range offs {
				offs[j] = units.Time(rng.Intn(int(bucketW)))
				if j%4 == 3 {
					offs[j] = offs[j-1]
				}
			}
			var sent [11]uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := s.base + 4*bucketW
				for j, off := range offs {
					if j%2 == 0 {
						s.At(w+off, fn)
						continue
					}
					port := j * 7 % len(sent)
					s.AtPort(w+off, ArrivalKey(uint64(port), sent[port]), int32(port))
					sent[port]++
				}
				s.Run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
		})
	}
}
