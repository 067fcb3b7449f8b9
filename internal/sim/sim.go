// Package sim provides the discrete-event simulation engine underlying the
// DRILL fabric models. It offers a nanosecond-resolution virtual clock, an
// O(1) single-level timing-wheel scheduler with deterministic FIFO
// tie-breaking (a 4-ary-heap overflow tier catches far-future events),
// cancellable re-armable Timers whose entries are location-tracked across
// every tier (so a Reset or Stop relocates/deletes the live entry instead
// of abandoning a tombstone), port events that carry a port index instead
// of a callback (see AtPort), a dispatch frontier that lets state updates
// be settled when they are read instead of dispatched as events (see
// Reached), and seeded random-number streams so every run is
// reproducible.
//
// # Scheduler structure
//
// Events live in one of three tiers, picked by how far ahead of the wheel
// cursor they land:
//
//   - near: the open wheel bucket's 32ns window, split between a dispatch
//     list (the bucket's untracked events, put in order once at pour time
//     and consumed by a cursor) and a small index-tracked 4-ary min-heap
//     (Timer-owned entries, plus anything scheduled into the window after
//     it opened). Dispatch interleaves the two by direct (time, seq)
//     comparison, so the exact total order is enforced here.
//   - wheel: a calendar queue of 32ns buckets covering the next 131µs,
//     the horizon of a packet's own events (serializations, wire
//     arrivals, ACKs). A bucket is a list of fixed-size chunks drawn from
//     one pool per Sim, so storage follows the pending events, and an
//     occupancy bitmap lets the cursor jump straight to the next
//     non-empty bucket. Insertion and timer cancellation are O(1)
//     appends/swap-removes; a bucket's events are poured into the near
//     tier when the cursor reaches it, and its chunks go back to the pool.
//   - far: the index-tracked heap retained from the pre-wheel scheduler,
//     as the overflow tier for events beyond the wheel horizon (RTOs,
//     control-plane reconvergence). Events cascade from far into the
//     wheel as the cursor advances.
//
// Determinism argument: dispatch order is (at, key) everywhere. The near
// tier compares that key directly, whether an event sits in the dispatch
// list or the heap. A wheel bucket only ever holds events of one bucket
// window per revolution (anything nearer goes to the near tier, anything
// farther goes to a later bucket or the far tier), and the whole bucket
// is poured and ordered — by offset within the window, then by key —
// before any of it dispatches, so intra-bucket insertion order — across
// chunks, or after a swap-removal — never matters. The cursor skips only
// empty buckets. The far tier is a heap on the same key and only feeds the
// wheel. Hence the wheel scheduler dispatches in exactly the order the
// plain heap would; the package tests keep a heap-only scheduler as the
// oracle that asserts it, byte for byte.
//
// # Settled-when-read updates
//
// Some state changes are fixed at the instant they are caused but take
// effect later, and matter only to whoever next reads the state: the
// fabric's delayed queue-visibility counters (§3.2.1) and its port
// departures are the cases in point. Scheduling one event per update would
// cost a dispatch each for a change most readers never look at. Instead
// the producer names the update's key — one reserved with ReserveKey, the
// key an event scheduled at that instant would have taken, or a pure one
// from DepartKey — parks the update, and the reader applies, in order,
// every parked update that Reached reports as already passed. The frontier
// Reached consults is the (at, key) of the event being dispatched, or the
// instant a run loop parked the clock at, and it never moves backwards, so
// the reader observes exactly the state a one-event-per-update scheduler
// would have produced by that point.
//
// # Key classes and port events
//
// Event keys fall in four classes, dispatched in class order at one
// instant: global, local, departure and arrival (see the class constants).
// The fabric's per-hop work rides port events (AtPort): an event that
// carries a port index in its id and dispatches through the one handler
// the scheduler was given with OnPort, so the hot path allocates no
// callback per port or per packet. A port event under an ArrivalKey lands
// a packet at the far end of a link; one under a DepartKey is a silent
// wake-up that only settles a port whose departures must be seen as they
// happen, and Executed leaves it out.
package sim

import (
	"math/bits"
	"math/rand"

	"drill/internal/units"
)

// Wheel geometry. Buckets are 32ns wide, below the spacing of a packet's
// own events: a 10G ACK serializes in 51ns, a hop's propagation takes
// 200ns and an MTU serializes in 304ns (40G) to 1.2µs (10G), so each lands
// in a later bucket and reaches the dispatch list, ordered once per bucket,
// instead of the near heap. Only 40G ACKs (12.8ns) and back-to-back wire
// re-arms still land in the open bucket. The 4096-bucket span covers
// 131µs; RTO re-arms (1ms floor) and reconvergence overflow to the far
// heap. A coarse second level that kept them on the wheel ran slower: they
// are a small share of events, and cascading them costs more than the
// heap does.
const (
	wheelShift = 5                                   // log2 bucket width in ns
	wheelBits  = 12                                  // log2 bucket count
	wheelSize  = 1 << wheelBits                      // buckets per revolution
	wheelMask  = wheelSize - 1                       // bucket index mask
	bucketW    = units.Nanosecond << wheelShift      // bucket width
	horizonW   = units.Time(wheelSize) << wheelShift // wheel span
	occWords   = wheelSize / 64                      // occupancy bitmap words
)

// chunkSize is the number of events one wheel chunk holds.
const chunkSize = 32

// Event-key flag bits. The FIFO tie-break sequence number (or a port
// event's pure key) is packed above the flag bits, so one uint64
// comparison orders same-time events and carries the
// observer/silent/tracked classification without widening the event.
const (
	keyDaemon  uint64 = 1 << 0 // an observer event: never keeps Run alive
	keySilent  uint64 = 1 << 1 // excluded from Executed accounting
	keyTracked uint64 = 1 << 2 // a Timer owns this entry (location-tracked)
	keyShift          = 3
)

// Event-key class bits. The top two key bits partition same-time events
// into four classes, dispatched in class order: global events (workload
// arrivals, failure injection, observer ticks — anything a sharded run
// executes at a window barrier), then shard-local events (the data plane's
// visibility updates and timers), then port departures (a packet finishing
// serialization, see DepartKey), then wire arrivals (packets landing on a
// port after propagation). The class order is what makes the sharded
// engine byte-identical to the sequential one: a barrier runs all globals
// at time T before any shard touches its local events at T, exactly as a
// single scheduler sorting on these keys would, and departures and
// cross-shard arrivals carry keys derived from engine-invariant state (port
// index and per-port departure sequence) rather than from any one
// scheduler's private counter. A departure sorts before every same-time
// arrival: the packet an arrival forwards onto a port joins the queue
// behind a packet that finished serializing at that instant, as it did
// when departures were events with a fresh sequence number.
const (
	classShift          = 62
	classGlobal  uint64 = 0 << classShift // barrier-executed: workload, control plane, observers
	classLocal   uint64 = 1 << classShift // shard-private data-plane events
	classDepart  uint64 = 2 << classShift // port departures; key from DepartKey
	classArrival uint64 = 3 << classShift // wire arrivals; key from ArrivalKey
	classMask    uint64 = 3 << classShift
)

// Timer tier tags (Timer.tier, eventHeap.tier).
const (
	tierNone  int8 = iota // not scheduled
	tierNear              // near heap index Timer.idx
	tierFar               // far heap index Timer.idx
	tierWheel             // wheel chunk Timer.chunk, slot Timer.idx
)

// event is deliberately pointer-free: 24 bytes of plain data. The callback
// (and owning Timer, for tracked entries) lives in the Sim's slot table,
// referenced by id. Events are copied constantly — heap sifts, bucket
// pours — and keeping them POD means those copies are raw memmoves with no
// write barriers, and none of the scheduler's arrays (the wheel's chunk
// pool, two heaps, the dispatch list) hold pointers the garbage collector
// has to scan.
//
// id >= 0 indexes Sim.slots (a per-event slot, recycled through a free
// list when the event dispatches or is cancelled); id < 0 is a port event
// carrying port ^id, dispatched through the handler installed with OnPort
// — the fabric's per-hop events take this path, skipping slot churn
// entirely.
type event struct {
	at  units.Time
	key uint64 // seq<<keyShift | flags; orders same-time events FIFO
	id  int32  // slot index (>= 0) or ^port (< 0)
}

// slot parks one scheduled event's pointers outside the event arrays.
// Vacant slots chain through next into Sim.free.
type slot struct {
	fn    func()
	timer *Timer // non-nil for Timer-owned (location-tracked) entries
	next  int32  // free-list link when vacant
}

// chunk is a fixed-size block of one wheel bucket's events. A bucket is a
// list of chunks, newest first, in which every chunk but the newest is
// full; swap-removal refills a hole from the newest chunk, so that stays
// true. Chunks live in Sim.chunks and link by index, which keeps the pool
// pointer-free; vacant chunks chain through next into Sim.freeChunk.
type chunk struct {
	ev   [chunkSize]event
	n    int32 // events in ev
	next int32 // next older chunk of the bucket, or free-list link; -1 ends
}

// less orders events by (time, seq): the flag bits sit below the sequence
// number, so comparing packed keys preserves strict FIFO tie-breaking.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// Sim is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; run independent simulations in separate Sim instances.
type Sim struct {
	now units.Time
	// front is the key half of the dispatch frontier (now, front): the
	// highest key dispatched at now, 0 when a run loop parked the clock at
	// now before anything there dispatched (no event key is 0), or ^0 when
	// everything at now has dispatched. See Reached.
	front   uint64
	seq     uint64
	seed    int64
	daemons int // scheduled observer events (they never keep Run alive)

	near eventHeap // straggler events inside the cursor bucket's window
	far  eventHeap // events beyond the wheel horizon

	// dl is the dispatch list: the cursor bucket's untracked events,
	// put in (at, key) order once at pour time and consumed by advancing
	// dlHead. Most events take this path — one append at schedule, a
	// linear pour amortized over the bucket, one cursor increment at
	// dispatch — instead of O(log n) heap sifts in and out. Only events
	// that need location tracking (Timer-owned) or that are scheduled into
	// the already-open window (they'd have to merge into an ordered
	// prefix) go through the near heap, and the dispatch loop interleaves
	// the two by (at, seq) comparison. It is the one scheduler array sized
	// by the busiest bucket: every pour refills it from the start.
	dl     []event
	dlHead int

	// The wheel: each bucket's newest chunk (-1 when empty), a bit per
	// non-empty bucket, and the chunk pool every bucket draws from.
	head      [wheelSize]int32
	occ       [occWords]uint64
	chunks    []chunk
	freeChunk int32      // head of the vacant-chunk list; -1 when empty
	base      units.Time // start of the cursor bucket's window (bucketW-aligned)
	cur       int32      // cursor bucket index
	wcount    int        // events currently stored in wheel buckets

	slots []slot // callback/timer storage for live events, by event id
	free  int32  // head of the vacant-slot free list; -1 when empty

	onPort func(port int32, arrival bool) // port-event handler (OnPort)

	heapOnly bool // route everything through the near heap (the tests' oracle)

	// tailAt/tailKey is the latest (at, key) reserved with ReserveKey; Run
	// drains up to it as if it were a pending event. tailKey 0: none yet.
	tailAt  units.Time
	tailKey uint64

	sched SchedStats // scheduler-internal traffic counters

	// Executed counts events dispatched since creation, for reporting.
	Executed uint64
}

// SchedStats counts scheduler-internal traffic: which tier each schedule
// call routed to, which structure each dispatch came from, and how much
// work cursor advancement did. Every count is a pure function of the
// event stream — no wall clock is involved — so two runs of the same seed
// produce identical stats. An event can be routed more than once: a far
// event that cascades into the wheel counts under Far at its original
// schedule and under Wheel (and Cascades) when the horizon reaches it.
type SchedStats struct {
	Near         uint64 `json:"near_total"`          // schedule calls routed to the near tier
	Wheel        uint64 `json:"wheel_total"`         // schedule calls routed into a wheel bucket
	Far          uint64 `json:"far_total"`           // schedule calls routed to the far overflow heap
	DispatchList uint64 `json:"dispatch_list_total"` // dispatches consumed from the dispatch list
	DispatchHeap uint64 `json:"dispatch_heap_total"` // dispatches popped from the near heap
	Cascades     uint64 `json:"cascades_total"`      // far-tier events re-routed as the horizon advanced
	Pours        uint64 `json:"pours_total"`         // non-empty cursor buckets poured at advancement
	PouredEvents uint64 `json:"poured_events_total"` // events moved out of buckets by those pours
}

// Sched returns a copy of the scheduler-internal counters.
func (s *Sim) Sched() SchedStats { return s.sched }

// WheelOccupancy reports the number of events currently stored in wheel
// buckets — the calendar's live population, excluding the near tier and
// the far overflow heap (Pending covers all tiers).
func (s *Sim) WheelOccupancy() int { return s.wcount }

// New returns a simulator whose random streams derive from seed.
func New(seed int64) *Sim {
	s := &Sim{
		seed:      seed,
		near:      eventHeap{tier: tierNear},
		far:       eventHeap{tier: tierFar},
		free:      -1,
		freeChunk: -1,
	}
	for b := range s.head {
		s.head[b] = -1
	}
	s.near.s = s
	s.far.s = s
	return s
}

// Now returns the current simulated time.
func (s *Sim) Now() units.Time { return s.now }

// Stream returns an independent deterministic random stream identified by id.
// Distinct ids yield decorrelated streams for the same simulator seed, so
// e.g. workload arrivals and switch sampling do not perturb each other.
func (s *Sim) Stream(id int64) *rand.Rand {
	const mix = int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64
	return rand.New(rand.NewSource(s.seed ^ (id+1)*mix))
}

// alloc claims a slot for one scheduled event's callback (and owning
// timer, if any) and returns its id. Slots recycle through a free list, so
// steady-state scheduling never allocates.
//
//drill:hotpath
//drill:allocs 1 slot-table growth amortizes; steady state recycles ids through the free list
func (s *Sim) alloc(fn func(), t *Timer) int32 {
	if id := s.free; id >= 0 {
		sl := &s.slots[id]
		s.free = sl.next
		sl.fn, sl.timer = fn, t
		return id
	}
	s.slots = append(s.slots, slot{fn: fn, timer: t})
	return int32(len(s.slots) - 1)
}

// release vacates an event's slot, dropping its pointers so the GC can
// reclaim the captures.
//
//drill:hotpath
func (s *Sim) release(id int32) {
	sl := &s.slots[id]
	sl.fn, sl.timer = nil, nil
	sl.next = s.free
	s.free = id
}

// OnPort installs the handler of this scheduler's port events (AtPort).
// Each dispatch calls fn with the port index the event carries and whether
// its key is an arrival's (ArrivalKey) or a departure's (DepartKey). A
// scheduler has one handler: the fabric installs its own on every
// scheduler that runs its ports, so a second network on the same
// scheduler is refused.
func (s *Sim) OnPort(fn func(port int32, arrival bool)) {
	if fn == nil {
		panic("sim: OnPort requires a handler")
	}
	if s.onPort != nil {
		panic("sim: port handler already installed")
	}
	s.onPort = fn
}

// AtPort schedules a port event carrying port at absolute time t under
// key, a pure key from ArrivalKey or DepartKey (or one reserved with
// ReserveKey). It is the fabric's zero-alloc per-hop event: the (t, key)
// pair lands the dispatch in exactly the slot a per-packet callback would
// have taken, and the handler finds the port by index. A departure-class
// event is a wake-up: it only settles state that the next read would
// settle anyway, so it is silent and Executed leaves it out. t must not
// be in the past.
//
//drill:hotpath
func (s *Sim) AtPort(t units.Time, key uint64, port int32) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	if key&classMask == classDepart {
		key |= keySilent
	}
	s.schedule(event{at: t, key: key, id: ^port})
}

// ReserveKey allocates and returns the next local-class event key, exactly
// as scheduling a local event at time at would, but schedules nothing. It
// is the producer half of a settled-when-read update (the fabric's
// per-port visibility ring): the producer parks the update under (at,
// key), and whoever reads the state first applies every parked update
// that Reached reports as passed. No other key moves, so every event
// dispatches in the slot it would have taken had each update been an
// event of its own. at must not be in the past; Run treats the latest
// reserved (at, key) as pending work.
//
//drill:hotpath
func (s *Sim) ReserveKey(at units.Time) uint64 {
	if at < s.now {
		panic("sim: key reserved in the past")
	}
	s.seq++
	key := classLocal | s.seq<<keyShift
	if at >= s.tailAt {
		s.tailAt, s.tailKey = at, key
	}
	return key
}

// Reached reports whether (at, key) sorts at or before the dispatch
// frontier: for a key reserved with ReserveKey, whether an event scheduled
// under it would already have dispatched. The frontier is
//
//   - while an event runs: that event's (at, key);
//   - after RunBefore(t) or AdvanceTo(t) moved the clock to t: the start
//     of t, before every event at t — a sharded run parks its shards
//     there while the barrier's global events at t run, and those sort
//     before every shard event at t;
//   - after RunUntil(t): all of t;
//   - after Run drains: the latest key reserved with ReserveKey, if the
//     last event did not pass it.
//
// It never moves backwards: an event dispatched under a key that sorts
// before the frontier (scheduled at the current instant under a lower
// class, or after RunUntil passed the instant) leaves it where it is.
// Readers of settled-when-read state call this on the scheduler that owns
// that state.
//
//drill:hotpath
func (s *Sim) Reached(at units.Time, key uint64) bool {
	return at < s.now || at == s.now && key <= s.front
}

// parkAt moves the clock forward to t with the frontier at front, unless
// that would move the frontier backwards.
func (s *Sim) parkAt(t units.Time, front uint64) {
	if t > s.now || t == s.now && front > s.front {
		s.now, s.front = t, front
	}
}

// ArrivalKey builds the event key for a wire arrival on directed port
// `port`, carrying the port's n-th departure. The key is a pure function
// of topology-invariant state — no scheduler counter — so a packet's
// arrival dispatches in the same slot whether the sending and receiving
// ports live in one scheduler or in two shards exchanging the packet at a
// window barrier. Port indexes fit 25 bits (33M directed channels) and
// per-port departures 34 bits (17G packets per port per run).
//
//drill:hotpath
func ArrivalKey(port, n uint64) uint64 {
	return classArrival | port<<(keyShift+34) | n<<keyShift
}

// DepartKey builds the event key for directed port `port`'s n-th departure:
// the instant its packet finishes serializing. Like ArrivalKey it is a pure
// function of engine-invariant state, so the departure takes the same slot
// on any engine and whoever settles it later can name that slot without
// knowing which sequence numbers other events drew in between. Its class
// sorts after every same-time local event and before every same-time
// arrival.
//
//drill:hotpath
func DepartKey(port, n uint64) uint64 {
	return classDepart | port<<(keyShift+34) | n<<keyShift
}

// At schedules fn to run at absolute time t as a shard-local event.
// Scheduling in the past panics: it would silently reorder causality.
//
//drill:hotpath
func (s *Sim) At(t units.Time, fn func()) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.seq++
	s.schedule(event{at: t, key: classLocal | s.seq<<keyShift, id: s.alloc(fn, nil)})
}

// After schedules fn to run d after the current time.
//
//drill:hotpath
func (s *Sim) After(d units.Time, fn func()) { s.At(s.now+d, fn) }

// AtGlobal schedules fn at absolute time t as a global-class event.
// Global events are the ones a sharded run executes at window barriers —
// workload arrivals, link failures and restores, control-plane
// reconvergence — and they sort before every same-time local event, which
// is exactly when a barrier runs them. Sequential runs use the same class
// so the two engines dispatch in the same order. A callback that only
// reads state is an observer event instead (AfterObserver).
func (s *Sim) AtGlobal(t units.Time, fn func()) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.seq++
	s.schedule(event{at: t, key: classGlobal | s.seq<<keyShift, id: s.alloc(fn, nil)})
}

// AfterGlobal schedules fn to run d from now as a global-class event.
func (s *Sim) AfterGlobal(d units.Time, fn func()) { s.AtGlobal(s.now+d, fn) }

// AfterObserver schedules fn d from now as an observer event. Observer
// events exist for every pure read of a run: the metrics snapshotter, the
// samplers, a run's measure-window counter reads. They may look at
// simulation state but never mutate it, so Run treats a queue holding only
// observer events as drained, and Executed leaves them out: that is what
// keeps a measured run byte-identical (same RunResult.Events, same
// fingerprints) to an unmeasured one. Observer events are global-class: in
// a sharded run they execute at window barriers, every shard parked, and
// the class order makes the sequential engine dispatch them in the same
// pre-local slot a barrier gives them.
func (s *Sim) AfterObserver(d units.Time, fn func()) {
	t := s.now + d
	if t < s.now {
		panic("sim: observer event scheduled in the past")
	}
	s.seq++
	s.daemons++
	s.schedule(event{at: t, key: s.seq<<keyShift | keyDaemon | keySilent, id: s.alloc(fn, nil)})
}

// schedule routes an event to its tier by distance from the wheel cursor.
//
//drill:hotpath
func (s *Sim) schedule(ev event) {
	if s.heapOnly || ev.at < s.base+bucketW {
		// Inside the current bucket window (or heap-only): the near
		// heap enforces (at, seq) order directly. Events behind the cursor
		// window — possible after RunUntil advanced the clock into a quiet
		// region — land here too, keeping order exact without rewinding.
		s.sched.Near++
		s.near.push(ev)
		return
	}
	if ev.at < s.base+horizonW {
		s.sched.Wheel++
		b := int32(ev.at>>wheelShift) & wheelMask
		c := s.head[b]
		if c < 0 || s.chunks[c].n == chunkSize {
			if c < 0 {
				s.occ[b>>6] |= 1 << (b & 63)
			}
			nc := s.newChunk()
			s.chunks[nc].next = c
			s.head[b] = nc
			c = nc
		}
		ch := &s.chunks[c]
		i := ch.n
		ch.ev[i] = ev
		ch.n++
		if ev.key&keyTracked != 0 {
			t := s.slots[ev.id].timer
			t.tier = tierWheel
			t.chunk = c
			t.idx = i
		}
		s.wcount++
		return
	}
	s.sched.Far++
	s.far.push(ev)
}

// newChunk takes an empty chunk from the pool, growing the pool only when
// every chunk is in use: the pool's size is the high-water mark of chunks
// in use, which pending events bound, not the length of the run.
//
//drill:hotpath
//drill:allocs 1 pool growth amortizes; vacant chunks are reused first
func (s *Sim) newChunk() int32 {
	if c := s.freeChunk; c >= 0 {
		s.freeChunk = s.chunks[c].next
		s.chunks[c].n = 0
		return c
	}
	s.chunks = append(s.chunks, chunk{})
	return int32(len(s.chunks) - 1)
}

// releaseChunk returns chunk c to the pool.
//
//drill:hotpath
func (s *Sim) releaseChunk(c int32) {
	s.chunks[c].next = s.freeChunk
	s.freeChunk = c
}

// Pending reports the number of scheduled events not yet dispatched.
// Cancelled timer events are removed from their tier eagerly, so they
// never count here.
func (s *Sim) Pending() int {
	return len(s.near.ev) + (len(s.dl) - s.dlHead) + s.wcount + len(s.far.ev)
}

// ensureNear advances the wheel cursor — cascading overflow events in and
// pouring the reached bucket into the dispatch list / near heap — until
// one of them holds the globally earliest pending event. It reports false
// when no events are pending anywhere. The cursor jumps to the next
// occupied bucket, or, with the wheel empty, to the earliest far event's
// bucket. Advancing never skips an event: the far events a jump brings
// inside the horizon lay beyond the old one, so they land behind the
// bucket jumped to, which holds the earliest pending events.
//
//drill:hotpath
func (s *Sim) ensureNear() bool {
	for len(s.near.ev) == 0 && s.dlHead == len(s.dl) {
		if s.wcount == 0 {
			if len(s.far.ev) == 0 {
				return false
			}
			at := s.far.ev[0].at
			s.base = at &^ (bucketW - 1)
			s.cur = int32(at>>wheelShift) & wheelMask
		} else {
			next := s.nextOccupied()
			s.base += units.Time((next-s.cur)&wheelMask) << wheelShift
			s.cur = next
		}
		// Cascade far-tier events the advanced horizon now covers.
		for len(s.far.ev) > 0 && s.far.ev[0].at < s.base+horizonW {
			s.sched.Cascades++
			s.schedule(s.far.popMin())
		}
		if s.head[s.cur] >= 0 {
			s.pour(s.cur)
		}
	}
	return true
}

// nextOccupied returns the first non-empty bucket after the cursor in
// wheel order, wrapping past the last bitmap word. The wheel must hold an
// event; the cursor's own bucket is always empty.
//
//drill:hotpath
func (s *Sim) nextOccupied() int32 {
	b := (s.cur + 1) & wheelMask
	w := b >> 6
	if m := s.occ[w] >> (b & 63); m != 0 {
		return b + int32(bits.TrailingZeros64(m))
	}
	for range occWords {
		w = (w + 1) & (occWords - 1)
		if m := s.occ[w]; m != 0 {
			return w<<6 | int32(bits.TrailingZeros64(m))
		}
	}
	panic("sim: wheel count without an occupied bucket")
}

// pour empties bucket b: Timer-owned entries go through the near heap
// (they keep index tracking so Reset/Stop can still find them); the rest
// fill the exhausted dispatch list in (at, key) order. The bucket's chunks
// go back to the pool.
//
// Every event of a bucket lies in the one window of its revolution (see
// schedule), so its offset at&31 alone orders it by time. A counting pass
// places each event at its offset's slot, keeping storage order within an
// offset — insertion order, nearly key order — and an insertion pass then
// orders each equal-time run by key, which rarely moves anything. The cost
// follows the events and the distinct offsets, not a comparison sort's
// n log n.
//
//drill:hotpath
//drill:allocs 1 dispatch-list growth amortizes; it is refilled from the start at every pour
func (s *Sim) pour(b int32) {
	const offMask = 1<<wheelShift - 1
	s.sched.Pours++
	// Count the untracked events at each offset.
	var end [1 << wheelShift]int32
	var present uint32 // a bit per offset counted
	for c := s.head[b]; c >= 0; c = s.chunks[c].next {
		evs := s.chunks[c].ev[:s.chunks[c].n]
		for i := range evs {
			if evs[i].key&keyTracked != 0 {
				s.near.push(evs[i])
				continue
			}
			off := uint32(evs[i].at) & offMask
			end[off]++
			present |= 1 << off
		}
		s.wcount -= len(evs)
		s.sched.PouredEvents += uint64(len(evs))
	}
	// end[off] becomes the end of off's slots.
	var n int32
	for m := present; m != 0; m &= m - 1 {
		off := bits.TrailingZeros32(m)
		n += end[off]
		end[off] = n
	}
	if int(n) > cap(s.dl) {
		s.dl = make([]event, n, 2*n)
	}
	dl := s.dl[:n]
	s.dl, s.dlHead = dl, 0
	// Fill each offset's slots from the back: newest chunk first, each
	// chunk backwards, so an offset's events keep their storage order.
	for c := s.head[b]; c >= 0; {
		ch := &s.chunks[c]
		evs := ch.ev[:ch.n]
		for i := len(evs) - 1; i >= 0; i-- {
			if evs[i].key&keyTracked == 0 {
				off := uint32(evs[i].at) & offMask
				end[off]--
				dl[end[off]] = evs[i]
			}
		}
		next := ch.next
		s.releaseChunk(c)
		c = next
	}
	s.head[b] = -1
	s.occ[b>>6] &^= 1 << (b & 63)
	// Order each equal-time run by key.
	for i := 1; i < len(dl); i++ {
		if !less(&dl[i], &dl[i-1]) {
			continue
		}
		ev, j := dl[i], i
		for ; j > 0 && less(&ev, &dl[j-1]); j-- {
			dl[j] = dl[j-1]
		}
		dl[j] = ev
	}
}

// Run dispatches events in time order until only observer events remain.
// Keys reserved with ReserveKey count as pending work: with only observer
// events left, Run still dispatches those that sort before the latest
// reserved key, then moves the clock and frontier to it — where a
// scheduler running one event per update would have stopped.
func (s *Sim) Run() {
	for {
		if s.Pending() > s.daemons {
			if !s.ensureNear() {
				return
			}
			s.step()
			continue
		}
		if s.tailKey == 0 || s.Reached(s.tailAt, s.tailKey) {
			return
		}
		if s.ensureNear() && less(s.peek(), &event{at: s.tailAt, key: s.tailKey}) {
			s.step()
			continue
		}
		s.parkAt(s.tailAt, s.tailKey)
		return
	}
}

// RunUntil dispatches events with time <= t, then advances the clock to t
// with the frontier past all of t.
func (s *Sim) RunUntil(t units.Time) {
	for s.ensureNear() && s.peek().at <= t {
		s.step()
	}
	s.parkAt(t, ^uint64(0))
}

// RunBefore dispatches events with time strictly less than t, then
// advances the clock to t with the frontier before every event at t. It is
// the shard window primitive: a shard runs everything inside the window
// [now, t) and parks exactly at the barrier, leaving events at t itself
// for the window that opens there (barriers run global events at t
// first).
func (s *Sim) RunBefore(t units.Time) {
	for s.ensureNear() && s.peek().at < t {
		s.step()
	}
	s.parkAt(t, 0)
}

// NextAt reports the timestamp of the earliest pending event, and whether
// any event is pending at all. The window synchronizer uses it to size the
// next window: min over shards of NextAt plus the lookahead bound is the
// earliest instant any cross-shard effect can land.
func (s *Sim) NextAt() (units.Time, bool) {
	if !s.ensureNear() {
		return 0, false
	}
	return s.peek().at, true
}

// AdvanceTo moves the clock forward to t, with the frontier before every
// event at t, without dispatching anything. It is only correct when no
// pending event lies before t — the window synchronizer uses it to park
// idle shards at a barrier without paying a goroutine dispatch. Moving
// backwards is a no-op.
func (s *Sim) AdvanceTo(t units.Time) { s.parkAt(t, 0) }

// peek returns the earliest pending event; ensureNear must have returned
// true.
//
//drill:hotpath
func (s *Sim) peek() *event {
	if s.dlHead < len(s.dl) && (len(s.near.ev) == 0 || !less(&s.near.ev[0], &s.dl[s.dlHead])) {
		return &s.dl[s.dlHead]
	}
	return &s.near.ev[0]
}

//drill:hotpath
func (s *Sim) step() {
	var ev event
	if s.dlHead < len(s.dl) {
		if len(s.near.ev) > 0 && less(&s.near.ev[0], &s.dl[s.dlHead]) {
			ev = s.near.popMin()
			s.sched.DispatchHeap++
		} else {
			ev = s.dl[s.dlHead]
			s.dlHead++
			s.sched.DispatchList++
		}
	} else {
		ev = s.near.popMin()
		s.sched.DispatchHeap++
	}
	if ev.key&keyDaemon != 0 {
		s.daemons--
	}
	// The frontier follows the dispatch, never backwards: an event that
	// sorts before the frontier (scheduled at this instant under a lower
	// class) leaves it where it is.
	if ev.at != s.now || ev.key > s.front {
		s.now, s.front = ev.at, ev.key
	}
	if ev.key&keySilent == 0 {
		s.Executed++
	}
	if ev.id < 0 {
		s.onPort(^ev.id, ev.key&classMask == classArrival)
		return
	}
	sl := &s.slots[ev.id]
	fn := sl.fn
	if ev.key&keyTracked != 0 {
		// Disarm before running: the callback may immediately Reset.
		sl.timer.tier = tierNone
	}
	s.release(ev.id)
	fn()
}

// wheelRemove deletes slot i of chunk c (a cancelled timer entry) in O(1)
// by swap-removal with the newest entry of its bucket; bucket-internal
// order is irrelevant because a pour orders the bucket by (at, key) before
// dispatch. A newest chunk left empty goes back to the pool.
//
//drill:hotpath
func (s *Sim) wheelRemove(c, i int32) {
	ev := &s.chunks[c].ev[i]
	if ev.id >= 0 {
		if ev.key&keyTracked != 0 {
			s.slots[ev.id].timer.tier = tierNone
		}
		s.release(ev.id)
	}
	b := int32(ev.at>>wheelShift) & wheelMask
	h := s.head[b]
	hc := &s.chunks[h]
	last := hc.n - 1
	if h != c || i != last {
		*ev = hc.ev[last]
		if ev.key&keyTracked != 0 {
			t := s.slots[ev.id].timer
			t.chunk, t.idx = c, i
		}
	}
	hc.n = last
	if last == 0 {
		s.head[b] = hc.next
		s.releaseChunk(h)
		if s.head[b] < 0 {
			s.occ[b>>6] &^= 1 << (b & 63)
		}
	}
	s.wcount--
}

// eventHeap is a hand-rolled 4-ary min-heap keyed on (at, seq).
// container/heap's interface indirection costs measurably at the tens of
// millions of events a single experiment point dispatches. Entries owned
// by a Timer are flagged in their key; their owning timer (found through
// the slot table) has its tier and index kept current through every move,
// so Reset/Stop relocate or delete the live entry instead of abandoning
// tombstones. Because events are pointer-free, every sift swap is a plain
// 24-byte copy with no write barrier.
type eventHeap struct {
	ev   []event
	s    *Sim
	tier int8
}

// setIdx records i as the location of the timer owning ev[i], if any.
//
//drill:hotpath
func (h *eventHeap) setIdx(i int) {
	if ev := &h.ev[i]; ev.key&keyTracked != 0 {
		t := h.s.slots[ev.id].timer
		t.tier = h.tier
		t.idx = int32(i)
	}
}

//drill:hotpath
//drill:allocs 1 heap growth amortizes; capacity is retained across pops
func (h *eventHeap) push(ev event) {
	h.ev = append(h.ev, ev)
	i := len(h.ev) - 1
	h.setIdx(i)
	h.siftUp(i)
}

// The heap is 4-ary rather than binary: half the levels per sift, and the
// four children of a node are contiguous (one or two cache lines), which
// profiles measurably faster than a binary heap at this package's event
// rates. Arity changes the tree shape only — extraction order is still
// strictly (at, seq), which is all determinism needs.

//drill:hotpath
func (h *eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&h.ev[i], &h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		h.setIdx(i)
		h.setIdx(parent)
		i = parent
	}
}

//drill:hotpath
func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		least := i
		end := c + 4
		if end > n {
			end = n
		}
		for ; c < end; c++ {
			if less(&h.ev[c], &h.ev[least]) {
				least = c
			}
		}
		if least == i {
			break
		}
		h.ev[i], h.ev[least] = h.ev[least], h.ev[i]
		h.setIdx(i)
		h.setIdx(least)
		i = least
	}
}

//drill:hotpath
func (h *eventHeap) popMin() event {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	if last > 0 {
		h.setIdx(0)
		h.siftDown(0)
	}
	return top
}

// removeAt deletes ev[i] (a cancelled timer entry) in O(log n).
//
//drill:hotpath
func (h *eventHeap) removeAt(i int) {
	if ev := &h.ev[i]; ev.id >= 0 {
		if ev.key&keyTracked != 0 {
			h.s.slots[ev.id].timer.tier = tierNone
		}
		h.s.release(ev.id)
	}
	last := len(h.ev) - 1
	if i != last {
		h.ev[i] = h.ev[last]
		h.setIdx(i)
	}
	h.ev = h.ev[:last]
	if i != last {
		h.siftUp(i)
		h.siftDown(i)
	}
}

// Timer is a cancellable, re-armable scheduled callback. Unlike At/After —
// which are fire-and-forget — a Timer owns at most one live scheduler
// entry: Reset moves that entry (or creates it) and Stop deletes it, in
// O(1) on the wheel tier and O(log n) on the heap tiers. Re-armed timers
// therefore never accumulate dead events in the scheduler, which is what
// keeps per-flow retransmission timers O(1) in scheduler space no matter
// how many times ACKs re-arm them.
//
// A Timer belongs to the single-threaded Sim that created it; the zero
// value is not usable until Init.
type Timer struct {
	s     *Sim
	fn    func()
	tier  int8  // which tier holds the live entry; tierNone when unarmed
	chunk int32 // wheel chunk (tierWheel only)
	idx   int32 // heap index or chunk slot
}

// NewTimer returns an unarmed timer that runs fn when it fires. The one
// closure allocated here is reused across every Reset for the timer's
// lifetime.
func (s *Sim) NewTimer(fn func()) *Timer {
	t := new(Timer)
	t.Init(s, fn)
	return t
}

// Init makes t an unarmed timer on s that runs fn when it fires: NewTimer
// for a timer held by value inside a longer-lived object, which saves the
// timer its own allocation. Initializing an armed timer panics, since its
// scheduled entry would be lost.
func (t *Timer) Init(s *Sim, fn func()) {
	if fn == nil {
		panic("sim: NewTimer requires a callback")
	}
	if t.Armed() {
		panic("sim: Init of an armed timer")
	}
	*t = Timer{s: s, fn: fn, tier: tierNone, idx: -1}
}

// Armed reports whether the timer is scheduled to fire.
func (t *Timer) Armed() bool { return t.tier != tierNone }

// detach removes the timer's live entry from whichever tier holds it.
//
//drill:hotpath
func (t *Timer) detach() {
	switch t.tier {
	case tierNear:
		t.s.near.removeAt(int(t.idx))
	case tierFar:
		t.s.far.removeAt(int(t.idx))
	case tierWheel:
		t.s.wheelRemove(t.chunk, t.idx)
	}
}

// Reset (re)schedules the timer to fire d from now, cancelling any earlier
// deadline. Like After, the new deadline takes a fresh FIFO tie-break
// sequence number, so a reset timer fires after events already scheduled
// at the same instant.
//
//drill:hotpath
func (t *Timer) Reset(d units.Time) {
	if d < 0 {
		panic("sim: timer reset into the past")
	}
	s := t.s
	if t.tier != tierNone {
		t.detach()
	}
	s.seq++
	s.schedule(event{at: s.now + d, key: classLocal | s.seq<<keyShift | keyTracked, id: s.alloc(t.fn, t)})
}

// Stop cancels the pending firing, if any, removing its scheduler entry
// eagerly. It reports whether a firing was actually cancelled. Stopping an
// unarmed timer is a no-op, so Stop is safe to call unconditionally.
//
//drill:hotpath
func (t *Timer) Stop() bool {
	if t.tier == tierNone {
		return false
	}
	t.detach()
	t.tier = tierNone
	return true
}

// Ticker invokes a read-only callback every interval, as observer events,
// until the simulation drains or stop is requested: the metrics
// snapshotter and the samplers.
type Ticker struct {
	s        *Sim
	interval units.Time
	stop     bool
	fn       func(now units.Time)
}

// NewObserverTicker starts a periodic observer callback with the given
// interval; the first tick fires one interval from now. Ticks never keep
// the simulation alive and never count toward Executed. fn must only read
// simulation state (the observe-never-steer contract); a callback that
// mutated data-plane state or drew from a random stream would break the
// byte-identical guarantee this event class exists to preserve.
func NewObserverTicker(s *Sim, interval units.Time, fn func(now units.Time)) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	s.AfterObserver(interval, t.tick)
	return t
}

// Stop cancels future ticks. Called from fn, it also keeps the current
// tick from arming the next one.
func (t *Ticker) Stop() { t.stop = true }

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn(t.s.Now())
	if t.stop {
		return
	}
	t.s.AfterObserver(t.interval, t.tick)
}
