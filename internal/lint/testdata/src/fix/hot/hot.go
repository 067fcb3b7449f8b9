// Package hot exercises the hotpath analyzer: nil-tracer guards on
// emissions, and allocation bans inside //drill:hotpath functions.
package hot

import (
	"fmt"

	"drill/internal/obs"
	"drill/internal/sim"
	"drill/internal/trace"
)

type port struct {
	tr *trace.Tracer
	q  []int64
}

func (p *port) guarded(seq int64) {
	if p.tr != nil {
		p.tr.Packet(trace.Send, seq) // guarded: this is the idiom
	}
	if seq > 0 && p.tr != nil {
		p.tr.Emit(trace.Event{Seq: seq}) // guard within && conjunction
	}
	tr := p.tr
	if tr != nil {
		tr.Flow(trace.Send, seq) // local alias, same guard
	}
}

func (p *port) unguarded(seq int64) {
	p.tr.Packet(trace.Send, seq) // want `unguarded trace emission`
	if seq > 0 {
		p.tr.Emit(trace.Event{Seq: seq}) // want `unguarded trace emission`
	}
	if p.tr != nil || seq > 0 {
		p.tr.Sample(trace.Send, seq) // want `unguarded trace emission`
	}
	if p.tr != nil {
		_ = seq
	} else {
		p.tr.Emit(trace.Event{}) // want `unguarded trace emission`
	}
}

func (p *port) nonEmission() int64 {
	return p.tr.Count(trace.Send) // not an emission method: no guard required
}

// enqueue is on the per-packet path; it may not allocate.
//
//drill:hotpath
func (p *port) enqueue(seq int64, v int) string {
	s := fmt.Sprintf("pkt %d", seq) // want `fmt.Sprintf allocates on the packet hot path`
	s = s + "!"                     // want `string concatenation allocates`
	s += "?"                        // want `string concatenation allocates`
	var b any = v                   // want `value of type int boxed into interface`
	box(v)                          // want `value of type int boxed into interface`
	_ = b
	p.q = append(p.q, seq) // append to a concrete slice is allowed
	return s
}

//drill:hotpath
func ret(v int) any {
	return v // want `value of type int boxed into interface`
}

//drill:hotpath
func guardedInvariant(p *port, seq int64) {
	if seq < 0 {
		// The crash path is cold: panic messages may format and box.
		panic(fmt.Sprintf("negative seq %d", seq))
	}
}

//drill:hotpath
func clean(p *port, seq int64) int64 {
	if p.tr != nil {
		p.tr.Packet(trace.Send, seq)
	}
	var x any = nil // nil carries no allocation
	_ = x
	return seq + int64(len(p.q))
}

//drill:hotpath
func allowed(v int) {
	_ = fmt.Sprint(v) //drill:allow hotpath cold branch, taken once per run
}

// coldPath is unmarked: allocation is fine off the hot path.
func coldPath(v int) string {
	return fmt.Sprintf("%d", v)
}

func box(x any) {}

// met mirrors the shape of a real metrics handle such as transport's:
// EnableMetrics populates every instrument field together, so guarding
// the handle guards them all.
type met struct {
	delivered *obs.Counter
	qdepth    *obs.Gauge
	fct       *obs.Histogram
	drops     []*obs.Counter
}

type sw struct {
	met *met
}

// deliver is on the per-packet path; obs emissions must be nil-guarded.
//
//drill:hotpath
func (s *sw) deliver(hop int, v float64) {
	if s.met != nil {
		s.met.delivered.Inc()   // guarded via the handle prefix
		s.met.drops[hop].Add(1) // indexed instrument, same prefix guard
		s.met.qdepth.Set(v)
		s.met.fct.Observe(v)
	}
	if m := s.met; m != nil {
		m.delivered.Inc() // local alias, same guard
	}
	s.met.delivered.Inc() // want `unguarded metrics emission`
	if v > 0 {
		s.met.qdepth.Add(v) // want `unguarded metrics emission`
	}
	if s.met != nil || v > 0 {
		s.met.fct.Observe(v) // want `unguarded metrics emission`
	}
}

// readback is hot but only reads: non-emission methods need no guard.
//
//drill:hotpath
func (s *sw) readback() int64 {
	return s.met.delivered.Value()
}

// coldEmit is unmarked: the obs guard rule binds only //drill:hotpath
// functions (registration and teardown code may emit unguarded).
func (s *sw) coldEmit() {
	s.met.delivered.Inc()
}

// allowedEmit shows the audited escape hatch.
//
//drill:hotpath
func (s *sw) allowedEmit() {
	s.met.delivered.Inc() //drill:allow hotpath warm-up emission, runs once before the packet loop
}

// Engine-telemetry shape: plain integer counter fields bumped on the
// dispatch path — scheduler tier counters, per-shard stat blocks, the
// exchange matrix — are not emissions and need no guard; only instrument
// and tracer method calls do. The instrument sitting next to them keeps
// its guard obligation.

type schedStats struct {
	near, wheel, far uint64
}

type engine struct {
	sched schedStats
	exch  [][]uint64
	met   *met
}

//drill:hotpath
func (e *engine) route(tier, src, dst int) {
	switch tier {
	case 0:
		e.sched.near++
	case 1:
		e.sched.wheel++
	default:
		e.sched.far++
	}
	e.exch[src][dst]++ // indexed matrix bump: plain integer, no guard, no alloc
	if e.met != nil {
		e.met.delivered.Inc() // the adjacent instrument still needs its guard
	}
	e.met.qdepth.Set(1) // want `unguarded metrics emission`
}

// Closure-scheduling rule: function literals handed to internal/sim
// scheduling calls allocate per event.

type ring struct {
	s  *sim.Sim
	tm *sim.Timer
	n  int64
}

// arm is on the per-packet path; it may not allocate a closure per event.
//
//drill:hotpath
func (r *ring) arm(d int64) {
	r.s.After(d, func() { r.n++ })    // want `closure passed to sim.After allocates per scheduled event`
	r.s.AtSeq(d, 1, func() { r.n++ }) // want `closure passed to sim.AtSeq allocates per scheduled event`
	r.s.AtPort(d, 0, 1)               // port event: the sanctioned zero-alloc shape
	r.tm.Reset(d)                     // reusable timer: equally fine
	fire := r.fire
	r.s.After(d, fire)             // method value bound once outside the call: no literal
	r.s.After(d, func() { r.n++ }) //drill:allow hotpath fixture: proves the pragma escape works
}

func (r *ring) fire() { r.n++ }

// setup is unmarked: closures at wiring time are how OnPort and NewTimer
// are meant to be used.
func setup(s *sim.Sim, r *ring) {
	s.OnPort(func(int32, bool) { r.n++ })
	r.tm = s.NewTimer(func() { r.n++ })
}
