// Package obs is the simulator's live-metrics substrate: a typed registry
// of counters, gauges, and log-bucketed mergeable histograms with
// zero-allocation hot-path updates, plus sim-time snapshots that expose a
// running experiment's state to the serving layer (obshttp) without
// perturbing the simulation.
//
// The design mirrors internal/trace's zero-overhead discipline and adds
// one invariant on top of it: metrics observe, never steer. Instruments
// are updated with plain atomic scalar operations (no locks, no
// allocation, no RNG draws, no event scheduling), snapshots are captured
// on the simulator goroutine by an observer ticker whose events are
// excluded from event accounting (sim.NewObserverTicker), and the HTTP
// server only ever reads immutable published snapshots. Enabling the
// whole stack therefore changes no result byte — a determinism test holds
// runs with metrics on and off to identical fingerprints.
//
// Concurrency: instrument updates are atomic, so one registry may be
// shared by concurrent simulation runs (sweep fan-out) and scraped from a
// server goroutine at any time. Registration is mutex-guarded and
// idempotent: asking for an existing (name, labels) series returns the
// same instrument, so repeated sweeps reuse series instead of colliding.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"drill/internal/units"
)

// Kind distinguishes instrument types in snapshots and exposition.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "kind(?)"
}

// Counter is a monotonically increasing integer. The zero value is ready
// to use; updates are a single atomic add — zero allocations, safe from
// any goroutine.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//drill:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotone).
//
//drill:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Advance adds the growth of a running total the simulation keeps itself
// since the previous call, whose total *last holds. Refresh hooks use it
// to derive counters from data-plane state instead of counting twice;
// adding the delta rather than storing the total lets several runs share
// one series and still sum.
func (c *Counter) Advance(total int64, last *int64) {
	if d := total - *last; d > 0 {
		c.Add(d)
		*last = total
	}
}

// Gauge is an instantaneous float64 value. The zero value is ready to
// use; Set is a single atomic store, Add a CAS loop — zero allocations.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
//
//drill:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the value.
//
//drill:hotpath
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// instrument is one registered series.
type instrument struct {
	name   string
	labels string // pre-rendered `k="v",k2="v2"` body, "" for none
	help   string
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry owns a set of named instruments and a ring of published
// snapshots. Registration is cheap but not hot-path: call it at setup,
// keep the returned pointers, and update those on the hot path behind a
// nil check on the owning metrics struct.
type Registry struct {
	mu    sync.Mutex
	insts []instrument
	index map[string]int

	ring    []*Snapshot // newest-last, capped at ringCap
	ringCap int
	seq     int64
	latest  atomic.Pointer[Snapshot]
}

// NewRegistry builds an empty registry keeping the last ringCap snapshots
// (<= 0 selects the default of 16).
func NewRegistry(ringCap int) *Registry {
	if ringCap <= 0 {
		ringCap = 16
	}
	return &Registry{index: map[string]int{}, ringCap: ringCap}
}

// seriesKey identifies a series; \xff cannot occur in metric names.
func seriesKey(name, labels string) string { return name + "\xff" + labels }

// lookup returns the existing instrument index for the series, or -1.
// Callers hold r.mu.
func (r *Registry) lookup(name, labels string, kind Kind) int {
	i, ok := r.index[seriesKey(name, labels)]
	if !ok {
		return -1
	}
	if r.insts[i].kind != kind {
		panic(fmt.Sprintf("obs: series %s{%s} re-registered as %v, was %v",
			name, labels, kind, r.insts[i].kind))
	}
	return i
}

func (r *Registry) add(inst instrument) {
	r.index[seriesKey(inst.name, inst.labels)] = len(r.insts)
	r.insts = append(r.insts, inst)
}

// Counter returns the counter series (name, labels), creating it if
// needed. labels is a pre-rendered Prometheus label body such as
// `port="3",hop="hop1-up"`, or "" for none.
func (r *Registry) Counter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.lookup(name, labels, KindCounter); i >= 0 {
		return r.insts[i].c
	}
	c := &Counter{}
	r.add(instrument{name: name, labels: labels, help: help, kind: KindCounter, c: c})
	return c
}

// Gauge returns the gauge series (name, labels), creating it if needed.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.lookup(name, labels, KindGauge); i >= 0 {
		return r.insts[i].g
	}
	g := &Gauge{}
	r.add(instrument{name: name, labels: labels, help: help, kind: KindGauge, g: g})
	return g
}

// Histogram returns the histogram series (name, labels), creating it if
// needed.
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.lookup(name, labels, KindHistogram); i >= 0 {
		return r.insts[i].h
	}
	h := &Histogram{}
	r.add(instrument{name: name, labels: labels, help: help, kind: KindHistogram, h: h})
	return h
}

// Point is one series' value in a snapshot. Exactly one of Value (counter
// and gauge) or Hist (histogram) is meaningful, per Kind.
type Point struct {
	Name   string
	Labels string
	Help   string
	Kind   Kind
	Value  float64
	Hist   *HistogramData
}

// Snapshot is an immutable copy of every registered series at one moment
// of simulated time. Snapshots are value copies: once published they are
// never written again, so any goroutine may read them freely.
type Snapshot struct {
	Seq     int64      // publication sequence number, 1-based
	SimTime units.Time // simulated capture time of the snapshotting run
	Points  []Point
}

// Capture copies the current value of every series without publishing.
func (r *Registry) Capture(now units.Time) *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{SimTime: now, Points: make([]Point, 0, len(r.insts))}
	for _, in := range r.insts {
		p := Point{Name: in.name, Labels: in.labels, Help: in.help, Kind: in.kind}
		switch in.kind {
		case KindCounter:
			p.Value = float64(in.c.Value())
		case KindGauge:
			p.Value = in.g.Value()
		case KindHistogram:
			p.Hist = in.h.Data()
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// Snapshot captures the current state, appends it to the ring, and
// publishes it as the latest. It returns the published snapshot.
func (r *Registry) Snapshot(now units.Time) *Snapshot {
	s := r.Capture(now)
	r.mu.Lock()
	r.seq++
	s.Seq = r.seq
	r.ring = append(r.ring, s)
	if len(r.ring) > r.ringCap {
		copy(r.ring, r.ring[len(r.ring)-r.ringCap:])
		r.ring = r.ring[:r.ringCap]
	}
	r.mu.Unlock()
	r.latest.Store(s)
	return s
}

// Latest returns the most recently published snapshot, or nil before the
// first Snapshot call.
func (r *Registry) Latest() *Snapshot { return r.latest.Load() }

// Ring returns the retained snapshots, oldest first.
func (r *Registry) Ring() []*Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Snapshot, len(r.ring))
	copy(out, r.ring)
	return out
}

// Series reports how many series are registered.
func (r *Registry) Series() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.insts)
}
