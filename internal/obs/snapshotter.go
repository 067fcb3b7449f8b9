package obs

import (
	"drill/internal/sim"
	"drill/internal/units"
)

// Snapshotter periodically publishes registry snapshots on simulated
// time. It rides on sim.NewObserverTicker, so its events neither keep the
// simulation alive nor count toward Executed: a run with a snapshotter
// attached reports the same event totals — and the same every-other-byte
// results — as one without. That is the observe-never-steer contract.
//
// A run registers its series on its snapshotter as reads of counters it
// keeps anyway, in the shape of client_golang's CounterFunc and
// GaugeFunc. At every tick the snapshotter runs the shared-work hooks,
// evaluates each read on the run's own simulator goroutine — under the
// sharded engine a tick is a window barrier, every shard parked — and
// stores the values in the registry's instruments before publishing.
// Scrapes, heartbeats and other runs sharing the registry therefore only
// ever read atomics; the registry never calls a read.
type Snapshotter struct {
	reg     *Registry
	ticker  *sim.Ticker
	prepare []func(now units.Time)
	reads   []func()
}

// StartSnapshotter publishes a snapshot of reg every interval of
// simulated time, evaluating the reads registered on it first. The first
// snapshot fires one interval in; Final publishes the last one.
func StartSnapshotter(s *sim.Sim, reg *Registry, every units.Time) *Snapshotter {
	sn := &Snapshotter{reg: reg}
	sn.ticker = sim.NewObserverTicker(s, every, func(now units.Time) { sn.publish(now) })
	return sn
}

// CounterFunc registers the counter series (name, labels) as a read:
// read returns the run's running total, which each tick stores as the
// series' value.
func (sn *Snapshotter) CounterFunc(name, labels, help string, read func() int64) {
	c := sn.reg.Counter(name, labels, help)
	sn.reads = append(sn.reads, func() { c.v.Store(read()) })
}

// GaugeFunc registers the gauge series (name, labels) as a read of its
// current value.
func (sn *Snapshotter) GaugeFunc(name, labels, help string, read func() float64) {
	g := sn.reg.Gauge(name, labels, help)
	sn.reads = append(sn.reads, func() { g.Set(read()) })
}

// Prepare registers work several reads share — a utilization window, a
// report the reads index into — to run at every tick before any read.
// Like the reads, it may only read simulation state.
func (sn *Snapshotter) Prepare(fn func(now units.Time)) {
	sn.prepare = append(sn.prepare, fn)
}

func (sn *Snapshotter) publish(now units.Time) *Snapshot {
	for _, fn := range sn.prepare {
		fn(now)
	}
	for _, read := range sn.reads {
		read()
	}
	return sn.reg.Snapshot(now)
}

// Final publishes one last snapshot at the given time, outside the ticker
// cadence, then stops the ticker and drops the reads: the registry keeps
// the run's last values, not the run. Runs call it after the drain phase
// so the terminal state is visible even if the run ended mid-interval.
func (sn *Snapshotter) Final(now units.Time) *Snapshot {
	s := sn.publish(now)
	sn.ticker.Stop()
	sn.prepare, sn.reads = nil, nil
	return s
}
