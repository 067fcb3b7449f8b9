// Conservative time-window synchronizer for sharded simulations.
//
// A sharded run partitions the fabric into shards, each owning a private
// Sim, plus one global Sim for everything that observes or steers more
// than one shard (workload generators, failure injection, samplers,
// daemon tickers). Shards interact only through wire propagation across
// shard-boundary links, whose minimum propagation delay L is the
// lookahead bound: an event a shard executes at time t cannot affect
// another shard before t+L. The synchronizer exploits that bound the
// classic conservative-parallel-DES way — pick the earliest pending event
// time m across all schedulers, let every shard run its private events in
// [T, W) with W = min(m+L, next global event, horizon) concurrently, then
// barrier, exchange the cross-shard packets those windows produced, run
// the global events at the barrier instant, and repeat.
//
// Determinism argument. Dispatch order inside every scheduler is
// (time, key), and keys carry a class in their top bits: global < local <
// arrival at the same instant (see the class constants in sim.go). The
// barrier loop realizes exactly that order globally:
//
//   - Global events at the barrier time T run while every shard is parked
//     at T having dispatched strictly less than T — the same pre-local
//     slot the sequential scheduler gives the global class.
//   - Two local events in the same shard dispatch in that shard's
//     (time, seq) order; the scheduling calls that allocated their seqs
//     run in the same relative order in both engines, so the order
//     matches the sequential engine's restriction to that shard.
//   - Local events in different shards touch disjoint state (separate
//     schedulers, packet pools, RNG streams, stat blocks), so their
//     relative order cannot affect results; per-shard results are folded
//     in shard-ID order afterwards.
//   - A cross-shard arrival's key is ArrivalKey(port, n) — a pure
//     function of the destination port index and the port's departure
//     counter, both engine-invariant — so injecting it at a barrier lands
//     it in exactly the slot the sequential scheduler dispatches it.
//
// The lookahead guarantees no window is ever too wide: an event executed
// in [T, W) departs a boundary link no earlier than m and so arrives no
// earlier than m+L >= W, i.e. always in a later window, always injectable
// at a barrier before the destination shard reaches it.
//
// Settled-when-read state (see Reached) lives in the shard that owns it
// and is read either by that shard's own events or by global events at a
// barrier. Every shard is parked at the barrier instant T with its
// frontier at (T, 0) while the globals at T run — the sequential
// scheduler's pre-local slot again — and after the final, inclusive pass
// every shard's frontier covers all of the horizon, as Sim.RunUntil's
// does.
//
// This file is the one place in the simulation core where goroutines and
// channels are legal (the drillvet nondeterminism analyzer exempts it by
// name): shards run on persistent workers, and the coordinator's channel
// send / WaitGroup handshake provides the happens-before edges that make
// each shard's memory visible to the coordinator at every barrier.
package sim

import (
	"context"
	"math/bits"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"drill/internal/units"
)

// shardCmd tells a worker how far to run its shard: events strictly
// before t (a window) or up to and including t (the final drain pass).
type shardCmd struct {
	t         units.Time
	inclusive bool
}

// ShardStat is one shard's window-protocol telemetry. Windows, Events,
// and Critical are pure functions of the event stream, identical across
// runs of the same seed; BusyNs and StallNs are wall-clock attribution
// (plain nanosecond counts, never sim time) and vary with the machine.
// All fields are written only by the shard's own worker or by the
// coordinator with every worker parked, and folded at barriers — reading
// them from an observer tick is race-free by the barrier happens-before.
type ShardStat struct {
	Windows  uint64 `json:"windows"`          // windows in which this shard dispatched at least one event
	Events   uint64 `json:"events"`           // events dispatched across those windows
	Critical uint64 `json:"critical_windows"` // windows whose width was bounded by this shard's earliest event
	BusyNs   int64  `json:"busy_ns"`          // wall time spent running windows
	StallNs  int64  `json:"stall_ns"`         // wall time parked while a window ran elsewhere

	winBusy int64 // scratch: the current window's busy ns, read at the barrier
}

// WindowStats is the distribution of synchronizer window widths in
// sim-time nanoseconds, log2-bucketed so recording is a pair of integer
// adds. Widths are sim-time differences, so the whole distribution is
// deterministic for a given seed and shard count.
type WindowStats struct {
	Count uint64     // windows opened
	SumNs uint64     // total width
	Bkt   [65]uint64 // Bkt[i] counts widths w with bits.Len64(w) == i
}

func (w *WindowStats) record(ns uint64) {
	w.Count++
	w.SumNs += ns
	w.Bkt[bits.Len64(ns)]++
}

// Quantile returns an upper bound on the q-quantile window width in
// sim-ns: the upper edge of the log2 bucket holding that rank. q outside
// [0,1) is clamped; an empty distribution reports 0.
func (w *WindowStats) Quantile(q float64) uint64 {
	if w.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(w.Count))
	if rank >= w.Count {
		rank = w.Count - 1
	}
	var seen uint64
	for i, c := range w.Bkt {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 0
}

// ShardGroup couples one global scheduler with N shard schedulers under
// the window protocol. Configure the exported fields, call Start, then
// drive it with RunUntil exactly as a sequential run drives Sim.RunUntil;
// Close parks the workers when the run is over.
type ShardGroup struct {
	// Global runs barrier-class events: workload, control plane, daemon
	// tickers, observers. Its clock is the authoritative run clock.
	Global *Sim
	// Shards run the data plane, one goroutine each.
	Shards []*Sim
	// Lookahead is the minimum propagation delay across shard-boundary
	// links; it must be positive or no window could make progress.
	Lookahead units.Time
	// Exchange drains every shard's outbound packet queue into the
	// destination shards' schedulers, in shard-ID order. It is called at
	// barriers only, with all workers parked.
	Exchange func()

	cmds    []chan shardCmd
	wg      sync.WaitGroup
	started bool

	// Window-protocol telemetry, folded at barriers. None of it feeds
	// back into scheduling decisions (observe, never steer): window
	// sizing reads only NextAt and the lookahead, exactly as before.
	stats      []ShardStat
	dispatched []bool // scratch: which shards received the current window
	win        WindowStats
	barriers   uint64

	// Precomputed pprof label contexts: built once at Start so applying
	// a label on the window path is a single SetGoroutineLabels call
	// with no allocation (pprof.Do would allocate per window).
	ctxBarrier  context.Context
	ctxExchange context.Context
	ctxWindow   []context.Context
}

// Start validates the configuration and launches one persistent worker
// per shard. The workers park between windows; their lifetime spans every
// subsequent RunUntil call until Close.
func (g *ShardGroup) Start() {
	if g.started {
		panic("sim: ShardGroup started twice")
	}
	if g.Global == nil || len(g.Shards) == 0 {
		panic("sim: ShardGroup requires a global sim and at least one shard")
	}
	if g.Lookahead <= 0 {
		panic("sim: ShardGroup requires a positive lookahead bound")
	}
	g.cmds = make([]chan shardCmd, len(g.Shards))
	g.stats = make([]ShardStat, len(g.Shards))
	g.dispatched = make([]bool, len(g.Shards))
	g.ctxBarrier = pprof.WithLabels(context.Background(), pprof.Labels("phase", "barrier"))
	g.ctxExchange = pprof.WithLabels(context.Background(), pprof.Labels("phase", "exchange"))
	g.ctxWindow = make([]context.Context, len(g.Shards))
	for i, s := range g.Shards {
		g.ctxWindow[i] = pprof.WithLabels(context.Background(),
			pprof.Labels("shard", strconv.Itoa(i), "phase", "window"))
		ch := make(chan shardCmd)
		g.cmds[i] = ch
		go g.worker(i, s, ch)
	}
	g.started = true
}

// worker runs one shard's windows as commands arrive. The channel receive
// orders the coordinator's barrier-time writes before the window runs,
// and wg.Done orders the window's writes (including the shard's stat
// block) before the coordinator resumes. The wall reads time only how
// long the window took — the value never becomes a sim timestamp and
// never influences scheduling.
func (g *ShardGroup) worker(i int, s *Sim, ch chan shardCmd) {
	pprof.SetGoroutineLabels(g.ctxWindow[i])
	st := &g.stats[i]
	for cmd := range ch {
		start := time.Now() //drill:allow nondeterminism wall-time window telemetry; never converted to sim time
		e0 := s.Executed
		if cmd.inclusive {
			s.RunUntil(cmd.t)
		} else {
			s.RunBefore(cmd.t)
		}
		d := time.Since(start).Nanoseconds() //drill:allow nondeterminism wall-time window telemetry; never converted to sim time
		st.Windows++
		st.Events += s.Executed - e0
		st.BusyNs += d
		st.winBusy = d
		g.wg.Done()
	}
}

// Close terminates the workers. The group cannot be restarted.
func (g *ShardGroup) Close() {
	if !g.started {
		return
	}
	for _, ch := range g.cmds {
		close(ch)
	}
	g.cmds = nil
}

// park moves an idle shard to t: before every event at t for a window,
// past all of t for the inclusive final pass (the shard has nothing at t,
// so RunUntil dispatches nothing).
func park(s *Sim, t units.Time, inclusive bool) {
	if inclusive {
		s.RunUntil(t)
	} else {
		s.AdvanceTo(t)
	}
}

// runShards dispatches one window to every shard that has work before t
// and parks the idle ones at t. A single busy shard runs inline — the
// common case on small topologies, where a goroutine handoff would cost
// more than the window.
func (g *ShardGroup) runShards(t units.Time, inclusive bool) {
	busy := -1
	nBusy := 0
	for i, s := range g.Shards {
		at, ok := s.NextAt()
		if ok && (at < t || (inclusive && at == t)) {
			busy = i
			nBusy++
		}
	}
	if nBusy == 0 {
		for _, s := range g.Shards {
			park(s, t, inclusive)
		}
		return
	}
	if nBusy == 1 {
		start := time.Now() //drill:allow nondeterminism wall-time window telemetry; never converted to sim time
		for i, s := range g.Shards {
			if i == busy {
				pprof.SetGoroutineLabels(g.ctxWindow[i])
				e0 := s.Executed
				if inclusive {
					s.RunUntil(t)
				} else {
					s.RunBefore(t)
				}
				g.stats[i].Windows++
				g.stats[i].Events += s.Executed - e0
				pprof.SetGoroutineLabels(g.ctxBarrier)
			} else {
				park(s, t, inclusive)
			}
		}
		wall := time.Since(start).Nanoseconds() //drill:allow nondeterminism wall-time window telemetry; never converted to sim time
		for i := range g.stats {
			if i == busy {
				g.stats[i].BusyNs += wall
			} else {
				g.stats[i].StallNs += wall
			}
		}
		return
	}
	cmd := shardCmd{t: t, inclusive: inclusive}
	start := time.Now() //drill:allow nondeterminism wall-time window telemetry; never converted to sim time
	for i, s := range g.Shards {
		at, ok := s.NextAt()
		if ok && (at < t || (inclusive && at == t)) {
			g.dispatched[i] = true
			g.wg.Add(1)
			g.cmds[i] <- cmd
		} else {
			g.dispatched[i] = false
			park(s, t, inclusive)
		}
	}
	g.wg.Wait()
	wall := time.Since(start).Nanoseconds() //drill:allow nondeterminism wall-time window telemetry; never converted to sim time
	for i := range g.stats {
		st := &g.stats[i]
		if g.dispatched[i] {
			// The shard ran for winBusy of the window; the rest of the
			// wall time it sat parked waiting for the slowest shard.
			if d := wall - st.winBusy; d > 0 {
				st.StallNs += d
			}
		} else {
			st.StallNs += wall
		}
	}
}

// RunUntil advances the whole group to t: every global event at or before
// t and every shard event at or before t dispatches, in the canonical
// (time, class, key) order, and all clocks end at t. It is the sharded
// equivalent of Sim.RunUntil and may be called repeatedly (measurement
// horizon, then drain horizon) — cross-shard packets still in flight at t
// stay queued in their outboxes and are exchanged on the next call.
func (g *ShardGroup) RunUntil(until units.Time) {
	if !g.started {
		panic("sim: ShardGroup not started")
	}
	pprof.SetGoroutineLabels(g.ctxBarrier)
	defer pprof.SetGoroutineLabels(context.Background())
	T := g.Global.Now()
	for T < until {
		g.barriers++
		pprof.SetGoroutineLabels(g.ctxExchange)
		g.Exchange()
		pprof.SetGoroutineLabels(g.ctxBarrier)
		g.Global.RunUntil(T)

		// Earliest pending event anywhere decides whether a window before
		// `until` remains, and how wide it can safely be. The argmin
		// shard is remembered purely for attribution: if its earliest
		// event ends up bounding the window, it is the critical shard.
		m := until
		ok := false
		if at, o := g.Global.NextAt(); o && at < m {
			m, ok = at, true
		}
		mShard := until
		okShard := false
		crit := -1
		for i, s := range g.Shards {
			if at, o := s.NextAt(); o && at < mShard {
				mShard, okShard, crit = at, true, i
			}
		}
		if okShard && mShard < m {
			m, ok = mShard, true
		}
		if !ok {
			break
		}

		// Window end: nothing cross-shard can land before mShard+L, no
		// shard may run past the next global event (it could steer any
		// shard), and the horizon caps everything.
		W := until
		if okShard && mShard+g.Lookahead < W {
			W = mShard + g.Lookahead
		} else {
			crit = -1 // the horizon, not a shard, bounded this window
		}
		if at, o := g.Global.NextAt(); o && at < W {
			W = at
			crit = -1 // a global event bounded this window
		}
		if crit >= 0 {
			g.stats[crit].Critical++
		}
		g.win.record(uint64(W - T))
		g.runShards(W, false)
		T = W
	}

	// The loop stops early only when nothing is pending before `until`
	// anywhere; park the shards at `until` so the globals there read
	// shard state from the same frontier either way.
	for _, s := range g.Shards {
		s.AdvanceTo(until)
	}

	// Final pass: every clock is at `until` with only events at exactly
	// `until` pending (globals first, then shard events; any arrivals they
	// generate land strictly after `until`).
	g.barriers++
	pprof.SetGoroutineLabels(g.ctxExchange)
	g.Exchange()
	pprof.SetGoroutineLabels(g.ctxBarrier)
	g.Global.RunUntil(until)
	g.runShards(until, true)
}

// Executed sums dispatched events across the global and shard schedulers.
// The mapping of events to schedulers is one-to-one with the sequential
// engine, so this total matches Sim.Executed of an equivalent run.
func (g *ShardGroup) Executed() uint64 {
	n := g.Global.Executed
	for _, s := range g.Shards {
		n += s.Executed
	}
	return n
}

// ShardStats returns a copy of the per-shard window counters. Call it
// only with the workers parked — between RunUntil calls, or from a
// global observer tick, which runs at a barrier — so the barrier
// happens-before makes every worker's writes visible.
func (g *ShardGroup) ShardStats() []ShardStat {
	out := make([]ShardStat, len(g.stats))
	copy(out, g.stats)
	return out
}

// WindowStats returns the window-width distribution recorded so far. The
// same parked-workers caveat as ShardStats applies (the coordinator is
// the only writer, so any caller already serialized with RunUntil is safe).
func (g *ShardGroup) WindowStats() WindowStats { return g.win }

// Barriers reports how many exchange barriers the group has executed.
func (g *ShardGroup) Barriers() uint64 { return g.barriers }
