package obs

import (
	"fmt"
	"strings"

	"drill/internal/sim"
)

// Engine observatory report: a plain-data summary of the execution
// substrate — per-shard window/barrier counters, the window-width
// distribution, the cross-shard exchange matrix, and per-scheduler
// internals — assembled by the experiment runner after a run drains (or
// at an observer barrier, for live exposure over /engine.json). The
// struct deliberately holds no pointers into the engine: it is a
// snapshot, safe to marshal, ship, or retain after the run is gone.
//
// Two kinds of numbers coexist here, and consumers must not conflate
// them: counters derived from the event stream (windows, events,
// critical attribution, window widths, exchange traffic, scheduler
// routing) are deterministic — identical across runs of the same seed
// and shard count — while the *Ns wall-clock fields (busy, stall) vary
// with the machine and are for attribution only.

// EngineShard is one shard's row of the report: the shard's own window
// counters (sim.ShardStat).
type EngineShard struct {
	Shard int `json:"shard"`
	sim.ShardStat
}

// EngineSched is one scheduler's internals row: its tier routing,
// dispatch sources and cursor-advancement work (sim.SchedStats), and live
// occupancy.
type EngineSched struct {
	Sched string `json:"sched"` // "seq", "global", "shard0", ...
	sim.SchedStats
	WheelOccupancy int `json:"wheel_occupancy"`
	Pending        int `json:"pending"`
}

// EngineReport is the full engine observatory snapshot for one run.
type EngineReport struct {
	Engine      string        `json:"engine"` // "wheel" or "sharded/N"
	Barriers    uint64        `json:"barriers,omitempty"`
	Shards      []EngineShard `json:"shards,omitempty"`
	WindowCount uint64        `json:"window_count,omitempty"`
	WindowSumNs uint64        `json:"window_sum_ns,omitempty"`
	WindowP50Ns uint64        `json:"window_p50_ns,omitempty"`
	WindowP90Ns uint64        `json:"window_p90_ns,omitempty"`
	WindowP99Ns uint64        `json:"window_p99_ns,omitempty"`
	// Exchange[src][dst] counts cross-shard messages moved at barriers.
	Exchange [][]uint64    `json:"exchange,omitempty"`
	Sched    []EngineSched `json:"sched,omitempty"`
}

// TotalEvents sums events across the shard rows.
func (r *EngineReport) TotalEvents() uint64 {
	var n uint64
	for _, s := range r.Shards {
		n += s.Events
	}
	return n
}

// StallNs sums the shards' wall time parked at barriers. Wall-derived:
// varies run to run.
func (r *EngineReport) StallNs() int64 {
	var n int64
	for _, s := range r.Shards {
		n += s.StallNs
	}
	return n
}

// Exchanged sums the exchange matrix: every cross-shard message moved at
// a barrier.
func (r *EngineReport) Exchanged() uint64 {
	var n uint64
	for _, row := range r.Exchange {
		for _, m := range row {
			n += m
		}
	}
	return n
}

// StallPct reports parked wall time as a percentage of total shard wall
// time (busy + stall) — the synchronizer's overhead headline. Wall-
// derived: varies run to run.
func (r *EngineReport) StallPct() float64 {
	var busy, stall int64
	for _, s := range r.Shards {
		busy += s.BusyNs
		stall += s.StallNs
	}
	if busy+stall == 0 {
		return 0
	}
	return 100 * float64(stall) / float64(busy+stall)
}

// Imbalance is the max/mean ratio of per-shard event counts — 1.0 is a
// perfectly balanced partition. Deterministic: event counts are a pure
// function of the seed and the partition.
func (r *EngineReport) Imbalance() float64 {
	if len(r.Shards) == 0 {
		return 0
	}
	var max, sum uint64
	for _, s := range r.Shards {
		sum += s.Events
		if s.Events > max {
			max = s.Events
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.Shards))
	return float64(max) / mean
}

// evRate is one shard's events per wall second; 0 when it never ran.
func evRate(s EngineShard) float64 {
	if s.BusyNs <= 0 {
		return 0
	}
	return float64(s.Events) / (float64(s.BusyNs) / 1e9)
}

// Format renders the report as the multi-line text block drillsim's
// -engine-report prints. Deterministic columns (events, windows,
// critical, imbalance, window quantiles, exchange) reproduce exactly per
// seed; the wall columns (ev/s, stall%) depend on the machine.
func (r *EngineReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s", r.Engine)
	if len(r.Shards) > 0 {
		fmt.Fprintf(&b, " barriers=%d windows=%d imbalance=%.3f stall=%.1f%%",
			r.Barriers, r.WindowCount, r.Imbalance(), r.StallPct())
	}
	b.WriteByte('\n')
	if r.WindowCount > 0 {
		mean := float64(r.WindowSumNs) / float64(r.WindowCount)
		fmt.Fprintf(&b, "  window width ns: mean=%.0f p50<=%d p90<=%d p99<=%d\n",
			mean, r.WindowP50Ns, r.WindowP90Ns, r.WindowP99Ns)
	}
	for _, s := range r.Shards {
		total := s.BusyNs + s.StallNs
		stallPct := 0.0
		if total > 0 {
			stallPct = 100 * float64(s.StallNs) / float64(total)
		}
		fmt.Fprintf(&b, "  shard %d: events=%d windows=%d critical=%d ev/s=%.3g stall=%.1f%%\n",
			s.Shard, s.Events, s.Windows, s.Critical, evRate(s), stallPct)
	}
	if len(r.Exchange) > 0 {
		b.WriteString("  exchange:")
		any := false
		for src, row := range r.Exchange {
			for dst, n := range row {
				if n > 0 {
					fmt.Fprintf(&b, " %d->%d=%d", src, dst, n)
					any = true
				}
			}
		}
		if !any {
			b.WriteString(" none")
		}
		b.WriteByte('\n')
	}
	for _, sc := range r.Sched {
		fmt.Fprintf(&b, "  sched %s: near=%d wheel=%d far=%d list=%d heap=%d cascades=%d pours=%d poured=%d occupancy=%d pending=%d\n",
			sc.Sched, sc.Near, sc.Wheel, sc.Far, sc.DispatchList, sc.DispatchHeap,
			sc.Cascades, sc.Pours, sc.PouredEvents, sc.WheelOccupancy, sc.Pending)
	}
	return b.String()
}
