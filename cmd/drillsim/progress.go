package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"drill/internal/obs"
)

// heartbeat prints one sweep-progress line per wall interval, driven
// entirely by the shared metrics registry: the sim time of the most
// recently published snapshot, live events/s summed across running cells,
// cells done/total, and an ETA extrapolated from the completed-cell rate.
// It reads only atomics and immutable published snapshots, so it can never
// perturb a run — and main refuses to start it at -workers 1, keeping
// sequential determinism runs byte-for-byte silent on the sim side.
type heartbeat struct {
	reg  *obs.Registry
	out  io.Writer
	stop chan struct{}
	done chan struct{}
}

// startHeartbeat emits a progress line to out every `every` (1s in main;
// tests shrink it).
func startHeartbeat(reg *obs.Registry, out io.Writer, every time.Duration) *heartbeat {
	hb := &heartbeat{reg: reg, out: out, stop: make(chan struct{}), done: make(chan struct{})}
	go hb.loop(every)
	return hb
}

// Stop ends the heartbeat and waits for its goroutine, so no line can
// interleave with the final report.
func (hb *heartbeat) Stop() {
	close(hb.stop)
	<-hb.done
}

func (hb *heartbeat) loop(every time.Duration) {
	defer close(hb.done)
	tick := time.NewTicker(every) //drill:allow simtime wall-clock heartbeat cadence, never a sim timestamp
	defer tick.Stop()
	start := time.Now() //drill:allow simtime wall-clock ETA baseline, never a sim timestamp
	last := start
	var lastEvents float64
	for {
		select {
		case <-hb.stop:
			return
		case now := <-tick.C:
			snap := hb.reg.Capture(0)
			events := sumFamily(snap, "drill_run_events")
			rate := 0.0
			if dt := now.Sub(last).Seconds(); dt > 0 {
				rate = (events - lastEvents) / dt
			}
			last, lastEvents = now, events

			done := sumFamily(snap, "drill_runner_cells_done_total")
			total := sumFamily(snap, "drill_runner_cells_total")
			simT := "-"
			if l := hb.reg.Latest(); l != nil {
				simT = fmt.Sprintf("%.2fms", l.SimTime.Millis())
			}
			eta := "?"
			if elapsed := now.Sub(start); done > 0 && total > done {
				left := time.Duration(float64(elapsed) / done * (total - done))
				eta = "~" + left.Round(time.Second).String()
			} else if total > 0 && done >= total {
				eta = "0s"
			}
			fmt.Fprintf(hb.out, "  progress: sim=%s ev/s=%.3g cells=%.0f/%.0f eta=%s%s\n",
				simT, rate, done, total, eta, shardSuffix(snap))
		}
	}
}

// sumFamily totals a metric family across every label set in the snapshot,
// e.g. per-cell run-event gauges or per-experiment runner counters.
func sumFamily(s *obs.Snapshot, name string) float64 {
	var sum float64
	for i := range s.Points {
		if s.Points[i].Name == name {
			sum += s.Points[i].Value
		}
	}
	return sum
}

// shardSuffix renders the sharded-engine tail of a heartbeat line from the
// drill_shard_* families: aggregate barrier stall %% and the min..max
// per-shard event rate across every (cell, shard) series. Sequential
// sweeps register none of these families, so the suffix is empty and the
// heartbeat line is unchanged.
func shardSuffix(s *obs.Snapshot) string {
	type row struct{ events, busy, stall float64 }
	rows := map[string]*row{}
	get := func(labels string) *row {
		r := rows[labels]
		if r == nil {
			r = &row{}
			rows[labels] = r
		}
		return r
	}
	for i := range s.Points {
		p := &s.Points[i]
		switch p.Name {
		case "drill_shard_events_total":
			get(p.Labels).events = p.Value
		case "drill_shard_busy_seconds":
			get(p.Labels).busy = p.Value
		case "drill_shard_stall_seconds":
			get(p.Labels).stall = p.Value
		}
	}
	if len(rows) == 0 {
		return ""
	}
	// Aggregates only — min, max, sums — so the map's iteration order
	// cannot show through.
	var busy, stall float64
	minRate, maxRate := math.Inf(1), 0.0
	for _, r := range rows {
		busy += r.busy
		stall += r.stall
		if r.busy > 0 {
			rate := r.events / r.busy
			minRate = math.Min(minRate, rate)
			maxRate = math.Max(maxRate, rate)
		}
	}
	var b strings.Builder
	if busy+stall > 0 {
		fmt.Fprintf(&b, " stall=%.0f%%", 100*stall/(busy+stall))
	}
	if maxRate > 0 {
		fmt.Fprintf(&b, " shard-ev/s=%.3g..%.3g", minRate, maxRate)
	}
	return b.String()
}
