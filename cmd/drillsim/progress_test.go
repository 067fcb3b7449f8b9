package main

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"drill/internal/obs"
	"drill/internal/units"
)

// syncBuffer serializes writes: the heartbeat goroutine writes while the
// test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// TestHeartbeatLines drives the heartbeat against a hand-populated
// registry playing the part of a mid-flight sweep (2 of 4 cells done, one
// run at 1.5ms sim time) and checks the emitted lines carry every field
// the flag promises: sim time, events/s, cells done/total, and an ETA.
func TestHeartbeatLines(t *testing.T) {
	reg := obs.NewRegistry(4)
	runEv := reg.Gauge("drill_run_events", `exp="x",cell="0"`, "test")
	runEv.Set(5e6)
	reg.Gauge("drill_run_events", `exp="x",cell="1"`, "test").Set(3e6)
	reg.Counter("drill_runner_cells_done_total", `exp="x"`, "test").Add(2)
	reg.Counter("drill_runner_cells_total", `exp="x"`, "test").Add(4)
	reg.Snapshot(1500 * units.Microsecond)

	var out syncBuffer
	hb := startHeartbeat(reg, &out, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(out.String(), "progress:") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	runEv.Set(6e6) // events advance between ticks → non-trivial rate on later lines
	time.Sleep(15 * time.Millisecond)
	hb.Stop()
	got := out.String()

	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], "progress:") {
		t.Fatalf("no heartbeat lines emitted; output: %q", got)
	}
	want := regexp.MustCompile(`progress: sim=1\.50ms ev/s=\S+ cells=2/4 eta=(~\S+|\?)`)
	if !want.MatchString(lines[0]) {
		t.Errorf("heartbeat line %q does not match %v", lines[0], want)
	}

	// Stop must be terminal: no further lines after it returns.
	settled := out.String()
	time.Sleep(20 * time.Millisecond)
	if out.String() != settled {
		t.Error("heartbeat kept writing after Stop")
	}
}

// TestShardSuffix pins the sharded-engine heartbeat tail: aggregate
// barrier stall percentage plus the min..max per-shard event rate across
// every (cell, shard) series — and an empty string when the sweep runs
// the sequential engine and registers no drill_shard_* families at all.
func TestShardSuffix(t *testing.T) {
	reg := obs.NewRegistry(4)
	if got := shardSuffix(reg.Capture(0)); got != "" {
		t.Errorf("suffix without shard families = %q, want empty", got)
	}

	// Two shards of one cell: 2e6 events in 1s busy + 1s stalled, and
	// 8e6 events in 1s busy + 3s stalled → stall = 4/6 = 67%, rates
	// 2e6..8e6.
	labels := func(shard string) string { return `exp="x",cell="0",shard="` + shard + `"` }
	set := func(name, shard string, v float64) { reg.Gauge(name, labels(shard), "test").Set(v) }
	reg.Counter("drill_shard_events_total", labels("0"), "test").Add(2e6)
	set("drill_shard_busy_seconds", "0", 1)
	set("drill_shard_stall_seconds", "0", 1)
	reg.Counter("drill_shard_events_total", labels("1"), "test").Add(8e6)
	set("drill_shard_busy_seconds", "1", 1)
	set("drill_shard_stall_seconds", "1", 3)
	got := shardSuffix(reg.Capture(0))
	want := " stall=67% shard-ev/s=2e+06..8e+06"
	if got != want {
		t.Errorf("shardSuffix = %q, want %q", got, want)
	}
}

// TestHeartbeatShardLine drives the full heartbeat against a registry
// carrying shard families and checks the emitted line ends with the
// sharded tail, alongside the usual fields.
func TestHeartbeatShardLine(t *testing.T) {
	reg := obs.NewRegistry(4)
	reg.Gauge("drill_run_events", `exp="x",cell="0"`, "test").Set(1e6)
	reg.Counter("drill_runner_cells_done_total", `exp="x"`, "test").Add(1)
	reg.Counter("drill_runner_cells_total", `exp="x"`, "test").Add(2)
	reg.Counter("drill_shard_events_total", `exp="x",cell="0",shard="0"`, "test").Add(4e6)
	reg.Gauge("drill_shard_busy_seconds", `exp="x",cell="0",shard="0"`, "test").Set(2)
	reg.Gauge("drill_shard_stall_seconds", `exp="x",cell="0",shard="0"`, "test").Set(2)
	reg.Snapshot(500 * units.Microsecond)

	var out syncBuffer
	hb := startHeartbeat(reg, &out, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(out.String(), "progress:") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	hb.Stop()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 {
		t.Fatalf("no heartbeat lines emitted; output: %q", out.String())
	}
	want := regexp.MustCompile(`progress: sim=\S+ ev/s=\S+ cells=1/2 eta=\S+ stall=50% shard-ev/s=2e\+06\.\.2e\+06$`)
	if !want.MatchString(lines[0]) {
		t.Errorf("heartbeat line %q does not match %v", lines[0], want)
	}
}

// TestSumFamily pins the helper: sums across label sets of one family,
// ignores other families.
func TestSumFamily(t *testing.T) {
	reg := obs.NewRegistry(2)
	reg.Gauge("a", `cell="0"`, "t").Set(1)
	reg.Gauge("a", `cell="1"`, "t").Set(2)
	reg.Gauge("b", ``, "t").Set(40)
	s := reg.Capture(0)
	if got := sumFamily(s, "a"); got != 3 {
		t.Errorf("sumFamily(a) = %v, want 3", got)
	}
	if got := sumFamily(s, "nope"); got != 0 {
		t.Errorf("sumFamily(nope) = %v, want 0", got)
	}
}
