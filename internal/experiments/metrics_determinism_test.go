package experiments

import (
	"fmt"
	"strings"
	"testing"

	"drill/internal/obs"
	"drill/internal/units"
)

// findPoint returns the value of a scalar series in a snapshot, or -1.
func findPoint(s *obs.Snapshot, name, labels string) float64 {
	for i := range s.Points {
		if s.Points[i].Name == name && s.Points[i].Labels == labels {
			return s.Points[i].Value
		}
	}
	return -1
}

// TestSweepWithMetricsIsByteIdentical runs a whole sweep fan-out with and
// without a shared registry (and manifest collection) and compares every
// cell's provenance record — the sweep-level version of the proof, covering the
// runner-metrics done hooks and per-cell scope assignment too.
func TestSweepWithMetricsIsByteIdentical(t *testing.T) {
	cfgs := tinySweepCfgs()

	plainOpts := Options{Workers: 2}
	plain := plainOpts.runAll(append([]RunCfg(nil), cfgs...), nil)

	reg := obs.NewRegistry(16)
	man := obs.NewManifest("test-sweep", 1)
	obsOpts := Options{Workers: 2, ExpID: "tiny", Obs: reg, Manifest: man}
	instr := obsOpts.runAll(append([]RunCfg(nil), cfgs...), nil)

	for i := range cfgs {
		got, want := instr[i].Prov, plain[i].Prov
		// Wall-derived fields are the one legit difference between runs.
		got.WallNs, want.WallNs = 0, 0
		if got != want {
			t.Errorf("cell %d: sweep with metrics differs:\nwith:    %+v\nwithout: %+v", i, got, want)
		}
	}
	if len(man.Cells) != len(cfgs) {
		t.Fatalf("manifest has %d cells, want %d", len(man.Cells), len(cfgs))
	}
	for i, c := range man.Cells {
		if c.Exp != "tiny" || c.Cell != fmt.Sprint(i) {
			t.Errorf("manifest cell %d mislabelled: %+v", i, c)
		}
		if c.ConfigHash == "" || c.Events == 0 {
			t.Errorf("manifest cell %d incomplete: %+v", i, c)
		}
		if c.Events != plain[i].Events {
			t.Errorf("manifest cell %d events %d, run had %d", i, c.Events, plain[i].Events)
		}
	}
	if reg.Latest() == nil {
		t.Fatal("sweep registry never published a snapshot")
	}
	// A run's final snapshot precedes its own done callback, so the last
	// published snapshot can trail the runner counters by one cell; a
	// fresh capture sees the settled state.
	final := reg.Capture(0)
	if done := findPoint(final, "drill_runner_cells_done_total", `exp="tiny"`); done != float64(len(cfgs)) {
		t.Errorf("runner cells-done = %v, want %d", done, len(cfgs))
	}
	if total := findPoint(final, "drill_runner_cells_total", `exp="tiny"`); total != float64(len(cfgs)) {
		t.Errorf("runner cells-total = %v, want %d", total, len(cfgs))
	}
	// Prometheus reserves the _total suffix for counters.
	for _, p := range final.Points {
		if strings.HasSuffix(p.Name, "_total") && p.Kind != obs.KindCounter {
			t.Errorf("%s{%s} is a %v, want a counter", p.Name, p.Labels, p.Kind)
		}
	}
}

// TestProvenanceIsDeterministic pins the provenance record itself: same
// config, same hash and counters, run after run — and a different seed, or
// a byte-identical engine choice (the shard count), yields a different
// hash.
func TestProvenanceIsDeterministic(t *testing.T) {
	cfg := tinySweepCfgs()[0]
	a, b := Run(cfg), Run(cfg)
	// Wall-derived fields are the one legit difference between runs.
	a.Prov.WallNs, b.Prov.WallNs = 0, 0
	a.Prov.StallNs, b.Prov.StallNs = 0, 0
	if a.Prov != b.Prov {
		t.Errorf("provenance differs across identical runs:\n%+v\n%+v", a.Prov, b.Prov)
	}
	for name, flip := range map[string]func(*RunCfg){
		"seed":   func(c *RunCfg) { c.Seed += 1000 },
		"Shards": func(c *RunCfg) { c.Shards = 2 },
	} {
		other := cfg
		flip(&other)
		if Run(other).Prov.ConfigHash == a.Prov.ConfigHash {
			t.Errorf("flipping %s left the config hash unchanged", name)
		}
	}
}

// TestFinalSnapshotKeepsUtilization pins the utilization a run leaves
// behind for /metrics: a run that ends exactly on a snapshot tick publishes
// its final snapshot over a zero-length window, which must keep the tick's
// per-port utilization rather than zero it.
func TestFinalSnapshotKeepsUtilization(t *testing.T) {
	cfg := tinySweepCfgs()[1]
	cfg.Load = 0.8
	cfg.DrainLimit = 100 * units.Microsecond
	cfg.Obs = obs.NewRegistry(64)
	cfg.ObsSample = 50 * units.Microsecond
	Run(cfg)
	ring := cfg.Obs.Ring()
	if len(ring) < 2 {
		t.Fatalf("%d snapshots published, want at least 2", len(ring))
	}
	tick, final := ring[len(ring)-2], ring[len(ring)-1]
	if tick.SimTime != final.SimTime {
		t.Fatalf("run ended at %v, off its last tick at %v: the case under test did not arise", final.SimTime, tick.SimTime)
	}
	var sum float64
	for i := range tick.Points {
		p, q := &tick.Points[i], &final.Points[i]
		if p.Name != "drill_port_utilization" {
			continue
		}
		if q.Value != p.Value {
			t.Fatalf("%s{%s}: final snapshot %v, tick %v", p.Name, p.Labels, q.Value, p.Value)
		}
		sum += q.Value
	}
	if sum == 0 {
		t.Error("zero utilization on every port")
	}
}
