package experiments

import (
	"strings"
	"testing"

	"drill/internal/obs"
	"drill/internal/units"
)

// engineSeries counts the snapshot's series per engine-observatory family
// prefix (drill_shard_, drill_sched_, drill_window_).
func engineSeries(s *obs.Snapshot, prefix string) int {
	n := 0
	for i := range s.Points {
		if strings.HasPrefix(s.Points[i].Name, prefix) {
			n++
		}
	}
	return n
}

// TestEngineObsOptIn pins the engine observatory's series set: attaching
// an Obs registry registers the full observatory, shaped by the engine
// and populated by the run, with every family named *_total a counter.
func TestEngineObsOptIn(t *testing.T) {
	cfg := tinySweepCfgs()[1]
	cfg.Shards = 2

	instr := cfg
	instr.Obs = obs.NewRegistry(8)
	instr.ObsScope = `cell="0"`
	instr.ObsSample = 50 * units.Microsecond
	res := Run(instr)
	snap := instr.Obs.Capture(0)
	nsh := len(res.EngineRep.Shards)
	if nsh == 0 {
		t.Fatal("sharded run produced no shard rows")
	}
	// 5 per-shard families plus the src×dst exchange family.
	if want := 5*nsh + nsh*nsh; engineSeries(snap, "drill_shard_") != want {
		t.Errorf("drill_shard_* series = %d, want %d", engineSeries(snap, "drill_shard_"), want)
	}
	// 10 scheduler internals for the global scheduler and each shard.
	if want := 10 * (nsh + 1); engineSeries(snap, "drill_sched_") != want {
		t.Errorf("drill_sched_* series = %d, want %d", engineSeries(snap, "drill_sched_"), want)
	}
	if got := engineSeries(snap, "drill_window_"); got != 6 {
		t.Errorf("drill_window_* series = %d, want 6", got)
	}
	if v := findPoint(snap, "drill_window_barriers_total", instr.ObsScope); v <= 0 {
		t.Errorf("drill_window_barriers_total = %v, want > 0", v)
	}
	// Prometheus reserves the _total suffix for counters.
	for _, p := range snap.Points {
		if strings.HasSuffix(p.Name, "_total") && p.Kind != obs.KindCounter {
			t.Errorf("%s{%s} is a %v, want a counter", p.Name, p.Labels, p.Kind)
		}
	}

	// Sequential: only the single seq scheduler row.
	seq := cfg
	seq.Shards = 0
	seq.Obs = obs.NewRegistry(8)
	seq.ObsScope = `cell="0"`
	seq.ObsSample = 50 * units.Microsecond
	Run(seq)
	snap = seq.Obs.Capture(0)
	if n := engineSeries(snap, "drill_shard_") + engineSeries(snap, "drill_window_"); n != 0 {
		t.Errorf("sequential run registered %d shard/window series, want 0", n)
	}
	if got := engineSeries(snap, "drill_sched_"); got != 10 {
		t.Errorf("sequential drill_sched_* series = %d, want 10", got)
	}
	if v := findPoint(snap, "drill_sched_dispatch_list_total", obs.JoinLabels(seq.ObsScope, `sched="seq"`)); v <= 0 {
		t.Errorf("seq dispatch-list counter = %v, want > 0", v)
	}
}

// TestEngineReport checks the post-run report every RunResult carries:
// engine naming, shard/window/exchange population on the sharded engine,
// the single scheduler row on the sequential one, and exact
// reproducibility of the deterministic fields (and of Format once the
// wall columns are zeroed).
func TestEngineReport(t *testing.T) {
	cfg := tinySweepCfgs()[0]

	seqRep := Run(cfg).EngineRep
	if seqRep == nil || seqRep.Engine != "sequential" {
		t.Fatalf("sequential engine report: %+v", seqRep)
	}
	if len(seqRep.Shards) != 0 || len(seqRep.Sched) != 1 || seqRep.Sched[0].Sched != "seq" {
		t.Fatalf("sequential report shape wrong: %+v", seqRep)
	}
	if seqRep.Sched[0].DispatchList+seqRep.Sched[0].DispatchHeap == 0 {
		t.Error("sequential report saw no dispatches")
	}

	cfg.Shards = 2
	a, b := Run(cfg), Run(cfg)
	rep := a.EngineRep
	if rep.Engine != "sharded/2" {
		t.Fatalf("engine = %q, want sharded/2", rep.Engine)
	}
	nsh := len(rep.Shards)
	if nsh == 0 || rep.Barriers == 0 || rep.WindowCount == 0 {
		t.Fatalf("sharded report underpopulated: %+v", rep)
	}
	if len(rep.Sched) != nsh+1 {
		t.Fatalf("sched rows = %d, want %d", len(rep.Sched), nsh+1)
	}
	if len(rep.Exchange) != nsh {
		t.Fatalf("exchange matrix is %d rows, want %d", len(rep.Exchange), nsh)
	}
	var crossTraffic uint64
	for src, row := range rep.Exchange {
		for dst, v := range row {
			if src != dst {
				crossTraffic += v
			}
		}
	}
	if crossTraffic == 0 {
		t.Error("exchange matrix shows no cross-shard traffic on a multi-leaf topology")
	}
	if im := rep.Imbalance(); im < 1 {
		t.Errorf("imbalance = %v, want >= 1 (max/mean)", im)
	}

	// Deterministic reproducibility: zero the wall columns and require the
	// rest — including the rendered report — to match byte for byte.
	scrub := func(r *obs.EngineReport) {
		for i := range r.Shards {
			r.Shards[i].BusyNs, r.Shards[i].StallNs = 0, 0
		}
	}
	scrub(a.EngineRep)
	scrub(b.EngineRep)
	if got, want := a.EngineRep.Format(), b.EngineRep.Format(); got != want {
		t.Errorf("engine report not reproducible:\n--- run a\n%s--- run b\n%s", got, want)
	}

	// The provenance summary carries the deterministic slice of the report.
	if a.Prov.Windows != rep.WindowCount || a.Prov.Imbalance != rep.Imbalance() {
		t.Errorf("provenance windows/imbalance (%d, %v) != report (%d, %v)",
			a.Prov.Windows, a.Prov.Imbalance, rep.WindowCount, rep.Imbalance())
	}
}
