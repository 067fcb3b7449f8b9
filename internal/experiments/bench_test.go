package experiments

import (
	"fmt"
	"testing"

	"drill/internal/trace"
	"drill/internal/units"
)

// benchSweepCfgs is a small schemes × loads grid sized so one iteration
// finishes in seconds; BENCH runs compare sequential against pooled
// execution to track fan-out scaling.
func benchSweepCfgs() []RunCfg {
	var cfgs []RunCfg
	for si, name := range []string{"ECMP", "DRILL"} {
		sc, _ := SchemeByName(name)
		for li, load := range []float64{0.3, 0.7} {
			cfgs = append(cfgs, RunCfg{
				Topo: fig6Topo(0), Scheme: sc,
				Seed: 1 + int64(si*100+li), Load: load,
				Warmup:  200 * units.Microsecond,
				Measure: 1 * units.Millisecond,
			})
		}
	}
	return cfgs
}

func benchmarkSweep(b *testing.B, workers int) {
	cfgs := benchSweepCfgs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunAll(cfgs, workers, nil)
		if res[0].FCT.Count() == 0 {
			b.Fatal("empty sweep cell")
		}
	}
}

func BenchmarkSweepSequential(b *testing.B) { benchmarkSweep(b, 1) }

func BenchmarkSweepPooled(b *testing.B) { benchmarkSweep(b, 0) }

// BenchmarkSweepWorkers tracks scaling across explicit worker counts.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchmarkSweep(b, w)
		})
	}
}

// benchTraceCell is the reference fig6a cell the trace-overhead benchmarks
// share. Comparing BenchmarkRunCellNoTrace against the Traced variants (and
// against its own numbers from before the trace layer existed) bounds the
// instrumentation cost; the nil-tracer path must stay within noise of the
// pre-instrumentation data plane, with zero allocations from the emit sites
// themselves (see internal/trace's AllocsPerRun tests for the per-site
// proof).
func benchTraceCell() RunCfg {
	sc, _ := SchemeByName("DRILL")
	return RunCfg{
		Topo: fig6Topo(0), Scheme: sc, Seed: 1, Load: 0.5,
		Warmup:  200 * units.Microsecond,
		Measure: 1 * units.Millisecond,
	}
}

func benchmarkRunCell(b *testing.B, attach func(cfg *RunCfg)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchTraceCell()
		if attach != nil {
			attach(&cfg)
		}
		if res := Run(cfg); res.FCT.Count() == 0 {
			b.Fatal("empty cell")
		}
	}
}

// BenchmarkRunCellNoTrace is the baseline: tracer nil, data plane on the
// zero-overhead fast path.
func BenchmarkRunCellNoTrace(b *testing.B) { benchmarkRunCell(b, nil) }

// BenchmarkRunCellTraceCounts attaches a counts-only tracer (nil sink):
// every lifecycle event is tallied but none is materialized.
func BenchmarkRunCellTraceCounts(b *testing.B) {
	benchmarkRunCell(b, func(cfg *RunCfg) { cfg.Tracer = trace.New(nil) })
}

// BenchmarkRunCellTraceRing attaches a ring sink plus the 10µs sampler —
// the full-capture configuration qtrace runs.
func BenchmarkRunCellTraceRing(b *testing.B) {
	benchmarkRunCell(b, func(cfg *RunCfg) {
		cfg.Tracer = trace.New(trace.NewRing(1 << 20))
		cfg.TraceSample = 10 * units.Microsecond
	})
}

// TestRunBenchCellCountsTheRunAlone: drillbench measures from outside the
// simulation, so a cell's events and windows are those of the same config
// run plainly, and its provenance is the run's own record.
func TestRunBenchCellCountsTheRunAlone(t *testing.T) {
	cfg := RunCfg{
		Topo: campaignTopo, Scheme: MustScheme("DRILL"), Seed: 2, Load: 0.5, Shards: 2,
		Warmup: 100 * units.Microsecond, Measure: 300 * units.Microsecond,
	}
	plain := Run(cfg)
	got, prov := RunBenchCell(BenchCell{Name: "ls-shards2", Cfg: cfg})
	if got.Events != plain.Events || got.Windows != plain.EngineRep.WindowCount {
		t.Errorf("bench cell: %d events, %d windows; the run alone: %d events, %d windows",
			got.Events, got.Windows, plain.Events, plain.EngineRep.WindowCount)
	}
	if plain.EngineRep.WindowCount == 0 {
		t.Error("the 2-shard run reported no windows")
	}
	if prov.ConfigHash != plain.Prov.ConfigHash || prov.Events != plain.Events || prov.Engine != "sharded/2" {
		t.Errorf("bench provenance %+v is not the run's own %+v", prov, plain.Prov)
	}
	if got.PeakHeapBytes == 0 {
		t.Error("no peak heap sampled")
	}
}
