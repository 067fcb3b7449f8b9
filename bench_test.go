// Benchmarks regenerating (scaled-down) versions of every table and figure
// in the DRILL paper's evaluation, plus the hot-path cost of the DRILL(d,m)
// selector itself. Each benchmark runs one experiment configuration per
// iteration and reports the figure's headline metric via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as a smoke regeneration of the
// evaluation. Full-size regeneration is cmd/drillsim's job.
package drill_test

import (
	"fmt"
	"math/rand"
	"testing"

	"drill"
	"drill/internal/experiments"
	"drill/internal/queueing"
	"drill/internal/transport"
	"drill/internal/units"
	"drill/internal/workload"
)

// benchRun executes one scaled-down experiment run and reports metrics.
func benchRun(b *testing.B, cfg experiments.RunCfg, metric func(*experiments.RunResult) (string, float64)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res := experiments.Run(cfg)
		name, v := metric(res)
		b.ReportMetric(v, name)
	}
}

func tinyFCT(topoF func() *drill.Topology, scheme string, load float64) experiments.RunCfg {
	sc, ok := experiments.SchemeByName(scheme)
	if !ok {
		panic("unknown scheme " + scheme)
	}
	return experiments.RunCfg{
		Topo:    topoF,
		Scheme:  sc,
		Load:    load,
		Warmup:  200 * units.Microsecond,
		Measure: 1 * units.Millisecond,
	}
}

func tinyClos() *drill.Topology  { return drill.LeafSpine(4, 4, 16) }
func tinyClos8() *drill.Topology { return drill.LeafSpine(8, 4, 8) }

func meanFCTMetric(res *experiments.RunResult) (string, float64) {
	return "meanFCT_ms", res.FCT.Mean()
}

func tailFCTMetric(res *experiments.RunResult) (string, float64) {
	return "p9999FCT_ms", res.FCT.Percentile(99.99)
}

// BenchmarkDrillSelect measures the per-packet cost of the core algorithm —
// the software analogue of the paper's hardware-feasibility result (§4):
// O(d+m) work and no allocation per decision.
func BenchmarkDrillSelect(b *testing.B) {
	for _, cfg := range []struct{ d, m int }{{1, 1}, {2, 1}, {12, 1}, {2, 11}} {
		b.Run(drillName(cfg.d, cfg.m), func(b *testing.B) {
			s := drill.NewSelector(cfg.d, cfg.m, rand.New(rand.NewSource(1)))
			loads := make([]int64, 48)
			load := func(q int) int64 { return loads[q] }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := s.Pick(48, load)
				loads[q] += 1500
				if loads[q] > 64000 {
					loads[q] = 0
				}
			}
		})
	}
}

func drillName(d, m int) string { return fmt.Sprintf("DRILL_%d_%d", d, m) }

// BenchmarkFig2QueueSTDV regenerates the Fig. 2 metric: mean queue-length
// STDV under DRILL(2,1) vs per-packet Random at 80% load.
func BenchmarkFig2QueueSTDV(b *testing.B) {
	for _, scheme := range []string{"Random", "RR", "DRILL(2,1)"} {
		sc, ok := experiments.SchemeByName(scheme)
		if !ok {
			// Raw DRILL(d,m) schemes are built ad hoc.
			sc = experiments.Scheme{Name: scheme, New: func() drill.Balancer { return drill.DRILLdm(2, 1) }}
		}
		b.Run(scheme, func(b *testing.B) {
			cfg := experiments.RunCfg{
				Topo:         tinyClos8,
				Scheme:       sc,
				Load:         0.8,
				Warmup:       200 * units.Microsecond,
				Measure:      1 * units.Millisecond,
				SampleQueues: true,
				DrainLimit:   500 * units.Microsecond,
			}
			benchRun(b, cfg, func(r *experiments.RunResult) (string, float64) {
				return "upSTDV_pkts", r.UplinkSTDV
			})
		})
	}
}

// BenchmarkFig3SyncEffect regenerates Fig. 3's sweep point: DRILL(1,20)
// with 48 engines, where excessive choices herd engines together.
func BenchmarkFig3SyncEffect(b *testing.B) {
	for _, cfg := range []struct{ d, m int }{{1, 1}, {1, 20}} {
		cfg := cfg
		b.Run(drillName(cfg.d, cfg.m), func(b *testing.B) {
			rc := experiments.RunCfg{
				Topo: tinyClos8,
				Scheme: experiments.Scheme{Name: "drill",
					New: func() drill.Balancer { return drill.DRILLdm(cfg.d, cfg.m) }},
				Load:         0.8,
				Engines:      48,
				Warmup:       200 * units.Microsecond,
				Measure:      1 * units.Millisecond,
				SampleQueues: true,
				DrainLimit:   500 * units.Microsecond,
			}
			benchRun(b, rc, func(r *experiments.RunResult) (string, float64) {
				return "upSTDV_pkts", r.UplinkSTDV
			})
		})
	}
}

// BenchmarkFig6SymmetricClos regenerates Fig. 6(a,b): FCT at 80% load in
// the symmetric Clos, per scheme.
func BenchmarkFig6SymmetricClos(b *testing.B) {
	for _, scheme := range []string{"ECMP", "CONGA", "Presto", "DRILL w/o shim", "DRILL"} {
		b.Run(scheme, func(b *testing.B) {
			benchRun(b, tinyFCT(tinyClos, scheme, 0.8), meanFCTMetric)
		})
	}
}

// BenchmarkFig7ScaleOut regenerates Fig. 7: the all-10G scale-out fabric.
func BenchmarkFig7ScaleOut(b *testing.B) {
	scaleOut := func() *drill.Topology {
		return drill.LeafSpineRates(8, 4, 10, 10*drill.Gbps, 10*drill.Gbps)
	}
	for _, scheme := range []string{"ECMP", "DRILL"} {
		b.Run(scheme, func(b *testing.B) {
			benchRun(b, tinyFCT(scaleOut, scheme, 0.8), meanFCTMetric)
		})
	}
}

// BenchmarkFig8CDF regenerates Fig. 8's inputs (FCT distribution at 80% in
// the scale-out fabric) and reports the median.
func BenchmarkFig8CDF(b *testing.B) {
	scaleOut := func() *drill.Topology {
		return drill.LeafSpineRates(8, 4, 10, 10*drill.Gbps, 10*drill.Gbps)
	}
	for _, scheme := range []string{"ECMP", "DRILL"} {
		b.Run(scheme, func(b *testing.B) {
			benchRun(b, tinyFCT(scaleOut, scheme, 0.8),
				func(r *experiments.RunResult) (string, float64) {
					return "p50FCT_ms", r.FCT.Percentile(50)
				})
		})
	}
}

// BenchmarkFig9Oversubscription regenerates Fig. 9: 5:3 oversubscribed.
func BenchmarkFig9Oversubscription(b *testing.B) {
	oversub := func() *drill.Topology {
		return drill.LeafSpineRates(6, 4, 10, 10*drill.Gbps, 10*drill.Gbps)
	}
	for _, scheme := range []string{"ECMP", "DRILL"} {
		b.Run(scheme, func(b *testing.B) {
			benchRun(b, tinyFCT(oversub, scheme, 0.8), meanFCTMetric)
		})
	}
}

// BenchmarkFig10VL2 regenerates Fig. 10: the three-stage VL2 fabric.
func BenchmarkFig10VL2(b *testing.B) {
	vl2 := func() *drill.Topology { return drill.VL2(8, 4, 2, 10) }
	for _, scheme := range []string{"ECMP", "DRILL"} {
		b.Run(scheme, func(b *testing.B) {
			cfg := tinyFCT(vl2, scheme, 0.7)
			cfg.Measure = 2 * units.Millisecond // 1G hosts need longer windows
			benchRun(b, cfg, meanFCTMetric)
		})
	}
}

// BenchmarkFig11Reordering regenerates Fig. 11(a): the fraction of flows
// that generate duplicate ACKs at 80% load.
func BenchmarkFig11Reordering(b *testing.B) {
	for _, scheme := range []string{"Random", "RR", "Presto before shim", "DRILL w/o shim"} {
		b.Run(scheme, func(b *testing.B) {
			benchRun(b, tinyFCT(tinyClos, scheme, 0.8),
				func(r *experiments.RunResult) (string, float64) {
					return "dupAckFlows_pct", 100 * r.DupAcks.FracAtLeast(1)
				})
		})
	}
}

// BenchmarkFig11Failure regenerates Fig. 11(b,c): one failed link.
func BenchmarkFig11Failure(b *testing.B) {
	for _, scheme := range []string{"ECMP", "Presto", "DRILL"} {
		b.Run(scheme, func(b *testing.B) {
			cfg := tinyFCT(tinyClos, scheme, 0.7)
			cfg.Topo = experiments.FailedUplinks(cfg.Topo, 1, cfg.Seed)
			benchRun(b, cfg, meanFCTMetric)
		})
	}
}

// BenchmarkFig12MultiFailure regenerates Fig. 12: several failed links.
func BenchmarkFig12MultiFailure(b *testing.B) {
	for _, scheme := range []string{"ECMP", "CONGA", "DRILL"} {
		b.Run(scheme, func(b *testing.B) {
			cfg := tinyFCT(tinyClos, scheme, 0.7)
			cfg.Topo = experiments.FailedUplinks(cfg.Topo, 4, cfg.Seed)
			benchRun(b, cfg, meanFCTMetric)
		})
	}
}

// BenchmarkFig13Heterogeneous regenerates Fig. 13: imbalanced striping.
func BenchmarkFig13Heterogeneous(b *testing.B) {
	hetero := func() *drill.Topology { return drill.Heterogeneous(4, 4, 8) }
	for _, scheme := range []string{"WCMP", "Presto", "CONGA", "DRILL"} {
		b.Run(scheme, func(b *testing.B) {
			benchRun(b, tinyFCT(hetero, scheme, 0.6), meanFCTMetric)
		})
	}
}

// BenchmarkFig14Incast regenerates Fig. 14: synchronized reads over
// background load; reports the incast flows' tail FCT.
func BenchmarkFig14Incast(b *testing.B) {
	for _, scheme := range []string{"ECMP", "CONGA", "Presto", "DRILL"} {
		b.Run(scheme, func(b *testing.B) {
			cfg := tinyFCT(tinyClos, scheme, 0.2)
			cfg.IncastPeriod = 300 * units.Microsecond
			cfg.QueueCap = 128
			benchRun(b, cfg, func(r *experiments.RunResult) (string, float64) {
				inc := r.Classes["incast"]
				if inc == nil {
					return "incast_p99_ms", 0
				}
				return "incast_p99_ms", inc.Percentile(99)
			})
		})
	}
}

// BenchmarkTable1Synthetic regenerates Table 1's Stride(8) row.
func BenchmarkTable1Synthetic(b *testing.B) {
	for _, scheme := range []string{"ECMP", "DRILL"} {
		sc, _ := experiments.SchemeByName(scheme)
		b.Run(scheme, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := experiments.Run(experiments.RunCfg{
					Topo: func() *drill.Topology {
						return drill.LeafSpineRates(4, 4, 8, 1*drill.Gbps, 1*drill.Gbps)
					},
					Scheme:  sc,
					Seed:    int64(i + 1),
					Warmup:  200 * units.Microsecond,
					Measure: 3 * units.Millisecond,
					Synthetic: func(reg *transport.Registry, until units.Time) *workload.Synthetic {
						syn := workload.NewSynthetic(reg, 300*units.Microsecond, until)
						syn.Run(workload.Stride(reg.Net.Topo, 8))
						return syn
					},
				})
				b.ReportMetric(res.ElephantGbps, "elephant_gbps")
				if mice := res.Classes["mice"]; mice != nil {
					b.ReportMetric(mice.Mean(), "mice_meanFCT_ms")
				}
			}
		})
	}
}

// BenchmarkStability regenerates the §3.2.4 result: slots/sec of the M×N
// model plus the end-state queue of stable vs unstable policies.
func BenchmarkStability(b *testing.B) {
	arr, svc := queueing.Theorem1Rates(4, 8, 0.2)
	for _, cfg := range []struct {
		name string
		d, m int
	}{{"DRILL_1_0_unstable", 1, 0}, {"DRILL_1_1_stable", 1, 1}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			s := queueing.New(4, 8, cfg.d, cfg.m, arr, svc, 1)
			b.ResetTimer()
			s.Run(b.N)
			b.ReportMetric(float64(s.TotalQueue()), "final_queue_pkts")
		})
	}
}

// BenchmarkSimulatorCore measures raw fabric event throughput: packets
// delivered per second of wall time at 80% load under DRILL.
func BenchmarkSimulatorCore(b *testing.B) {
	cfg := tinyFCT(tinyClos, "DRILL", 0.8)
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res := experiments.Run(cfg)
		b.ReportMetric(float64(res.Events), "events/run")
	}
}
