package experiments

import (
	"fmt"

	"drill/internal/fabric"
	"drill/internal/lb"
)

func init() {
	register(&Experiment{
		ID:    "ablgran",
		Title: "Ablation: granularity x load-awareness grid (§3.1's factors (a) and (b))",
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			grid := []struct {
				gran, aware string
				scheme      Scheme
			}{
				{"flow", "blind", MustScheme("ECMP")},
				{"flow", "aware", MustScheme("per-flow DRILL")},
				{"flowcell", "blind", MustScheme("Presto before shim")},
				{"flowcell", "aware", MustScheme("flowcell-DRILL")},
				{"packet", "blind", MustScheme("Random")},
				{"packet", "aware", drillScheme(2, 1)},
			}
			rep := &Report{ID: "ablgran",
				Title:   "Mean / p99.99 FCT [ms] at 80% load by balancing granularity and load awareness",
				Columns: []string{"granularity", "load-aware", "mean FCT", "p99.99 FCT", "hop1 drops"}}
			var cells []cell
			for gi, g := range grid {
				cells = append(cells, cell{[]string{g.gran, g.aware}, RunCfg{Topo: fig6Topo(o.Scale), Scheme: g.scheme,
					Seed: o.Seed + int64(gi), Load: 0.8, Warmup: w, Measure: m}})
			}
			o.runCells(cells, rep, func(res *RunResult) []string {
				return []string{fmtMs(res.FCT.Mean()), fmtMs(res.FCT.Percentile(99.99)),
					fmt.Sprintf("%d", res.Hops.Drops[1])}
			})
			rep.Note("both factors matter: finer granularity AND load awareness each " +
				"improve tail FCT; their combination (DRILL) wins — §3.1's argument")
			return rep
		},
	})

	register(&Experiment{
		ID:    "ablasym",
		Title: "Ablation: DRILL with vs without the Quiver decomposition under failure (§3.4)",
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			// Long-running flows across the failure region expose the
			// bandwidth-inefficiency pathology: without decomposition the
			// balanced queues cap the healthy path at the congested paths' rate.
			mk := func(name string, bal func() fabric.Balancer) Scheme {
				return Scheme{Name: name, New: bal, Shim: DefaultShim}
			}
			schemes := []Scheme{
				mk("DRILL naive (no quiver)", func() fabric.Balancer { return lb.NewDRILL() }),
				mk("DRILL (quiver)", func() fabric.Balancer { return lb.NewDRILLAsym() }),
				MustScheme("ECMP"),
			}
			rep := &Report{ID: "ablasym",
				Title:   "One failed leaf-spine link, 70% load",
				Columns: []string{"scheme", "mean FCT [ms]", "p99.99 [ms]", "core util", "retransmits"}}
			cells := schemeCells(nil, o, RunCfg{Load: 0.7, Warmup: w, Measure: m}, schemes)
			for i := range cells {
				cells[i].cfg.Topo = FailedUplinks(fig6Topo(o.Scale), 1, cells[i].cfg.Seed)
			}
			o.runCells(cells, rep, func(res *RunResult) []string {
				return []string{fmtMs(res.FCT.Mean()), fmtMs(res.FCT.Percentile(99.99)),
					fmt.Sprintf("%.3f", res.CoreUtil), fmt.Sprintf("%d", res.Retransmits)}
			})
			rep.Note("naive per-packet balancing across asymmetric paths couples their " +
				"rates (§3.4's example) and reorders across unequal queues; the Quiver " +
				"decomposition restores efficiency")
			return rep
		},
	})
}
