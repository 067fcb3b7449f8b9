package experiments

import (
	"fmt"

	"drill/internal/metrics"
	"drill/internal/units"
)

func init() {
	register(&Experiment{
		ID:    "fig11a",
		Title: "Packet reordering: duplicate ACKs per flow at 80% load (Fig. 11a)",
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			rep := &Report{ID: "fig11a",
				Title: "Reordering at 80% load",
				Columns: []string{"scheme", "flows w/ dupACKs %", "flows w/ >=3 dupACKs %",
					"flows w/ wire reorder %", "retransmits"}}
			names := []string{"Random", "RR", "Presto before shim", "DRILL w/o shim", "DRILL", "ECMP", "CONGA"}
			var cfgs []RunCfg
			for si, name := range names {
				cfgs = append(cfgs, RunCfg{Topo: fig6Topo(o.Scale), Scheme: MustScheme(name),
					Seed: o.Seed + int64(si), Load: 0.8, Warmup: w, Measure: m})
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("fig11a %s done [%s]", names[i], timing(res))
			})
			for i, res := range results {
				rep.AddRow(names[i],
					fmt.Sprintf("%.2f", 100*res.DupAcks.FracAtLeast(1)),
					fmt.Sprintf("%.2f", 100*res.DupAcks.FracAtLeast(3)),
					fmt.Sprintf("%.2f", 100*res.WireReorders.FracAtLeast(1)),
					fmt.Sprintf("%d", res.Retransmits))
			}
			rep.Note("paper: ECMP and CONGA never reorder; DRILL reorders far less than " +
				"Random/RR at equal granularity; Presto reorders fewer flows but with more dupACKs each")
			return rep
		},
	})

	register(&Experiment{
		ID:        "fig11bc",
		Title:     "Single leaf-spine link failure: mean and tail FCT vs load (Fig. 11b,c)",
		PoolsReps: true,
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			sw := &fctSweep{topo: fig6Topo(o.Scale), schemes: StdSchemes(),
				loads: sweepLoads(o), warmup: w, measure: m, fail: 1}
			cells := sw.run(o)
			rep := &Report{ID: "fig11bc", Title: "Mean FCT [ms] with one failed leaf-spine link"}
			sw.tabulate(rep, cells, meanFCT)
			rep.Note("tail (p99.99) FCT [ms]:")
			for si, sc := range sw.schemes {
				row := sc.Name
				for li := range sw.loads {
					row += fmt.Sprintf("  %s", fmtMs(tailFCT(cells[si][li].res)))
				}
				rep.Note("%s", row)
			}
			addWinners(rep, sw, cells, meanFCT, "mean FCT")
			return rep
		},
	})

	register(&Experiment{
		ID:        "fig12",
		Title:     "Ten random leaf-spine link failures: mean and tail FCT vs load (Fig. 12)",
		PoolsReps: true,
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			fails := lerpInt(4, 10, o.Scale) // the small fabric has fewer core links
			sw := &fctSweep{topo: fig6Topo(o.Scale), schemes: StdSchemes(),
				loads: sweepLoads(o), warmup: w, measure: m, fail: fails}
			cells := sw.run(o)
			rep := &Report{ID: "fig12",
				Title: fmt.Sprintf("Mean FCT [ms] with %d failed leaf-spine links", fails)}
			sw.tabulate(rep, cells, meanFCT)
			rep.Note("tail (p99.99) FCT [ms]:")
			for si, sc := range sw.schemes {
				row := sc.Name
				for li := range sw.loads {
					row += fmt.Sprintf("  %s", fmtMs(tailFCT(cells[si][li].res)))
				}
				rep.Note("%s", row)
			}
			rep.Note("paper: DRILL and CONGA handle multiple failures best — both shift " +
				"load off the lost capacity; DRILL via its symmetric-component weights")
			addWinners(rep, sw, cells, meanFCT, "mean FCT")
			return rep
		},
	})

	register(&Experiment{
		ID:        "fig13",
		Title:     "Heterogeneous topology (imbalanced striping): FCT vs load (Fig. 13)",
		PoolsReps: true,
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			var schemes []Scheme
			for _, n := range []string{"Presto", "WCMP", "CONGA", "DRILL w/o shim", "DRILL"} {
				schemes = append(schemes, MustScheme(n))
			}
			sw := &fctSweep{topo: heteroTopo(o.Scale), schemes: schemes,
				loads: sweepLoads(o), warmup: w, measure: m}
			cells := sw.run(o)
			rep := &Report{ID: "fig13", Title: "Mean FCT [ms], heterogeneous fabric"}
			sw.tabulate(rep, cells, meanFCT)
			rep.Note("tail (p99.99) FCT [ms]:")
			for si, sc := range sw.schemes {
				row := sc.Name
				for li := range sw.loads {
					row += fmt.Sprintf("  %s", fmtMs(tailFCT(cells[si][li].res)))
				}
				rep.Note("%s", row)
			}
			addWinners(rep, sw, cells, meanFCT, "mean FCT")
			return rep
		},
	})

	register(&Experiment{
		ID:    "fig14",
		Title: "Incast: tail FCT and per-hop queueing/loss (Fig. 14)",
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			period := lerpTime(500*units.Microsecond, 10*units.Millisecond, o.Scale)
			rep := &Report{ID: "fig14",
				Title: "Incast flows (10KB, 10% of hosts -> 10% of hosts) over background load",
				Columns: []string{"load", "scheme", "incast mean [ms]", "incast p99 [ms]",
					"incast p99.99 [ms]", "hop1 q [µs]", "hop1 loss %", "hop2 loss %"}}
			loads, schemes := o.loads([]float64{0.2, 0.35}), StdSchemes()
			var cfgs []RunCfg
			for _, load := range loads {
				for si, sc := range schemes {
					cfgs = append(cfgs, RunCfg{Topo: fig6Topo(o.Scale), Scheme: sc,
						Seed: o.Seed + int64(si), Load: load, Warmup: w, Measure: m,
						IncastPeriod: period})
				}
			}
			incastDist := func(res *RunResult) *metrics.Dist {
				if inc := res.Classes["incast"]; inc != nil {
					return inc
				}
				return &metrics.Dist{}
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("fig14 %s load=%.0f%% incast flows=%d [%s]",
					schemes[i%len(schemes)].Name, loads[i/len(schemes)]*100,
					incastDist(res).Count(), timing(res))
			})
			for i, res := range results {
				inc := incastDist(res)
				rep.AddRow(fmt.Sprintf("%.0f%%", loads[i/len(schemes)]*100), schemes[i%len(schemes)].Name,
					fmtMs(inc.Mean()), fmtMs(inc.Percentile(99)), fmtMs(inc.Percentile(99.99)),
					fmtF(res.Hops.MeanQueueing(metrics.Hop1)),
					fmtF(res.Hops.LossRate(metrics.Hop1)),
					fmtF(res.Hops.LossRate(metrics.Hop2)))
			}
			rep.Note("paper: DRILL reacts to the microburst at the first hop, nearly " +
				"eliminating hop-1 queueing and drops; 2.1x/2.6x lower p99.99 than CONGA/Presto at 20%% load")
			return rep
		},
	})
}
