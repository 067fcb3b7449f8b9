package experiments

import (
	"fmt"

	"drill/internal/metrics"
	"drill/internal/transport"
	"drill/internal/units"
	"drill/internal/workload"
)

// table1Result holds one pattern × scheme cell.
type table1Result struct {
	elephantGbps float64
	miceMean     float64
	miceTail     float64
}

// table1Cfg configures one pattern's runs; the Synthetic closure builds
// its workload per run, so concurrent cells share no workload state.
func table1Cfg(o Options, pattern string) RunCfg {
	w := lerpTime(500*units.Microsecond, 2*units.Millisecond, o.Scale)
	m := lerpTime(8*units.Millisecond, 100*units.Millisecond, o.Scale)
	micePeriod := lerpTime(400*units.Microsecond, 2*units.Millisecond, o.Scale)
	return RunCfg{
		Topo:    table1Topo,
		Warmup:  w,
		Measure: m,
		Synthetic: func(reg *transport.Registry, until units.Time) *workload.Synthetic {
			syn := workload.NewSynthetic(reg, micePeriod, until)
			t := reg.Net.Topo
			switch pattern {
			case "stride":
				syn.Run(workload.Stride(t, 8))
			case "bijection":
				syn.Run(workload.Bijection(t, reg.Sim.Stream(0xb1)))
			case "shuffle":
				// Run the first few phases concurrently to create the
				// all-to-all contention the full shuffle exhibits.
				syn.Run(workload.ShufflePhase(t, 0))
				syn.Run(workload.ShufflePhase(t, 1))
			}
			return syn
		},
	}
}

// table1Cell extracts the Table 1 metrics from a finished run.
func table1Cell(res *RunResult) table1Result {
	mice := res.Classes["mice"]
	if mice == nil {
		mice = &metrics.Dist{}
	}
	return table1Result{
		elephantGbps: res.ElephantGbps,
		miceMean:     mice.Mean(),
		miceTail:     mice.Percentile(99.99),
	}
}

func init() {
	register(&Experiment{
		ID:    "table1",
		Title: "Synthetic workloads: elephant throughput and mice FCT, normalized to ECMP (Table 1)",
		Run: func(o Options) *Report {
			o.defaults()
			rep := &Report{ID: "table1",
				Title:   "Stride(8)/Bijection/Shuffle — normalized to ECMP (raw in parentheses)",
				Columns: []string{"pattern", "metric", "ECMP", "CONGA", "Presto", "DRILL"}}
			var schemes []Scheme
			for _, name := range rep.Columns[2:] { // a column per scheme
				schemes = append(schemes, MustScheme(name))
			}
			patterns := []string{"stride", "bijection", "shuffle"}
			var cells []cell
			for _, pattern := range patterns {
				cells = schemeCells(cells, o, table1Cfg(o, pattern), schemes, pattern)
			}
			results := o.runCells(cells, nil, nil)
			for pi, pattern := range patterns {
				runs := results[pi*len(schemes):][:len(schemes)]
				base := table1Cell(runs[0]) // ECMP
				norm := func(v, b float64) string {
					if b == 0 {
						return "n/a"
					}
					return fmt.Sprintf("%.2f", v/b)
				}
				row1 := []string{pattern, "elephant throughput"}
				row2 := []string{"", "mice mean FCT"}
				row3 := []string{"", "mice 99.99th FCT"}
				for _, res := range runs {
					c := table1Cell(res)
					row1 = append(row1, fmt.Sprintf("%s (%.2fG)", norm(c.elephantGbps, base.elephantGbps), c.elephantGbps))
					row2 = append(row2, fmt.Sprintf("%s (%.3f)", norm(c.miceMean, base.miceMean), c.miceMean))
					row3 = append(row3, fmt.Sprintf("%s (%.3f)", norm(c.miceTail, base.miceTail), c.miceTail))
				}
				rep.AddRow(row1...)
				rep.AddRow(row2...)
				rep.AddRow(row3...)
			}
			rep.Note("paper: DRILL raises elephant throughput (1.8x Stride, 1.78x Bijection) " +
				"and cuts mice FCT, especially in the tail; Shuffle is last-hop-bound and no scheme helps much")
			return rep
		},
	})

	register(&Experiment{
		ID:    "engines",
		Title: "Scale-up: forwarding-engine count barely affects DRILL(2,1) FCT (§4)",
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			rep := &Report{ID: "engines",
				Title:   "DRILL(2,1) mean FCT [ms] vs engines per switch, 80% load",
				Columns: []string{"engines", "mean FCT", "p99.99 FCT", "uplink STDV"}}
			var cells []cell
			for _, e := range []int{1, 4, 16, 48} {
				cells = append(cells, cell{[]string{fmt.Sprintf("%d", e)}, RunCfg{Topo: fig6Topo(o.Scale),
					Scheme: drillScheme(2, 1), Seed: o.Seed, Load: 0.8, Engines: e, Warmup: w, Measure: m,
					SampleQueues: true}})
			}
			o.runCells(cells, rep, func(res *RunResult) []string {
				return []string{fmtMs(res.FCT.Mean()), fmtMs(res.FCT.Percentile(99.99)),
					fmt.Sprintf("%.3f", res.UplinkSTDV)}
			})
			rep.Note("paper: <1%% mean-FCT difference between 1- and 48-engine switches")
			return rep
		},
	})

	register(&Experiment{
		ID:    "idealdrill",
		Title: "ideal-DRILL (instant failure knowledge) vs OSPF-delayed DRILL (§4)",
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			fails := lerpInt(3, 5, o.Scale)
			failAt := w + m/4
			rep := &Report{ID: "idealdrill",
				Title:   fmt.Sprintf("DRILL under %d mid-run failures at 70%% load", fails),
				Columns: []string{"variant", "mean FCT [ms]", "p50 [ms]", "p99.99 [ms]"}}
			variants := []struct {
				name    string
				instant bool
			}{{"DRILL (OSPF delay)", false}, {"ideal-DRILL (instant)", true}}
			var cells []cell
			for _, v := range variants {
				cells = append(cells, cell{[]string{v.name}, RunCfg{Topo: fig6Topo(o.Scale), Scheme: MustScheme("DRILL"),
					Seed: o.Seed, Load: 0.7, Warmup: w, Measure: m,
					Campaign: UplinkFailure(fails, failAt, v.instant)}})
			}
			o.runCells(cells, rep, func(res *RunResult) []string {
				return []string{fmtMs(res.FCT.Mean()), fmtMs(res.FCT.Percentile(50)), fmtMs(res.FCT.Percentile(99.99))}
			})
			rep.Note("paper: ideal-DRILL improves median FCT by <0.6%% — the OSPF " +
				"reaction delay is negligible")
			return rep
		},
	})
}
