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

// table1Cfg configures one pattern × scheme run; the Synthetic closure is
// built per-config so concurrent cells share no workload state.
func table1Cfg(o Options, pattern string, sc Scheme, seed int64) RunCfg {
	w := lerpTime(500*units.Microsecond, 2*units.Millisecond, o.Scale)
	m := lerpTime(8*units.Millisecond, 100*units.Millisecond, o.Scale)
	micePeriod := lerpTime(400*units.Microsecond, 2*units.Millisecond, o.Scale)
	return RunCfg{
		Topo:    table1Topo,
		Scheme:  sc,
		Seed:    seed,
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
			schemes := []string{"ECMP", "CONGA", "Presto", "DRILL"}
			patterns := []string{"stride", "bijection", "shuffle"}
			var cfgs []RunCfg
			for _, pattern := range patterns {
				for si, name := range schemes {
					cfgs = append(cfgs, table1Cfg(o, pattern, MustScheme(name), o.Seed+int64(si)))
				}
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				c := table1Cell(res)
				o.progress("table1 %s %s done (eleph=%.2fGbps mice=%.3fms) [%s]",
					patterns[i/len(schemes)], schemes[i%len(schemes)],
					c.elephantGbps, c.miceMean, timing(res))
			})
			for pi, pattern := range patterns {
				cells := map[string]table1Result{}
				for si, name := range schemes {
					cells[name] = table1Cell(results[pi*len(schemes)+si])
				}
				base := cells["ECMP"]
				norm := func(v, b float64) string {
					if b == 0 {
						return "n/a"
					}
					return fmt.Sprintf("%.2f", v/b)
				}
				row1 := []string{pattern, "elephant throughput"}
				row2 := []string{"", "mice mean FCT"}
				row3 := []string{"", "mice 99.99th FCT"}
				for _, name := range schemes {
					c := cells[name]
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
			engs := []int{1, 4, 16, 48}
			var cfgs []RunCfg
			for _, e := range engs {
				cfgs = append(cfgs, RunCfg{Topo: fig6Topo(o.Scale), Scheme: drillScheme(2, 1),
					Seed: o.Seed, Load: 0.8, Engines: e, Warmup: w, Measure: m,
					SampleQueues: true})
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("engines=%d done [%s]", engs[i], timing(res))
			})
			for i, res := range results {
				rep.AddRow(fmt.Sprintf("%d", engs[i]), fmtMs(res.FCT.Mean()),
					fmtMs(res.FCT.Percentile(99.99)), fmt.Sprintf("%.3f", res.UplinkSTDV))
			}
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
			var cfgs []RunCfg
			for _, v := range variants {
				cfgs = append(cfgs, RunCfg{Topo: fig6Topo(o.Scale), Scheme: MustScheme("DRILL"),
					Seed: o.Seed, Load: 0.7, Warmup: w, Measure: m,
					Campaign: UplinkFailure(fails, failAt, v.instant)})
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("idealdrill %s done [%s]", variants[i].name, timing(res))
			})
			for i, res := range results {
				rep.AddRow(variants[i].name, fmtMs(res.FCT.Mean()),
					fmtMs(res.FCT.Percentile(50)), fmtMs(res.FCT.Percentile(99.99)))
			}
			rep.Note("paper: ideal-DRILL improves median FCT by <0.6%% — the OSPF " +
				"reaction delay is negligible")
			return rep
		},
	})
}
