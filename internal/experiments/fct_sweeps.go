package experiments

import (
	"fmt"

	"drill/internal/metrics"
	"drill/internal/topo"
	"drill/internal/units"
)

// defaultLoads is the quick sweep; the paper sweeps 10–90%.
var defaultLoads = []float64{0.1, 0.3, 0.5, 0.8}

// fullLoads matches the paper's x-axis.
var fullLoads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

func sweepLoads(o Options) []float64 {
	if o.Scale >= 0.5 {
		return o.loads(fullLoads)
	}
	return o.loads(defaultLoads)
}

// fctSweep runs schemes × loads on a topology and tabulates an FCT
// statistic per cell.
type fctSweep struct {
	topo    func() *topo.Topology
	schemes []Scheme
	loads   []float64
	warmup  units.Time
	measure units.Time
	fail    int // seeded leaf uplinks down from the start (FailedUplinks)
	incast  units.Time
	engines int
}

type sweepCell struct {
	res *RunResult
}

// run executes the sweep, returning results indexed [scheme][load]. Cell
// configs are built up front (schemes × loads × reps) and fanned out on
// the option's worker pool; replications are pooled in submission order,
// so the tables are identical at every worker count.
func (f *fctSweep) run(o Options) [][]sweepCell {
	type cellKey struct{ si, li int }
	var cfgs []RunCfg
	var keys []cellKey
	for si, sc := range f.schemes {
		for li, load := range f.loads {
			for rep := 0; rep < o.Reps; rep++ {
				seed := o.Seed + int64(si*100+li) + int64(rep*10007)
				cfgs = append(cfgs, RunCfg{
					Topo:         FailedUplinks(f.topo, f.fail, seed),
					Scheme:       sc,
					Seed:         seed,
					Load:         load,
					Warmup:       f.warmup,
					Measure:      f.measure,
					IncastPeriod: f.incast,
					Engines:      f.engines,
				})
				keys = append(keys, cellKey{si, li})
			}
		}
	}
	results := o.runAll(cfgs, func(i int, res *RunResult) {
		k := keys[i]
		o.progress("%-16s load=%.0f%%  flows=%d  meanFCT=%.3fms  p99.99=%.3fms  drops=%d  retx=%d  ooo=%d  events=%d  [%s]",
			f.schemes[k.si].Name, f.loads[k.li]*100, res.FCT.Count(), res.FCT.Mean(),
			res.FCT.Percentile(99.99), res.Drops, res.Retransmits, res.OutOfOrder, res.Events, timing(res))
	})

	out := make([][]sweepCell, len(f.schemes))
	for si := range f.schemes {
		out[si] = make([]sweepCell, len(f.loads))
	}
	for i, res := range results {
		k := keys[i]
		if merged := out[k.si][k.li].res; merged == nil {
			out[k.si][k.li].res = res
		} else {
			// Pool FCT samples across replications; counters add.
			merged.FCT.AddDist(res.FCT)
			merged.Drops += res.Drops
			merged.Flows += res.Flows
			merged.Events += res.Events
			merged.Retransmits += res.Retransmits
			merged.Timeouts += res.Timeouts
			merged.OutOfOrder += res.OutOfOrder
		}
	}
	return out
}

// tabulate renders one statistic across the sweep.
func (f *fctSweep) tabulate(r *Report, cells [][]sweepCell, stat func(*RunResult) float64) {
	cols := []string{"scheme"}
	for _, l := range f.loads {
		cols = append(cols, fmt.Sprintf("%.0f%%", l*100))
	}
	r.Columns = cols
	for si, sc := range f.schemes {
		row := []string{sc.Name}
		for li := range f.loads {
			row = append(row, fmtMs(stat(cells[si][li].res)))
		}
		r.AddRow(row...)
	}
	f.noteTransportHealth(r, cells)
}

// noteTransportHealth surfaces the transport.Stats aggregates of the
// sweep: a scheme that "wins" on FCT while drowning in retransmissions
// or reordering is telling a different story than the headline table.
func (f *fctSweep) noteTransportHealth(r *Report, cells [][]sweepCell) {
	for si, sc := range f.schemes {
		var retx, rto, ooo int64
		for li := range f.loads {
			res := cells[si][li].res
			retx += res.Retransmits
			rto += res.Timeouts
			ooo += res.OutOfOrder
		}
		r.Note("%-16s transport health: retransmits=%d rto=%d out-of-order=%d",
			sc.Name, retx, rto, ooo)
	}
}

func meanFCT(res *RunResult) float64 { return res.FCT.Mean() }
func tailFCT(res *RunResult) float64 { return res.FCT.Percentile(99.99) }

func sweepTimes(o Options) (warmup, measure units.Time) {
	return lerpTime(500*units.Microsecond, 5*units.Millisecond, o.Scale),
		lerpTime(3*units.Millisecond, 100*units.Millisecond, o.Scale)
}

func init() {
	register(&Experiment{
		ID:        "fig6a",
		Title:     "Mean FCT vs load, symmetric Clos (Fig. 6a)",
		PoolsReps: true,
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			sw := &fctSweep{topo: fig6Topo(o.Scale), schemes: StdSchemes(),
				loads: sweepLoads(o), warmup: w, measure: m}
			cells := sw.run(o)
			rep := &Report{ID: "fig6a", Title: "Mean FCT [ms] vs avg. core load"}
			sw.tabulate(rep, cells, meanFCT)
			addWinners(rep, sw, cells, meanFCT, "mean FCT")
			return rep
		},
	})
	register(&Experiment{
		ID:        "fig6b",
		Title:     "99.99th percentile FCT vs load, symmetric Clos (Fig. 6b)",
		PoolsReps: true,
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			sw := &fctSweep{topo: fig6Topo(o.Scale), schemes: StdSchemes(),
				loads: sweepLoads(o), warmup: w, measure: m}
			cells := sw.run(o)
			rep := &Report{ID: "fig6b", Title: "99.99th pct FCT [ms] vs avg. core load"}
			sw.tabulate(rep, cells, tailFCT)
			addWinners(rep, sw, cells, tailFCT, "tail FCT")
			return rep
		},
	})
	register(&Experiment{
		ID:    "fig6c",
		Title: "Mean queueing time per hop at 10/50/80% load (Fig. 6c)",
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			rep := &Report{ID: "fig6c", Title: "Mean queueing time [µs] per hop",
				Columns: []string{"load", "scheme", "hop1 (leaf up)", "hop2 (spine down)", "hop3 (leaf->host)"}}
			loads, schemes := o.loads([]float64{0.1, 0.5, 0.8}), StdSchemes()
			var cfgs []RunCfg
			for _, load := range loads {
				for si, sc := range schemes {
					cfgs = append(cfgs, RunCfg{Topo: fig6Topo(o.Scale), Scheme: sc,
						Seed: o.Seed + int64(si), Load: load, Warmup: w, Measure: m})
				}
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("fig6c %s load=%.0f%% done [%s]",
					schemes[i%len(schemes)].Name, loads[i/len(schemes)]*100, timing(res))
			})
			for i, res := range results {
				rep.AddRow(fmt.Sprintf("%.0f%%", loads[i/len(schemes)]*100), schemes[i%len(schemes)].Name,
					fmtF(res.Hops.MeanQueueing(metrics.Hop1)),
					fmtF(res.Hops.MeanQueueing(metrics.Hop2)),
					fmtF(res.Hops.MeanQueueing(metrics.Hop3)))
			}
			rep.Note("paper: load balancing gains come from hop 1 (upstream) queues; " +
				"hop 3 has no path choice and is scheme-independent")
			return rep
		},
	})
	register(&Experiment{
		ID:        "fig7",
		Title:     "Scale-out fabric: mean and tail FCT vs load (Fig. 7)",
		PoolsReps: true,
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			sw := &fctSweep{topo: scaleOutTopo(o.Scale), schemes: StdSchemes(),
				loads: sweepLoads(o), warmup: w, measure: m}
			cells := sw.run(o)
			rep := &Report{ID: "fig7", Title: "Scale-out (all-10G) mean FCT [ms]"}
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
		ID:    "fig8",
		Title: "FCT CDFs in the scale-out fabric at 30% and 80% (Fig. 8)",
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			rep := &Report{ID: "fig8", Title: "FCT CDF points [ms at F]",
				Columns: []string{"load", "scheme", "p25", "p50", "p75", "p95", "p99"}}
			loads, schemes := o.loads([]float64{0.3, 0.8}), StdSchemes()
			var cfgs []RunCfg
			for _, load := range loads {
				for si, sc := range schemes {
					cfgs = append(cfgs, RunCfg{Topo: scaleOutTopo(o.Scale), Scheme: sc,
						Seed: o.Seed + int64(si), Load: load, Warmup: w, Measure: m})
				}
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("fig8 %s load=%.0f%% done [%s]",
					schemes[i%len(schemes)].Name, loads[i/len(schemes)]*100, timing(res))
			})
			for i, res := range results {
				rep.AddRow(fmt.Sprintf("%.0f%%", loads[i/len(schemes)]*100), schemes[i%len(schemes)].Name,
					fmtMs(res.FCT.Percentile(25)), fmtMs(res.FCT.Percentile(50)),
					fmtMs(res.FCT.Percentile(75)), fmtMs(res.FCT.Percentile(95)),
					fmtMs(res.FCT.Percentile(99)))
			}
			return rep
		},
	})
	register(&Experiment{
		ID:    "fig9",
		Title: "Oversubscription 1:1 vs 5:3 at 80% load (Fig. 9)",
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			rep := &Report{ID: "fig9", Title: "FCT by oversubscription ratio at 80% load [ms]",
				Columns: []string{"ratio", "scheme", "mean", "p50", "p99", "p99.99"}}
			ratios := []struct {
				name   string
				spines int
			}{{"1:1", 20}, {"5:3", 12}}
			schemes := StdSchemes()
			var cfgs []RunCfg
			for _, v := range ratios {
				for si, sc := range schemes {
					cfgs = append(cfgs, RunCfg{Topo: oversubTopo(v.spines, o.Scale), Scheme: sc,
						Seed: o.Seed + int64(si), Load: 0.8, Warmup: w, Measure: m})
				}
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("fig9 %s %s done [%s]",
					ratios[i/len(schemes)].name, schemes[i%len(schemes)].Name, timing(res))
			})
			for i, res := range results {
				rep.AddRow(ratios[i/len(schemes)].name, schemes[i%len(schemes)].Name,
					fmtMs(res.FCT.Mean()), fmtMs(res.FCT.Percentile(50)),
					fmtMs(res.FCT.Percentile(99)), fmtMs(res.FCT.Percentile(99.99)))
			}
			return rep
		},
	})
	register(&Experiment{
		ID:    "fig10",
		Title: "VL2 three-stage Clos at 20% and 70% load (Fig. 10)",
		Run: func(o Options) *Report {
			o.defaults()
			w, m := sweepTimes(o)
			rep := &Report{ID: "fig10", Title: "VL2 FCT [ms]",
				Columns: []string{"load", "scheme", "mean", "p50", "p99", "p99.99"}}
			loads, schemes := o.loads([]float64{0.2, 0.7}), StdSchemes()
			var cfgs []RunCfg
			for _, load := range loads {
				for si, sc := range schemes {
					cfgs = append(cfgs, RunCfg{Topo: vl2Topo(o.Scale), Scheme: sc,
						Seed: o.Seed + int64(si), Load: load, Warmup: w, Measure: m})
				}
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("fig10 %s load=%.0f%% done [%s]",
					schemes[i%len(schemes)].Name, loads[i/len(schemes)]*100, timing(res))
			})
			for i, res := range results {
				rep.AddRow(fmt.Sprintf("%.0f%%", loads[i/len(schemes)]*100), schemes[i%len(schemes)].Name,
					fmtMs(res.FCT.Mean()), fmtMs(res.FCT.Percentile(50)),
					fmtMs(res.FCT.Percentile(99)), fmtMs(res.FCT.Percentile(99.99)))
			}
			rep.Note("CONGA runs at the ToRs with ECMP cores (paper footnote 5); " +
				"DRILL micro-balances at every stage")
			return rep
		},
	})
}

// addWinners annotates a report with the DRILL-vs-baseline ratios at the
// highest load — the headline numbers of the abstract.
func addWinners(rep *Report, sw *fctSweep, cells [][]sweepCell, stat func(*RunResult) float64, label string) {
	last := len(sw.loads) - 1
	drill := -1
	for si, sc := range sw.schemes {
		if sc.Name == "DRILL" {
			drill = si
		}
	}
	if drill < 0 || last < 0 {
		return
	}
	dv := stat(cells[drill][last].res)
	if dv <= 0 {
		return
	}
	for si, sc := range sw.schemes {
		if si == drill {
			continue
		}
		v := stat(cells[si][last].res)
		rep.Note("%s at %.0f%% load: %s/%s = %.2fx", label,
			sw.loads[last]*100, sc.Name, "DRILL", v/dv)
	}
}
