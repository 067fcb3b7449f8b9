package experiments

import (
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
}

// newFCTSweep is the sweep of the FCT figures: schemes over the option's
// loads and sweep windows on tf, with fail leaf uplinks down.
func newFCTSweep(o Options, tf func() *topo.Topology, schemes []Scheme, fail int) *fctSweep {
	w, m := sweepTimes(o)
	return &fctSweep{topo: tf, schemes: schemes, loads: sweepLoads(o), warmup: w, measure: m, fail: fail}
}

// run executes the sweep, returning results indexed [scheme][load]. Its
// cells (schemes × loads × reps) fan out on the option's worker pool;
// replications are pooled in submission order, so the tables are
// identical at every worker count.
func (f *fctSweep) run(o Options) [][]*RunResult {
	var cells []cell
	for si, sc := range f.schemes {
		for li, load := range f.loads {
			for rep := 0; rep < o.Reps; rep++ {
				seed := o.Seed + int64(si*100+li) + int64(rep*10007)
				cells = append(cells, cell{[]string{sc.Name, pct(load)}, RunCfg{
					Topo: FailedUplinks(f.topo, f.fail, seed), Scheme: sc, Seed: seed,
					Load: load, Warmup: f.warmup, Measure: f.measure,
				}})
			}
		}
	}
	results := o.runCells(cells, nil, nil)

	out := make([][]*RunResult, len(f.schemes))
	for si := range out {
		out[si] = make([]*RunResult, len(f.loads))
		for li := range f.loads {
			reps := results[(si*len(f.loads)+li)*o.Reps:][:o.Reps]
			merged := reps[0]
			for _, res := range reps[1:] {
				// Pool FCT samples across replications; counters add.
				merged.FCT.AddDist(res.FCT)
				merged.Drops += res.Drops
				merged.Flows += res.Flows
				merged.Events += res.Events
				merged.Retransmits += res.Retransmits
				merged.Timeouts += res.Timeouts
				merged.OutOfOrder += res.OutOfOrder
			}
			out[si][li] = merged
		}
	}
	return out
}

// tabulate renders one statistic across the sweep.
func (f *fctSweep) tabulate(r *Report, cells [][]*RunResult, stat func(*RunResult) float64) {
	r.Columns = []string{"scheme"}
	for _, l := range f.loads {
		r.Columns = append(r.Columns, pct(l))
	}
	for si, sc := range f.schemes {
		row := []string{sc.Name}
		for li := range f.loads {
			row = append(row, fmtMs(stat(cells[si][li])))
		}
		r.AddRow(row...)
	}
	f.noteTransportHealth(r, cells)
}

// noteTransportHealth surfaces the transport.Stats aggregates of the
// sweep: a scheme that "wins" on FCT while drowning in retransmissions
// or reordering is telling a different story than the headline table.
func (f *fctSweep) noteTransportHealth(r *Report, cells [][]*RunResult) {
	for si, sc := range f.schemes {
		var retx, rto, ooo int64
		for _, res := range cells[si] {
			retx += res.Retransmits
			rto += res.Timeouts
			ooo += res.OutOfOrder
		}
		r.Note("%-16s transport health: retransmits=%d rto=%d out-of-order=%d",
			sc.Name, retx, rto, ooo)
	}
}

// noteTail lists each scheme's p99.99 FCT per load under a mean-FCT table.
func (f *fctSweep) noteTail(r *Report, cells [][]*RunResult) {
	r.Note("tail (p99.99) FCT [ms]:")
	for si, sc := range f.schemes {
		row := sc.Name
		for _, res := range cells[si] {
			row += "  " + fmtMs(tailFCT(res))
		}
		r.Note("%s", row)
	}
}

// addWinners annotates a report with the DRILL-vs-baseline ratios at the
// highest load — the headline numbers of the abstract.
func (f *fctSweep) addWinners(rep *Report, cells [][]*RunResult, stat func(*RunResult) float64, label string) {
	last := len(f.loads) - 1
	drill := -1
	for si, sc := range f.schemes {
		if sc.Name == "DRILL" {
			drill = si
		}
	}
	if drill < 0 || last < 0 {
		return
	}
	dv := stat(cells[drill][last])
	if dv <= 0 {
		return
	}
	for si, sc := range f.schemes {
		if si == drill {
			continue
		}
		v := stat(cells[si][last])
		rep.Note("%s at %s load: %s/%s = %.2fx", label, pct(f.loads[last]), sc.Name, "DRILL", v/dv)
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
			sw := newFCTSweep(o, fig6Topo(o.Scale), StdSchemes(), 0)
			cells := sw.run(o)
			rep := &Report{ID: "fig6a", Title: "Mean FCT [ms] vs avg. core load"}
			sw.tabulate(rep, cells, meanFCT)
			sw.addWinners(rep, cells, meanFCT, "mean FCT")
			return rep
		},
	})
	register(&Experiment{
		ID:        "fig6b",
		Title:     "99.99th percentile FCT vs load, symmetric Clos (Fig. 6b)",
		PoolsReps: true,
		Run: func(o Options) *Report {
			o.defaults()
			sw := newFCTSweep(o, fig6Topo(o.Scale), StdSchemes(), 0)
			cells := sw.run(o)
			rep := &Report{ID: "fig6b", Title: "99.99th pct FCT [ms] vs avg. core load"}
			sw.tabulate(rep, cells, tailFCT)
			sw.addWinners(rep, cells, tailFCT, "tail FCT")
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
			var cells []cell
			for _, load := range o.loads([]float64{0.1, 0.5, 0.8}) {
				cells = schemeCells(cells, o, RunCfg{Topo: fig6Topo(o.Scale), Load: load, Warmup: w, Measure: m},
					StdSchemes(), pct(load))
			}
			o.runCells(cells, rep, func(res *RunResult) []string {
				return []string{fmtF(res.Hops.MeanQueueing(metrics.Hop1)),
					fmtF(res.Hops.MeanQueueing(metrics.Hop2)),
					fmtF(res.Hops.MeanQueueing(metrics.Hop3))}
			})
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
			sw := newFCTSweep(o, scaleOutTopo(o.Scale), StdSchemes(), 0)
			cells := sw.run(o)
			rep := &Report{ID: "fig7", Title: "Scale-out (all-10G) mean FCT [ms]"}
			sw.tabulate(rep, cells, meanFCT)
			sw.noteTail(rep, cells)
			sw.addWinners(rep, cells, meanFCT, "mean FCT")
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
			var cells []cell
			for _, load := range o.loads([]float64{0.3, 0.8}) {
				cells = schemeCells(cells, o, RunCfg{Topo: scaleOutTopo(o.Scale), Load: load, Warmup: w, Measure: m},
					StdSchemes(), pct(load))
			}
			o.runCells(cells, rep, func(res *RunResult) []string {
				return []string{fmtMs(res.FCT.Percentile(25)), fmtMs(res.FCT.Percentile(50)),
					fmtMs(res.FCT.Percentile(75)), fmtMs(res.FCT.Percentile(95)),
					fmtMs(res.FCT.Percentile(99))}
			})
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
			var cells []cell
			for _, v := range ratios {
				cells = schemeCells(cells, o, RunCfg{Topo: oversubTopo(v.spines, o.Scale), Load: 0.8, Warmup: w, Measure: m},
					StdSchemes(), v.name)
			}
			o.runCells(cells, rep, fctQuantiles)
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
			var cells []cell
			for _, load := range o.loads([]float64{0.2, 0.7}) {
				cells = schemeCells(cells, o, RunCfg{Topo: vl2Topo(o.Scale), Load: load, Warmup: w, Measure: m},
					StdSchemes(), pct(load))
			}
			o.runCells(cells, rep, fctQuantiles)
			rep.Note("CONGA runs at the ToRs with ECMP cores (paper footnote 5); " +
				"DRILL micro-balances at every stage")
			return rep
		},
	})
}

// fctQuantiles is the mean, p50, p99 and p99.99 FCT of a run, in ms.
func fctQuantiles(res *RunResult) []string {
	return []string{fmtMs(res.FCT.Mean()), fmtMs(res.FCT.Percentile(50)),
		fmtMs(res.FCT.Percentile(99)), fmtMs(res.FCT.Percentile(99.99))}
}
