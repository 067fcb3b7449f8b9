package experiments

import (
	"fmt"

	"drill/internal/topo"
	"drill/internal/units"
)

// stdvCfg configures a §3.2.3 queue-balance run for one scheme/engine
// cell.
func stdvCfg(o Options, tf func() *topo.Topology, sc Scheme, engines int, load float64, seed int64) RunCfg {
	w := lerpTime(300*units.Microsecond, 2*units.Millisecond, o.Scale)
	m := lerpTime(2*units.Millisecond, 50*units.Millisecond, o.Scale)
	return RunCfg{
		Topo: tf, Scheme: sc, Seed: seed,
		Engines: engines, Load: load,
		Warmup: w, Measure: m,
		SampleQueues: true,
		DrainLimit:   1 * units.Millisecond, // STDV sampling already stopped
	}
}

// engineSweep returns the engine counts for the Fig. 2 x-axis.
func engineSweep(o Options) []int {
	if o.Scale >= 0.5 {
		return []int{1, 2, 4, 8, 16, 32, 48}
	}
	return []int{1, 4, 12, 48}
}

func fig2(id string, load float64) *Experiment {
	return &Experiment{
		ID:    id,
		Title: fmt.Sprintf("Mean queue-length STDV vs engines at %.0f%% load (Fig. 2)", load*100),
		Run: func(o Options) *Report {
			o.defaults()
			schemes := []Scheme{}
			for _, n := range []string{"ECMP", "Random", "RR"} {
				schemes = append(schemes, MustScheme(n))
			}
			schemes = append(schemes, drillScheme(2, 1), drillScheme(12, 1), drillScheme(2, 11))
			engines := engineSweep(o)
			rep := &Report{ID: id,
				Title:   fmt.Sprintf("Mean STDV of leaf-uplink queue lengths [pkts], %.0f%% load", load*100),
				Columns: []string{"scheme"}}
			for _, e := range engines {
				rep.Columns = append(rep.Columns, fmt.Sprintf("%d-engine", e))
			}
			var cfgs []RunCfg
			for si, sc := range schemes {
				for ei, e := range engines {
					cfgs = append(cfgs, stdvCfg(o, stdvTopo(o.Scale), sc, e, load, o.Seed+int64(si*10+ei)))
				}
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("%s %s engines=%d upSTDV=%.3f downSTDV=%.3f [%s]",
					id, schemes[i/len(engines)].Name, engines[i%len(engines)],
					res.UplinkSTDV, res.DownlinkSTDV, timing(res))
			})
			for si, sc := range schemes {
				row := []string{sc.Name}
				for ei := range engines {
					row = append(row, fmt.Sprintf("%.3f", results[si*len(engines)+ei].UplinkSTDV))
				}
				rep.AddRow(row...)
			}
			rep.Note("paper: DRILL(2,1) cuts Random's STDV by >65%% at 80%% load; " +
				"Random improves on ECMP ~94%%; extra choices/memory help little and " +
				"can hurt with many engines (sync effect)")
			return rep
		},
	}
}

func init() {
	register(fig2("fig2a", 0.8))
	register(fig2("fig2b", 0.3))

	register(&Experiment{
		ID:    "fig3",
		Title: "Synchronization effect: STDV vs d and vs m, 48-engine switches, 80% load (Fig. 3)",
		Run: func(o Options) *Report {
			o.defaults()
			engines := lerpInt(48, 48, o.Scale)
			rep := &Report{ID: "fig3",
				Title:   "Mean queue-length STDV [pkts] under DRILL(d,m), 48-engine switches, 80% load",
				Columns: []string{"sweep", "param", "STDV(m=1 | d=1)", "STDV(m=2 | d=2)"},
			}
			ds := []int{1, 2, 4, 8, 20}
			if o.Scale >= 0.5 {
				ds = []int{1, 2, 4, 6, 8, 12, 16, 20}
			}
			// Cells are (value, variant-1, variant-2) pairs: the d sweep at
			// m=1/m=2, then the m sweep at d=1/d=2, flattened in row order.
			var cfgs []RunCfg
			for _, d := range ds {
				cfgs = append(cfgs,
					stdvCfg(o, stdvTopo(o.Scale), drillScheme(d, 1), engines, 0.8, o.Seed+int64(d)),
					stdvCfg(o, stdvTopo(o.Scale), drillScheme(d, 2), engines, 0.8, o.Seed+int64(d)+50))
			}
			for _, m := range ds {
				cfgs = append(cfgs,
					stdvCfg(o, stdvTopo(o.Scale), drillScheme(1, m), engines, 0.8, o.Seed+int64(m)+100),
					stdvCfg(o, stdvTopo(o.Scale), drillScheme(2, m), engines, 0.8, o.Seed+int64(m)+150))
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("fig3 %s upSTDV=%.3f [%s]", cfgs[i].Scheme.Name, res.UplinkSTDV, timing(res))
			})
			for di, d := range ds {
				r1, r2 := results[2*di], results[2*di+1]
				rep.AddRow("d", fmt.Sprintf("%d", d),
					fmt.Sprintf("%.3f", r1.UplinkSTDV), fmt.Sprintf("%.3f", r2.UplinkSTDV))
			}
			for mi, m := range ds {
				r1, r2 := results[2*len(ds)+2*mi], results[2*len(ds)+2*mi+1]
				rep.AddRow("m", fmt.Sprintf("%d", m),
					fmt.Sprintf("%.3f", r1.UplinkSTDV), fmt.Sprintf("%.3f", r2.UplinkSTDV))
			}
			rep.Note("paper: with many engines, large d or m herds parallel engines onto " +
				"the same ports — the synchronization effect — so STDV worsens past small values")
			return rep
		},
	})

	register(&Experiment{
		ID:    "ablvis",
		Title: "Ablation: queue-visibility delay vs balance and reordering",
		Run: func(o Options) *Report {
			o.defaults()
			rep := &Report{ID: "ablvis",
				Title:   "DRILL(2,1) vs visibility delay (fraction of MTU serialization)",
				Columns: []string{"vis-factor", "engines", "uplink STDV", "flows w/ dupACKs %"}}
			vfs, engs := []float64{0.0001, 0.05, 0.25, 1, 4}, []int{1, 8}
			var cfgs []RunCfg
			for _, vf := range vfs {
				for _, eng := range engs {
					cfgs = append(cfgs, RunCfg{
						Topo: fig6Topo(o.Scale), Scheme: drillScheme(2, 1),
						Seed: o.Seed, Load: 0.8, Engines: eng,
						Warmup:  lerpTime(500*units.Microsecond, 5*units.Millisecond, o.Scale),
						Measure: lerpTime(2*units.Millisecond, 20*units.Millisecond, o.Scale),
						// VisFactor 0 means "default"; encode near-zero explicitly.
						VisFactor:    vf,
						SampleQueues: true,
					})
				}
			}
			results := o.runAll(cfgs, func(i int, res *RunResult) {
				o.progress("ablvis vf=%g eng=%d done [%s]",
					vfs[i/len(engs)], engs[i%len(engs)], timing(res))
			})
			for i, res := range results {
				rep.AddRow(fmt.Sprintf("%g", vfs[i/len(engs)]), fmt.Sprintf("%d", engs[i%len(engs)]),
					fmt.Sprintf("%.3f", res.UplinkSTDV),
					fmt.Sprintf("%.2f", 100*res.DupAcks.FracAtLeast(1)))
			}
			rep.Note("stale counters recreate the §3.2.3 synchronization effect even " +
				"with few engines; fresh-but-imprecise counters (small factors) match the paper's model")
			return rep
		},
	})
}
