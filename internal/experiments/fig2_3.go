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
			var cells []cell
			for si, sc := range schemes {
				for ei, e := range engines {
					cells = append(cells, cell{[]string{sc.Name, fmt.Sprintf("engines=%d", e)},
						stdvCfg(o, stdvTopo(o.Scale), sc, e, load, o.Seed+int64(si*10+ei))})
				}
			}
			results := o.runCells(cells, nil, nil)
			for si, sc := range schemes {
				row := []string{sc.Name}
				for _, res := range results[si*len(engines):][:len(engines)] {
					row = append(row, fmt.Sprintf("%.3f", res.UplinkSTDV))
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
			// Cells come in (variant-1, variant-2) pairs, one pair per row:
			// the d sweep at m=1/m=2, then the m sweep at d=1/d=2.
			var cells []cell
			add := func(sweep string, v int, sc Scheme, seed int64) {
				cells = append(cells, cell{[]string{sweep, fmt.Sprintf("%d", v), sc.Name},
					stdvCfg(o, stdvTopo(o.Scale), sc, engines, 0.8, seed)})
			}
			for _, d := range ds {
				add("d", d, drillScheme(d, 1), o.Seed+int64(d))
				add("d", d, drillScheme(d, 2), o.Seed+int64(d)+50)
			}
			for _, m := range ds {
				add("m", m, drillScheme(1, m), o.Seed+int64(m)+100)
				add("m", m, drillScheme(2, m), o.Seed+int64(m)+150)
			}
			results := o.runCells(cells, nil, nil)
			for i := 0; i < len(cells); i += 2 {
				rep.AddRow(cells[i].labels[0], cells[i].labels[1],
					fmt.Sprintf("%.3f", results[i].UplinkSTDV), fmt.Sprintf("%.3f", results[i+1].UplinkSTDV))
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
			var cells []cell
			for _, vf := range vfs {
				for _, eng := range engs {
					cells = append(cells, cell{[]string{fmt.Sprintf("%g", vf), fmt.Sprintf("%d", eng)}, RunCfg{
						Topo: fig6Topo(o.Scale), Scheme: drillScheme(2, 1),
						Seed: o.Seed, Load: 0.8, Engines: eng,
						Warmup:  lerpTime(500*units.Microsecond, 5*units.Millisecond, o.Scale),
						Measure: lerpTime(2*units.Millisecond, 20*units.Millisecond, o.Scale),
						// VisFactor 0 means "default"; encode near-zero explicitly.
						VisFactor:    vf,
						SampleQueues: true,
					}})
				}
			}
			o.runCells(cells, rep, func(res *RunResult) []string {
				return []string{fmt.Sprintf("%.3f", res.UplinkSTDV),
					fmt.Sprintf("%.2f", 100*res.DupAcks.FracAtLeast(1))}
			})
			rep.Note("stale counters recreate the §3.2.3 synchronization effect even " +
				"with few engines; fresh-but-imprecise counters (small factors) match the paper's model")
			return rep
		},
	})
}
