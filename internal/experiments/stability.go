package experiments

import (
	"fmt"

	"drill/internal/queueing"
)

func init() {
	register(&Experiment{
		ID:    "stability",
		Title: "Theorems 1-2: DRILL(d,0) instability vs DRILL(d,m>=1) stability (§3.2.4)",
		Run: func(o Options) *Report {
			o.defaults()
			slots := lerpInt(50_000, 1_000_000, o.Scale)
			m, n := 4, 8
			arr, svc := queueing.Theorem1Rates(m, n, 0.2)
			rep := &Report{ID: "stability",
				Title:   fmt.Sprintf("M=%d engines, N=%d queues, adversarial-but-admissible rates, %d slots", m, n, slots),
				Columns: []string{"policy", "total queue @T/2", "total queue @T", "throughput", "Lyapunov V @T"}}
			policies := []struct {
				name string
				d, q int
			}{
				{"DRILL(1,0) (memoryless)", 1, 0},
				{"DRILL(2,0) (memoryless)", 2, 0},
				{"DRILL(1,1)", 1, 1},
				{"DRILL(2,1)", 2, 1},
				{"DRILL(2,4)", 2, 4},
			}
			// The queueing sims are independent per policy, so they fan out
			// on the same worker pool as the packet-level sweeps.
			type stabCell struct {
				half, final int64
				thr, lyap   float64
			}
			rows := Fan(len(policies), o.Workers, func(i int) stabCell {
				cfg := policies[i]
				s := queueing.New(m, n, cfg.d, cfg.q, arr, svc, o.Seed)
				s.Run(slots / 2)
				half := s.TotalQueue()
				s.Run(slots - slots/2)
				return stabCell{
					half:  int64(half),
					final: int64(s.TotalQueue()),
					thr:   float64(s.TotalServed) / float64(s.TotalArrived),
					lyap:  s.Lyapunov(),
				}
			}, func(i int, c stabCell) {
				o.progress("stability %s done", policies[i].name)
			})
			for i, c := range rows {
				rep.AddRow(policies[i].name,
					fmt.Sprintf("%d", c.half), fmt.Sprintf("%d", c.final),
					fmt.Sprintf("%.4f", c.thr), fmt.Sprintf("%.3g", c.lyap))
			}
			rep.Note("Theorem 1: memoryless variants grow without bound under admissible " +
				"heterogeneous service; Theorem 2: one memory unit restores stability and ~100%% throughput")

			// Time-varying service rates (the failures/recoveries case).
			sVar := queueing.New(m, n, 1, 1, arr, svc, o.Seed+1)
			phaseA := append([]float64(nil), svc...)
			phaseB := append([]float64(nil), svc...)
			phaseB[0], phaseB[n-1] = phaseB[n-1], phaseB[0]
			for phase := 0; phase < 10; phase++ {
				src := phaseA
				if phase%2 == 1 {
					src = phaseB
				}
				copy(sVar.Service, src)
				sVar.Run(slots / 10)
			}
			rep.Note("time-varying service (capacity flips every T/10): DRILL(1,1) final "+
				"queue %d, throughput %.4f", sVar.TotalQueue(),
				float64(sVar.TotalServed)/float64(sVar.TotalArrived))
			return rep
		},
	})
}
