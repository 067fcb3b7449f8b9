package experiments

import (
	"fmt"

	"drill/internal/metrics"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// qtrace renders the paper's Fig. 2/3 story as a *time series* instead of
// an end-of-run aggregate: it runs the §3.2.3 queue-balance workload under
// ECMP, per-packet Random and DRILL(2,1) with the trace sampler on, then
// bins the QueueSample events into time slices and reports the STDV of the
// leaf-uplink queue lengths per slice. Unlike fig2's single time-averaged
// number, this exposes *when* ECMP's queues diverge and how flat DRILL
// holds them — built entirely from trace output, so the same pipeline
// works on a CSV written with `drillsim -trace`.
//
// The per-run tracers record queue/utilization samples only (the
// lifecycle kinds would be millions of events per cell); pair -trace with
// any other experiment for full packet-lifecycle capture.

// qtraceBins is the number of time slices the report aggregates samples
// into.
const qtraceBins = 20

func init() {
	register(&Experiment{
		ID:    "qtrace",
		Title: "Queue-depth time series from trace events (Fig. 2/3 shape)",
		Run: func(o Options) *Report {
			o.defaults()
			schemes := []Scheme{}
			for _, n := range []string{"ECMP", "Random"} {
				schemes = append(schemes, MustScheme(n))
			}
			schemes = append(schemes, drillScheme(2, 1))

			warmup := lerpTime(300*units.Microsecond, 2*units.Millisecond, o.Scale)
			measure := lerpTime(2*units.Millisecond, 50*units.Millisecond, o.Scale)

			// Size each ring for every sample of its run — sampled ports ×
			// ticks × 2 event kinds, with headroom so drain-phase ticks
			// never evict measured ones.
			swPorts := countSwitchPorts(stdvTopo(o.Scale)())
			ticks := int((warmup+measure+2*units.Millisecond)/o.TraceSample) + 8
			ringCap := 2 * swPorts * ticks

			rings := make([]*trace.Ring, len(schemes))
			cfgs := make([]RunCfg, len(schemes))
			for i, sc := range schemes {
				rings[i] = trace.NewRing(ringCap)
				var sink trace.Sink = rings[i]
				if o.TraceSink != nil {
					sink = trace.Tee(rings[i], o.TraceSink)
				}
				cfgs[i] = stdvCfg(o, stdvTopo(o.Scale), sc, 4, 0.8, o.Seed+int64(i))
				cfgs[i].Warmup, cfgs[i].Measure = warmup, measure
				cfgs[i].Tracer = trace.New(sink, trace.WithRun(int32(i)),
					trace.WithKinds(trace.QueueSample, trace.PortUtil))
				cfgs[i].TraceSample = o.TraceSample
			}
			w := o.Workers
			if o.TraceSink != nil {
				w = 1 // a shared file sink must see runs whole and in order
			}
			RunAll(cfgs, w, func(i int, res *RunResult) {
				o.progress("qtrace %s samples=%d [%s]",
					schemes[i].Name, rings[i].Total(), timing(res))
			})

			rep := &Report{ID: "qtrace",
				Title:   "STDV of leaf-uplink queue lengths [pkts] per time slice, 80% load (from trace QueueSample events)",
				Columns: []string{"t [us]"}}
			for _, sc := range schemes {
				rep.Columns = append(rep.Columns, sc.Name)
			}

			series := make([][]float64, len(schemes))
			means := make([]float64, len(schemes))
			for i := range schemes {
				series[i] = uplinkSTDVSeries(rings[i].Events(), warmup, measure, qtraceBins)
				var sum float64
				for _, v := range series[i] {
					sum += v
				}
				means[i] = sum / float64(len(series[i]))
			}
			binW := measure / qtraceBins
			for b := 0; b < qtraceBins; b++ {
				mid := warmup + units.Time(b)*binW + binW/2
				row := []string{fmt.Sprintf("%.0f", mid.Micros())}
				for i := range schemes {
					row = append(row, fmt.Sprintf("%.3f", series[i][b]))
				}
				rep.AddRow(row...)
			}
			rep.Note("means: %s=%.3f %s=%.3f %s=%.3f — the Fig. 2 ordering "+
				"(ECMP ≫ Random > DRILL) holds slice by slice, not just on average",
				schemes[0].Name, means[0], schemes[1].Name, means[1], schemes[2].Name, means[2])
			return rep
		},
	})
}

// countSwitchPorts counts the directed channels whose source is a switch —
// exactly the ports fabric.StartTraceSampler samples.
func countSwitchPorts(tp *topo.Topology) int {
	n := 0
	for _, l := range tp.Links {
		if tp.Nodes[l.A].Kind != topo.Host {
			n++
		}
		if tp.Nodes[l.B].Kind != topo.Host {
			n++
		}
	}
	return n
}

// uplinkSTDVSeries reduces QueueSample trace events to per-time-slice mean
// STDV of the leaf-uplink (Hop1) queue lengths: samples sharing a tick form
// one STDV observation, ticks are averaged within each of `bins` equal
// slices of the measure window. Slices without samples report 0.
func uplinkSTDVSeries(events []trace.Event, warmup, measure units.Time, bins int) []float64 {
	type tick struct {
		t     units.Time
		qlens []int32
	}
	var ticks []tick
	bySeq := map[int64]int{}
	for _, ev := range events {
		if ev.Kind != trace.QueueSample || ev.Hop != uint8(metrics.Hop1) {
			continue
		}
		if ev.T < warmup || ev.T >= warmup+measure {
			continue
		}
		i, ok := bySeq[ev.Seq]
		if !ok {
			i = len(ticks)
			bySeq[ev.Seq] = i
			ticks = append(ticks, tick{t: ev.T})
		}
		ticks[i].qlens = append(ticks[i].qlens, ev.QLen)
	}
	sums := make([]float64, bins)
	counts := make([]int64, bins)
	binW := measure / units.Time(bins)
	for _, tk := range ticks {
		b := int((tk.t - warmup) / binW)
		if b >= bins {
			b = bins - 1
		}
		sums[b] += metrics.StdDevInt32(tk.qlens)
		counts[b]++
	}
	out := make([]float64, bins)
	for b := range out {
		if counts[b] > 0 {
			out[b] = sums[b] / float64(counts[b])
		}
	}
	return out
}
