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
// bins the QueueSample events into time slices and reports the mean STDV
// of each leaf's uplink queue lengths per slice. Unlike fig2's single
// time-averaged number, this exposes *when* ECMP's queues diverge and how
// flat DRILL holds them — built entirely from trace output, so the same
// pipeline works on a CSV written with `drillsim -trace`.
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
			tp := stdvTopo(o.Scale)()
			swPorts := countSwitchPorts(tp)
			ticks := int((warmup+measure+2*units.Millisecond)/o.TraceSample) + 8
			ringCap := 2 * swPorts * ticks

			// Only the sampler kinds are recorded, which the sharded engine
			// supports, so the sweep options apply to these cells as to any.
			rings := make([]*trace.Ring, len(schemes))
			cells := make([]cell, len(schemes))
			for i, sc := range schemes {
				rings[i] = trace.NewRing(ringCap)
				var sink trace.Sink = rings[i]
				if o.TraceSink != nil {
					sink = trace.Tee(rings[i], o.TraceSink)
				}
				cfg := stdvCfg(o, stdvTopo(o.Scale), sc, 4, 0.8, o.Seed+int64(i))
				cfg.Warmup, cfg.Measure = warmup, measure
				cfg.Tracer = trace.New(sink, trace.WithRun(int32(i)),
					trace.WithKinds(trace.QueueSample, trace.PortUtil))
				cfg.TraceSample = o.TraceSample
				cells[i] = cell{[]string{sc.Name}, cfg}
			}
			o.runCells(cells, nil, nil)

			rep := &Report{ID: "qtrace",
				Title:   "STDV of leaf-uplink queue lengths [pkts] per time slice, 80% load (from trace QueueSample events)",
				Columns: []string{"t [us]"}}
			for _, sc := range schemes {
				rep.Columns = append(rep.Columns, sc.Name)
			}

			series := make([][]float64, len(schemes))
			means := make([]float64, len(schemes))
			for i := range schemes {
				series[i] = uplinkSTDVSeries(tp, rings[i].Events(), warmup, measure, qtraceBins)
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
			// below counts the slices where scheme a's STDV is under b's.
			below := func(a, b int) int {
				n := 0
				for s := range series[a] {
					if series[a][s] < series[b][s] {
						n++
					}
				}
				return n
			}
			rep.Note("means: %s=%.3f %s=%.3f %s=%.3f; %s below %s in %d of %d slices, %s below %s in %d of %d",
				schemes[0].Name, means[0], schemes[1].Name, means[1], schemes[2].Name, means[2],
				schemes[2].Name, schemes[1].Name, below(2, 1), qtraceBins,
				schemes[1].Name, schemes[0].Name, below(1, 0), qtraceBins)
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

// uplinkSTDVSeries reduces QueueSample trace events to the per-time-slice
// mean of each leaf's uplink (Hop1) queue-length STDV, the Fig. 2 metric
// fig2's sampler averages: the samples one tick takes of one leaf's
// uplinks — a port's leaf is its channel's source node in tp — form one
// STDV observation, and observations are averaged within each of `bins`
// equal slices of the measure window. Load differences between leaves,
// which no balancer controls, stay out of it. Slices without samples
// report 0.
func uplinkSTDVSeries(tp *topo.Topology, events []trace.Event, warmup, measure units.Time, bins int) []float64 {
	type key struct {
		tick int64
		leaf topo.NodeID
	}
	type group struct {
		t     units.Time
		qlens []int32
	}
	var groups []group
	index := map[key]int{}
	for _, ev := range events {
		if ev.Kind != trace.QueueSample || ev.Hop != uint8(metrics.Hop1) {
			continue
		}
		if ev.T < warmup || ev.T >= warmup+measure {
			continue
		}
		k := key{tick: ev.Seq, leaf: tp.Chan(topo.ChanID(ev.Port)).From}
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, group{t: ev.T})
		}
		groups[i].qlens = append(groups[i].qlens, ev.QLen)
	}
	sums := make([]float64, bins)
	counts := make([]int64, bins)
	binW := measure / units.Time(bins)
	for _, g := range groups {
		b := int((g.t - warmup) / binW)
		if b >= bins {
			b = bins - 1
		}
		sums[b] += metrics.StdDevInt32(g.qlens)
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
