package experiments

import (
	"testing"

	"drill/internal/metrics"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// TestUplinkSTDVPerLeaf: qtrace's STDV is taken within each leaf's
// uplinks, as Fig. 2's is. Two leaves whose uplinks are equal within the
// leaf (4,4 and 0,0) but differ between leaves are perfectly balanced, so
// every slice must read 0; pooling both leaves into one STDV reads 2.
func TestUplinkSTDVPerLeaf(t *testing.T) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 2, Leaves: 2, HostsPerLeaf: 1})
	const bins = 4
	warmup, measure := 100*units.Microsecond, 400*units.Microsecond
	binW := measure / bins
	var events []trace.Event
	for tick := int64(0); tick < bins; tick++ {
		at := warmup + units.Time(tick)*binW + binW/2
		for li, leaf := range tp.Leaves {
			qlen := int32(4)
			if li == 1 {
				qlen = 0
			}
			for _, c := range tp.OutAll(leaf) {
				if tp.Nodes[tp.Chan(c).To].Kind != topo.Spine {
					continue
				}
				events = append(events, trace.Event{
					T: at, Kind: trace.QueueSample, Hop: uint8(metrics.Hop1),
					Port: int32(c), Seq: tick, QLen: qlen,
				})
			}
		}
	}
	if len(events) != bins*4 {
		t.Fatalf("built %d samples, want %d (2 leaves × 2 uplinks per tick)", len(events), bins*4)
	}
	for b, v := range uplinkSTDVSeries(tp, events, warmup, measure, bins) {
		if v != 0 {
			t.Errorf("slice %d: STDV %v, want 0 (each leaf's uplinks are equal)", b, v)
		}
	}
}
