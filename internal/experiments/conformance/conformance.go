// Package conformance proves settings of the simulator that must not
// change its output really don't: it reduces a run's every externally
// observable result — delivery, drop, and reordering totals, the full FCT
// distributions, per-hop telemetry — to a deterministic fingerprint
// string, with companion renderings of trace counts and obs snapshots.
// TestInvarianceMatrix and the tests beside it hold each conformance
// cell's plain sequential run fingerprint-identical to the sharded engine
// at every shard count, metrics, engine telemetry and sampler tracing;
// FuzzShardedVsSequential randomizes the fabric. The settings that live
// below a run — the scheduler, the fabric's port rings, packet pooling —
// are held to their references where they are decided, in internal/sim
// and internal/fabric.
//
// Fingerprints deliberately contain no insertion-order float sums: a
// sharded run folds per-shard sample sets in shard-ID order, so a multiset
// of float samples is engine-invariant but its running sum (and therefore
// a mean) can differ in the last ulp. Distributions are compared by count,
// order statistics, and a hash over the sorted samples instead — exact
// equality on strictly more information than a mean, without the
// fold-order sensitivity.
package conformance

import (
	"fmt"
	"sort"
	"strings"

	"drill/internal/experiments"
	"drill/internal/metrics"
	"drill/internal/obs"
	"drill/internal/trace"
)

// Fingerprint renders the engine-invariant results of a finished run.
func Fingerprint(res *experiments.RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "delivered=%d flows=%d events=%d drops=%d retx=%d rto=%d ooo=%d gro=%d/%d gets=%d\n",
		res.Delivered, res.Flows, res.Events, res.Drops, res.Retransmits,
		res.Timeouts, res.OutOfOrder, res.GROBatches, res.GROSegments, res.PacketGets)
	// The conservation terms and the control-plane generation count: an
	// epoch swap (fail → restore → table/Quiver recompute) that landed on a
	// different barrier, drained a different queue, or left a different
	// packet in flight diverges here even if delivery totals happen to agree.
	fmt.Fprintf(&b, "sent=%d queued=%d inflight=%d epochs=%d\n",
		res.Sent, res.QueuedEnd, res.InFlightEnd, res.Epochs)
	fmt.Fprintf(&b, "fct %s\n", distLine(res.FCT))
	classes := make([]string, 0, len(res.Classes))
	for c := range res.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "fct[%s] %s\n", c, distLine(res.Classes[c]))
	}
	fmt.Fprintf(&b, "dupacks %s\nreorders %s\n", histLine(res.DupAcks), histLine(res.WireReorders))
	fmt.Fprintf(&b, "hops q=%v n=%v d=%v\n", res.Hops.QueueingNs, res.Hops.Packets, res.Hops.Drops)
	fmt.Fprintf(&b, "stdv up=%g down=%g util=%g elephant=%g\n",
		res.UplinkSTDV, res.DownlinkSTDV, res.CoreUtil, res.ElephantGbps)
	return b.String()
}

// distLine renders a sample distribution without its insertion-order sum:
// count, the order statistics the reports read, and a hash of the sorted
// sample multiset (exact to the bit, fold-order independent).
func distLine(d *metrics.Dist) string {
	return fmt.Sprintf("n=%d min=%g p50=%g p90=%g p99=%g max=%g h=%016x",
		d.Count(), d.Min(), d.Percentile(50), d.Percentile(90),
		d.Percentile(99), d.Max(), d.HashSorted())
}

// histLine renders an integer histogram exactly, bucket by bucket.
func histLine(h *metrics.IntHist) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d [", h.Count())
	for v := 0; v <= h.Max(); v++ {
		if v > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", h.Bucket(v))
	}
	b.WriteByte(']')
	return b.String()
}

// TraceLine renders a tracer's accepted-event counts per kind.
func TraceLine(tr *trace.Tracer) string {
	var b strings.Builder
	b.WriteString("trace")
	for k := trace.Kind(0); k < trace.NumKinds; k++ {
		fmt.Fprintf(&b, " %s=%d", k, tr.Count(k))
	}
	b.WriteByte('\n')
	return b.String()
}

// ObsLines renders an obs snapshot: capture time and every series' value,
// with histograms expanded to exact bucket counts and their float Sum
// omitted (it accumulates by CAS in observation order, the one obs
// quantity that is a multiset's running float sum rather than an integer
// or a pointwise read).
func ObsLines(s *obs.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "obs t=%d\n", int64(s.SimTime))
	for i := range s.Points {
		p := &s.Points[i]
		if p.Hist != nil {
			fmt.Fprintf(&b, "%s{%s} count=%d buckets=%v\n", p.Name, p.Labels, p.Hist.Count, p.Hist.Buckets)
			continue
		}
		fmt.Fprintf(&b, "%s{%s} %g\n", p.Name, p.Labels, p.Value)
	}
	return b.String()
}
