package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file renders snapshots for consumers: Prometheus text exposition
// (format 0.0.4, what `promtool check metrics` and any scraper accept) and
// a JSON document carrying the same points plus the sparse histogram
// buckets. Rendering always works from an immutable Snapshot, never from
// live instruments, so a scrape observes one consistent sim-time cut.

// WritePrometheus renders s in Prometheus text exposition format. Series
// sharing a name must be registered contiguously per kind (the registry's
// insertion order makes families contiguous in practice); HELP/TYPE
// headers are emitted once per name.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	bw := &errWriter{w: w}
	bw.printf("# HELP drill_snapshot_seq Publication sequence number of this snapshot.\n")
	bw.printf("# TYPE drill_snapshot_seq counter\n")
	bw.printf("drill_snapshot_seq %d\n", s.Seq)
	bw.printf("# HELP drill_snapshot_sim_time_seconds Simulated time of this snapshot, in seconds.\n")
	bw.printf("# TYPE drill_snapshot_sim_time_seconds gauge\n")
	bw.printf("drill_snapshot_sim_time_seconds %s\n", formatFloat(s.SimTime.Seconds()))

	lastHeader := ""
	for i := range s.Points {
		p := &s.Points[i]
		if p.Name != lastHeader {
			lastHeader = p.Name
			if p.Help != "" {
				bw.printf("# HELP %s %s\n", p.Name, strings.ReplaceAll(p.Help, "\n", " "))
			}
			bw.printf("# TYPE %s %s\n", p.Name, p.Kind)
		}
		switch p.Kind {
		case KindHistogram:
			writePromHistogram(bw, p)
		default:
			if p.Labels == "" {
				bw.printf("%s %s\n", p.Name, formatFloat(p.Value))
			} else {
				bw.printf("%s{%s} %s\n", p.Name, p.Labels, formatFloat(p.Value))
			}
		}
	}
	return bw.err
}

func writePromHistogram(bw *errWriter, p *Point) {
	d := p.Hist
	if d == nil {
		d = &HistogramData{}
	}
	var cum int64
	for _, b := range d.Buckets {
		cum += b.Count
		bw.printf("%s_bucket{%s} %d\n",
			p.Name, JoinLabels(p.Labels, `le="`+formatFloat(BucketUpper(b.Index))+`"`), cum)
	}
	bw.printf("%s_bucket{%s} %d\n", p.Name, JoinLabels(p.Labels, `le="+Inf"`), d.Count)
	if p.Labels == "" {
		bw.printf("%s_sum %s\n", p.Name, formatFloat(d.Sum))
		bw.printf("%s_count %d\n", p.Name, d.Count)
	} else {
		bw.printf("%s_sum{%s} %s\n", p.Name, p.Labels, formatFloat(d.Sum))
		bw.printf("%s_count{%s} %d\n", p.Name, p.Labels, d.Count)
	}
}

// JoinLabels joins two pre-rendered label bodies, either of which may be
// empty — typically a run's scope (`exp="fig6a",cell="3"`) and a series'
// own labels.
func JoinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	if extra == "" {
		return base
	}
	return base + "," + extra
}

func formatFloat(v float64) string {
	switch {
	case v > 1e308*1.7:
		return "+Inf"
	case v < -1e308*1.7:
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// jsonSnapshot is the JSON view of a Snapshot.
type jsonSnapshot struct {
	Seq       int64       `json:"seq"`
	SimTimeNs int64       `json:"sim_time_ns"`
	Points    []jsonPoint `json:"points"`
}

type jsonPoint struct {
	Name   string         `json:"name"`
	Labels string         `json:"labels,omitempty"`
	Kind   string         `json:"kind"`
	Value  float64        `json:"value,omitempty"`
	Hist   *HistogramData `json:"hist,omitempty"`
}

// WriteJSON renders s as an indented JSON document mirroring the
// Prometheus exposition, with histograms kept in sparse-bucket form.
func WriteJSON(w io.Writer, s *Snapshot) error {
	doc := jsonSnapshot{Seq: s.Seq, SimTimeNs: int64(s.SimTime)}
	doc.Points = make([]jsonPoint, 0, len(s.Points))
	for i := range s.Points {
		p := &s.Points[i]
		doc.Points = append(doc.Points, jsonPoint{
			Name: p.Name, Labels: p.Labels, Kind: p.Kind.String(),
			Value: p.Value, Hist: p.Hist,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
