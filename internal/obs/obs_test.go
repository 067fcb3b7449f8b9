package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"drill/internal/sim"
	"drill/internal/units"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(0)
	c := r.Counter("drill_test_total", `cell="0"`, "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("drill_test_total", `cell="0"`, "help"); again != c {
		t.Fatal("re-registering the same series returned a different counter")
	}
	g := r.Gauge("drill_test_depth", "", "help")
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", got)
	}
	if r.Series() != 2 {
		t.Fatalf("series = %d, want 2", r.Series())
	}

	// Advance derives a counter from running totals kept elsewhere: two
	// runs sharing one series each add their own growth.
	shared := r.Counter("drill_test_derived_total", "", "help")
	var lastA, lastB int64
	shared.Advance(3, &lastA)
	shared.Advance(2, &lastB)
	shared.Advance(3, &lastA) // no growth since the last call
	shared.Advance(7, &lastA)
	if got := shared.Value(); got != 9 || lastA != 7 || lastB != 2 {
		t.Fatalf("derived counter = %d (last %d, %d), want 9 (last 7, 2)", got, lastA, lastB)
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch for the same series")
		}
	}()
	r := NewRegistry(0)
	r.Counter("drill_test_total", "", "")
	r.Gauge("drill_test_total", "", "")
}

func TestSnapshotRingAndLatest(t *testing.T) {
	r := NewRegistry(3)
	c := r.Counter("drill_test_total", "", "")
	if r.Latest() != nil {
		t.Fatal("Latest non-nil before any snapshot")
	}
	for i := 1; i <= 5; i++ {
		c.Inc()
		r.Snapshot(units.Time(i) * units.Microsecond)
	}
	ring := r.Ring()
	if len(ring) != 3 {
		t.Fatalf("ring holds %d snapshots, want cap 3", len(ring))
	}
	if ring[0].Seq != 3 || ring[2].Seq != 5 {
		t.Fatalf("ring seqs = %d..%d, want 3..5", ring[0].Seq, ring[2].Seq)
	}
	last := r.Latest()
	if last == nil || last.Seq != 5 || last.SimTime != 5*units.Microsecond {
		t.Fatalf("latest = %+v, want seq 5 at 5us", last)
	}
	if got := last.Points[0].Value; got != 5 {
		t.Fatalf("latest counter point = %v, want 5", got)
	}
	// Published snapshots are immutable: later increments don't leak in.
	c.Add(100)
	if got := r.Latest().Points[0].Value; got != 5 {
		t.Fatalf("snapshot mutated after publication: %v", got)
	}
}

// TestHotPathUpdatesAllocateNothing is the AllocsPerRun proof the issue
// demands: every instrument update used from //drill:hotpath code is
// 0 allocs/op.
func TestHotPathUpdatesAllocateNothing(t *testing.T) {
	r := NewRegistry(0)
	c := r.Counter("drill_test_total", "", "")
	g := r.Gauge("drill_test_depth", "", "")
	h := r.Histogram("drill_test_hist", "", "")
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(42) }},
		{"Gauge.Add", func() { g.Add(1.5) }},
		{"Histogram.Observe", func() { h.Observe(123.4) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestSnapshotterPublishesOnSimTime(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(0)
	c := r.Counter("drill_test_total", "", "")
	var refreshed int
	sn := StartSnapshotter(s, r, 10*units.Microsecond, func(units.Time) { refreshed++ })

	// Real workload: bump the counter every 3µs for 50µs.
	var tick func()
	next := units.Time(0)
	tick = func() {
		c.Inc()
		next += 3 * units.Microsecond
		if next <= 50*units.Microsecond {
			s.After(3*units.Microsecond, tick)
		}
	}
	s.After(3*units.Microsecond, tick)
	s.RunUntil(55 * units.Microsecond)

	if r.Latest() == nil || r.Latest().Seq != 5 {
		t.Fatalf("latest seq = %+v, want 5 snapshots over 55us", r.Latest())
	}
	if refreshed != 5 {
		t.Fatalf("refresh hook ran %d times, want 5", refreshed)
	}
	fin := sn.Final(s.Now())
	if fin.Seq != 6 || fin.SimTime != 55*units.Microsecond {
		t.Fatalf("final snapshot = seq %d at %v, want 6 at 55us", fin.Seq, fin.SimTime)
	}
	sn.Stop()
}

// TestObserverSnapshotterInvisible pins the observe-never-steer contract
// at the sim level: attaching a snapshotter changes neither the executed
// event count nor when the event loop drains.
func TestObserverSnapshotterInvisible(t *testing.T) {
	run := func(attach bool) (uint64, units.Time) {
		s := sim.New(7)
		r := NewRegistry(0)
		if attach {
			StartSnapshotter(s, r, 5*units.Microsecond)
		}
		for i := 1; i <= 20; i++ {
			s.After(units.Time(i)*7*units.Microsecond, func() {})
		}
		s.Run()
		return s.Executed, s.Now()
	}
	e0, t0 := run(false)
	e1, t1 := run(true)
	if e0 != e1 || t0 != t1 {
		t.Fatalf("snapshotter perturbed the run: events %d vs %d, end %v vs %v", e0, e1, t0, t1)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("drill_drops_total", `exp="fig6a",cell="0"`, "Packets dropped.").Add(7)
	r.Gauge("drill_queue_depth_packets", `port="3"`, "Queue depth.").Set(2)
	h := r.Histogram("drill_cwnd_bytes", "", "Congestion window.")
	h.Observe(3000)
	h.Observe(3000)
	h.Observe(96000)
	s := r.Snapshot(42 * units.Microsecond)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE drill_snapshot_seq counter",
		"drill_snapshot_sim_time_seconds 4.2e-05",
		"# HELP drill_drops_total Packets dropped.",
		"# TYPE drill_drops_total counter",
		`drill_drops_total{exp="fig6a",cell="0"} 7`,
		`drill_queue_depth_packets{port="3"} 2`,
		"# TYPE drill_cwnd_bytes histogram",
		`drill_cwnd_bytes_bucket{le="+Inf"} 3`,
		"drill_cwnd_bytes_sum 102000",
		"drill_cwnd_bytes_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
	// Cumulative bucket counts must be nondecreasing and end at count.
	var lastCum int64 = -1
	for _, ln := range strings.Split(text, "\n") {
		if !strings.HasPrefix(ln, "drill_cwnd_bytes_bucket") {
			continue
		}
		var v int64
		if _, err := fmtSscan(ln, &v); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", ln, err)
		}
		if v < lastCum {
			t.Fatalf("bucket counts not cumulative: %q after %d", ln, lastCum)
		}
		lastCum = v
	}
	if lastCum != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", lastCum)
	}
}

func fmtSscan(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	return 1, json.Unmarshal([]byte(line[i+1:]), v)
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry(0)
	r.Counter("drill_drops_total", `cell="1"`, "").Add(3)
	r.Histogram("drill_fct_us", "", "").Observe(150)
	s := r.Snapshot(units.Microsecond)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Seq       int64 `json:"seq"`
		SimTimeNs int64 `json:"sim_time_ns"`
		Points    []struct {
			Name  string         `json:"name"`
			Kind  string         `json:"kind"`
			Value float64        `json:"value"`
			Hist  *HistogramData `json:"hist"`
		} `json:"points"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Seq != 1 || doc.SimTimeNs != 1000 || len(doc.Points) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Points[0].Kind != "counter" || doc.Points[0].Value != 3 {
		t.Fatalf("counter point = %+v", doc.Points[0])
	}
	if doc.Points[1].Kind != "histogram" || doc.Points[1].Hist == nil || doc.Points[1].Hist.Count != 1 {
		t.Fatalf("histogram point = %+v", doc.Points[1])
	}
}

func TestProvenance(t *testing.T) {
	b := Build()
	if b.GoVersion == "" || b.GOOS == "" {
		t.Fatalf("build info incomplete: %+v", b)
	}
	h1 := ConfigHash(map[string]int{"a": 1})
	h2 := ConfigHash(map[string]int{"a": 2})
	if h1 == h2 || len(h1) != 32 {
		t.Fatalf("config hashes broken: %q vs %q", h1, h2)
	}
	m := NewManifest("drillsim -exp fig6a", 42)
	m.Add(CellSummary{Exp: "fig6a", Cell: "0", Seed: 42, ConfigHash: h1, Events: 10})
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest round trip: %v", err)
	}
	if back.Schema != ManifestSchemaVersion || back.Seed != 42 || len(back.Cells) != 1 {
		t.Fatalf("manifest round trip lost data: %+v", back)
	}
}
