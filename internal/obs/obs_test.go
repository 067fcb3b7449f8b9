package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
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
}

// TestRegistryKindCollisionPanics: a family has one kind, so a name asked
// for as another kind panics, whatever the labels.
func TestRegistryKindCollisionPanics(t *testing.T) {
	for _, labels := range []string{"", `cell="1"`} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("labels %q: expected panic on kind mismatch for the same name", labels)
				}
			}()
			r := NewRegistry(0)
			r.Counter("drill_test_total", "", "")
			r.Gauge("drill_test_total", labels, "")
		}()
	}
}

// TestExpositionGroupsFamilies: two scopes registering their families
// interleaved, port by port and cell after cell, as runs do, must still
// expose one TYPE line per name with each family's samples together —
// families in first-registration order, series in registration order.
func TestExpositionGroupsFamilies(t *testing.T) {
	r := NewRegistry(0)
	for _, scope := range []string{`cell="0"`, `cell="1"`} {
		for port := 0; port < 2; port++ {
			l := JoinLabels(scope, fmt.Sprintf(`port="%d"`, port))
			r.Gauge("drill_port_queue_depth_packets", l, "Queue depth.").Set(1)
			r.Counter("drill_port_drops_total", l, "Drops.").Inc()
		}
		r.Histogram("drill_transport_fct_us", scope, "FCT.").Observe(3)
	}
	s := r.Snapshot(units.Microsecond)
	var order []string
	for _, p := range s.Points {
		order = append(order, p.Name+"{"+p.Labels+"}")
	}
	want := []string{
		`drill_port_queue_depth_packets{cell="0",port="0"}`,
		`drill_port_queue_depth_packets{cell="0",port="1"}`,
		`drill_port_queue_depth_packets{cell="1",port="0"}`,
		`drill_port_queue_depth_packets{cell="1",port="1"}`,
		`drill_port_drops_total{cell="0",port="0"}`,
		`drill_port_drops_total{cell="0",port="1"}`,
		`drill_port_drops_total{cell="1",port="0"}`,
		`drill_port_drops_total{cell="1",port="1"}`,
		`drill_transport_fct_us{cell="0"}`,
		`drill_transport_fct_us{cell="1"}`,
	}
	if got := strings.Join(order, " "); got != strings.Join(want, " ") {
		t.Errorf("capture order:\n got %s\nwant %s", got, strings.Join(want, " "))
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s); err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	family := ""
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if name, ok := strings.CutPrefix(ln, "# TYPE "); ok {
			family = strings.Fields(name)[0]
			if typed[family] {
				t.Errorf("# TYPE %s printed twice:\n%s", family, buf.String())
			}
			typed[family] = true
			continue
		}
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if !strings.HasPrefix(ln, family) {
			t.Errorf("sample %q outside its family's block (current family %s)", ln, family)
		}
	}
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

// TestSnapshotterPublishesOnSimTime: the snapshotter evaluates its reads
// at every tick and at Final — shared work first — storing a counter
// read's running total, and Final stops the ticker and drops the reads.
func TestSnapshotterPublishesOnSimTime(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(0)
	sn := StartSnapshotter(s, r, 10*units.Microsecond)
	var total int64
	var prepared int
	sn.Prepare(func(units.Time) { prepared++ })
	sn.CounterFunc("drill_test_total", "", "", func() int64 { return total })
	sn.GaugeFunc("drill_test_prepared", "", "", func() float64 { return float64(prepared) })

	// Real workload: bump the total every 3µs for 50µs.
	var tick func()
	next := units.Time(0)
	tick = func() {
		total++
		next += 3 * units.Microsecond
		if next <= 50*units.Microsecond {
			s.After(3*units.Microsecond, tick)
		}
	}
	s.After(3*units.Microsecond, tick)
	s.RunUntil(55 * units.Microsecond)

	last := r.Latest()
	if last == nil || last.Seq != 5 || last.SimTime != 50*units.Microsecond {
		t.Fatalf("latest = %+v, want seq 5 at 50us over 55us", last)
	}
	// At the 50µs tick the workload had bumped the total at 3, 6, …, 48µs;
	// the read saw the prepare hook's fifth run.
	if got := last.Points[0].Value; got != 16 {
		t.Fatalf("counter read at 50us = %v, want the running total 16", got)
	}
	if got := last.Points[1].Value; got != 5 {
		t.Fatalf("gauge read at 50us = %v, want 5 prepare runs", got)
	}
	fin := sn.Final(s.Now())
	if fin.Seq != 6 || fin.SimTime != 55*units.Microsecond {
		t.Fatalf("final snapshot = seq %d at %v, want 6 at 55us", fin.Seq, fin.SimTime)
	}
	if fin.Points[0].Value != 17 || fin.Points[1].Value != 6 {
		t.Fatalf("final values = %v, %v, want 17 and 6", fin.Points[0].Value, fin.Points[1].Value)
	}
	// The registry keeps the last values; nothing reads the run again.
	total = 100
	s.RunUntil(100 * units.Microsecond)
	if got := r.Latest(); got.Seq != 6 || r.Capture(0).Points[0].Value != 17 {
		t.Fatalf("after Final: latest seq %d, counter %v, want 6 and 17", got.Seq, r.Capture(0).Points[0].Value)
	}
	if prepared != 6 {
		t.Fatalf("prepare ran %d times after Final, want 6", prepared)
	}
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
