package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test's child processes are this binary started with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastLine decodes the result line a benchmark invocation ends with.
type resultJSON struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}

func runBench(t *testing.T, args ...string) resultJSON {
	t.Helper()
	var out, errb bytes.Buffer
	code := benchMain(append([]string{"-small", "-reps", "1"}, args...), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("exit %d, no result line: %v\n%s\n%s", code, err, out.String(), errb.String())
	}
	if code != 0 || !r.Correct || r.Failed != 0 {
		t.Fatalf("exit %d, correct=%v failed=%d\n%s\n%s", code, r.Correct, r.Failed, out.String(), errb.String())
	}
	return r
}

// TestSpecMatchesBenchmark holds BENCHMARK.json and the Go tables in step.
func TestSpecMatchesBenchmark(t *testing.T) {
	s := readSpec(t)
	ws := catalog(false)
	if len(s.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, catalog has %d", len(s.Workloads), len(ws))
	}
	for i, w := range ws {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, catalog %q", i, s.Workloads[i].Name, w.name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) || len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the tables %d+%d",
			len(s.EndToEnd), len(s.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := s.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := s.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload shape at reduced size through the whole
// pipeline — child processes, traced run, probes, output checks — and
// checks that exactly the declared metrics come out, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in child processes")
	}
	s := readSpec(t)
	units := map[string]string{}
	for _, m := range s.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		units[m.Name] = m.Unit
	}

	spans := filepath.Join(t.TempDir(), "spans.json")
	r := runBench(t, "-spans", spans)
	want := map[string]string{}
	for _, w := range s.Workloads {
		for name, unit := range units {
			want[w.Name+"/"+name] = unit
		}
	}
	checkMetrics(t, r, want)

	// One workload, as a caller asking for one metric set runs it.
	r = runBench(t, "-workload", "leafspine-drill-80", "-trace", "0", "-seconds", "0.1")
	want = map[string]string{}
	for _, m := range s.EndToEnd {
		want[m.Name] = m.Unit
	}
	checkMetrics(t, r, want)

	checkSpanTree(t, spans)
}

func checkMetrics(t *testing.T, r resultJSON, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		got, ok := r.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if got.Unit != unit {
			t.Errorf("metric %s: unit %q, want %q", name, got.Unit, unit)
		}
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("undeclared metric %s emitted", name)
		}
	}
}

// checkSpanTree checks the Chrome trace holds the stated span tree: run →
// setup → {topo.build, lb.build_tables} and run → loop → lb.build_tables
// (the pod-failure workload rebuilds tables mid-run).
func checkSpanTree(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Args     map[string]string
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			seen[e.Args["parent"]+"/"+e.Name] = true
		}
	}
	for _, edge := range []string{"/run", "run/setup", "run/loop", "setup/topo.build", "setup/lb.build_tables", "loop/lb.build_tables"} {
		if !seen[edge] {
			t.Errorf("span tree lacks %s (have %v)", edge, seen)
		}
	}
}

// TestTracedMatchesUntraced proves the traced run observes and never
// steers: same normalised fingerprint as an untraced run, sequentially
// with mid-run table rebuilds and on the sharded engine.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"fattree12-drill-podfail", "fattree12-drill-shards2"} {
		w, _ := lookup(catalog(true), name)
		plain, traced := runOnce(w.cfg(3)), runTraced(w.cfg(3))
		if plain.Err != "" || traced.Err != "" {
			t.Fatalf("%s: %q / %q", name, plain.Err, traced.Err)
		}
		if plain.Fingerprint != traced.Fingerprint {
			t.Errorf("%s: traced fingerprint differs:\n%s\nvs\n%s", name, traced.Fingerprint, plain.Fingerprint)
		}
		if traced.Metrics["lb.choose_calls"] == 0 {
			t.Errorf("%s: traced run counted no Choose calls", name)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(v, n=4) and median.
	for _, c := range []struct {
		v              []float64
		q1, median, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
		{[]float64{2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(c.v)
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 || s.N != len(c.v) {
			t.Errorf("summarize(%v) = %+v, want q1=%g median=%g q3=%g", c.v, s, c.q1, c.median, c.q3)
		}
	}
}

func TestAllowance(t *testing.T) {
	setup, loop := endToEnd[0], endToEnd[1]
	for _, c := range []struct {
		d            metricDef
		median, want float64
	}{
		{setup, 0.003, 0.020},           // a 3ms leaf-spine set-up: the 20ms floor applies
		{setup, 2.0, 2.0 * setup.bound}, // a fat-tree set-up: the share applies
		{loop, 3000, 3000 * loop.bound}, // no floor
		{loop, 0, 0},
	} {
		if got := c.d.allowance(c.median); got != c.want {
			t.Errorf("%s allowance at median %g = %g, want %g", c.d.name, c.median, got, c.want)
		}
	}
}

func TestValueTakesFastestRunForBest(t *testing.T) {
	s := summarize([]float64{5, 3, 4, 9})
	if got := (metricDef{best: true}).value(s); got != 3 {
		t.Errorf("best metric value = %g, want the fastest run, 3", got)
	}
	if got := (metricDef{}).value(s); got != 4.5 {
		t.Errorf("metric value = %g, want the median, 4.5", got)
	}
}

func TestNormaliseStripsOnlyEvents(t *testing.T) {
	fp := "delivered=10 flows=2 events=12345 drops=0 retx=1 rto=0 ooo=3 gro=0/0 gets=10\n" +
		"sent=10 queued=0 inflight=0 epochs=1\nfct n=2 min=0.1 p50=0.2\n"
	want := "delivered=10 flows=2 drops=0 retx=1 rto=0 ooo=3 gro=0/0 gets=10\n" +
		"sent=10 queued=0 inflight=0 epochs=1\nfct n=2 min=0.1 p50=0.2\n"
	if got := normalise(fp); got != want {
		t.Errorf("normalise:\n%q\nwant\n%q", got, want)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if fps, err := readGolden(dir, 7); fps != nil || err != nil {
		t.Fatalf("missing golden file: got %v, %v; want nil, nil", fps, err)
	}
	want := map[string]string{"a": "x=1\ny=2\n", "b": "z=3\n"}
	if err := writeGolden(dir, 7, []string{"a", "b"}, want); err != nil {
		t.Fatal(err)
	}
	got, err := readGolden(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got["a"] != want["a"] || got["b"] != want["b"] {
		t.Errorf("round trip: got %q, want %q", got, want)
	}
}
