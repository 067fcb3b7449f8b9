// Command bench is the repository benchmark. It runs named simulator
// workloads through experiments.Run, one fresh child process per run,
// reports set-up apart from the event loop, splits the loop by layer in a
// traced run plus isolated layer probes, and fails runs whose outputs are
// wrong. README.md describes the workloads and metrics.
//
//	bash bench/run.sh                                   # every workload, every metric
//	bash bench/run.sh -workload fattree12-drill -seed 2 -seconds 25 -trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"drill/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// Limits on child runs: a rep count cap, and a deadline after which a hung
// child is killed and counted as failed.
const (
	maxReps      = 30
	childTimeout = 150 * time.Second
)

// goldenDir holds the golden fingerprints, relative to the repository root
// the benchmark runs from.
const goldenDir = "bench/golden"

type options struct {
	workload     string
	seed         int64
	seconds      float64
	reps         int
	trace        string
	spans        string
	jsonOut      string
	updateGolden bool
	small        bool
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (2 is held out for claims)")
	fs.Float64Var(&o.seconds, "seconds", 0, "keep adding untraced runs while they fit in this many seconds (0: exactly -reps)")
	fs.IntVar(&o.reps, "reps", 3, "minimum untraced runs per workload")
	fs.StringVar(&o.trace, "trace", "both", "metrics to report: 0 end-to-end, 1 per-layer (adds a traced run and layer probes), both")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans.json", "where a traced run writes its spans (Chrome trace-event JSON)")
	fs.StringVar(&o.jsonOut, "json", "", "also write one row per (workload, metric) to this file")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "regenerate the golden fingerprints for -seed and exit")
	fs.BoolVar(&o.small, "small", false, "reduced workload sizes (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.reps < 1 || o.seconds < 0 || (o.trace != "0" && o.trace != "1" && o.trace != "both") {
		fmt.Fprintln(stderr, "bench: want -reps >= 1, -seconds >= 0, -trace 0|1|both and no positional arguments")
		return 2
	}
	ws := catalog(o.small)
	if o.workload != "" {
		w, ok := lookup(ws, o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		ws = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if procs := runtime.GOMAXPROCS(0); procs > runtime.NumCPU() {
		fmt.Fprintf(stderr, "bench: warning: GOMAXPROCS %d exceeds the %d CPUs available; runs will time-slice\n",
			procs, runtime.NumCPU())
	}
	b := &bencher{o: o, exe: exe, all: catalog(o.small)}
	if o.updateGolden {
		return b.updateGolden(stdout, stderr)
	}
	if b.golden, err = readGolden(goldenDir, o.seed); err != nil {
		fmt.Fprintln(stderr, "bench: reading golden fingerprints:", err)
		return 1
	}
	if b.golden == nil && !o.small {
		fmt.Fprintf(stderr, "bench: no %s; outputs are checked only against each other\n", goldenPath(goldenDir, o.seed))
	}

	fmt.Fprintf(stdout, "bench: seed %d, reps >= %d, %gs per workload, GOMAXPROCS %d, nproc %d, %s\n",
		o.seed, o.reps, o.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var results []*result
	for _, w := range ws {
		r := b.measure(w, o.trace != "0")
		r.print(stdout, o.trace)
		results = append(results, r)
	}
	if o.trace != "0" {
		if err := writeChromeTrace(o.spans, results); err != nil {
			fmt.Fprintln(stderr, "bench: writing spans:", err)
			return 1
		}
	}
	if o.jsonOut != "" {
		if err := writeRows(o, results); err != nil {
			fmt.Fprintln(stderr, "bench: writing -json:", err)
			return 1
		}
	}
	line, failed := resultLine(results, o.trace)
	fmt.Fprintln(stdout, line)
	if failed > 0 {
		return 1
	}
	return 0
}

// bencher runs child processes and checks their outputs.
type bencher struct {
	o      options
	exe    string
	all    []workload
	golden map[string]string // nil when the seed has no golden file
}

// child runs one measurement in a fresh process of this binary, one at a
// time, and reports the child's peak RSS.
func (b *bencher) child(mode string, w workload) (childOut, float64, error) {
	args := []string{childFlag, mode, "-workload", w.name, "-seed", strconv.FormatInt(b.o.seed, 10)}
	if b.o.small {
		args = append(args, "-small")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var rss float64
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB
		}
	}
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 2000 {
			msg = msg[:2000] + "..."
		}
		return childOut{}, rss, fmt.Errorf("%v: %s", err, msg)
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return childOut{}, rss, fmt.Errorf("decoding child output: %v", err)
	}
	return out, rss, nil
}

// result collects one workload's runs.
type result struct {
	w                 workload
	attempted, failed int
	failures          []string
	reps              map[string][]float64 // per untraced run, from correct runs only
	layer             map[string]float64
	spans             []span
}

// check records one child run and reports whether its output is correct:
// it finished, conserved packets, and reproduced the expected fingerprint
// (ignored when want is empty).
func (r *result) check(what string, out childOut, err error, want, wantFrom string) bool {
	r.attempted++
	switch {
	case err != nil:
		r.fail("%s: %v", what, err)
	case out.Err != "":
		r.fail("%s: %s", what, out.Err)
	case want != "" && out.Fingerprint != want:
		r.fail("%s: fingerprint differs from %s:\n--- want\n%s--- got\n%s", what, wantFrom, want, out.Fingerprint)
	default:
		return true
	}
	return false
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// measure runs w's untraced reps and, when traced, one traced run and the
// layer probes. Every fingerprint must equal the golden one for this seed,
// or else the first correct run's (the sequential reference's, for a
// workload with a ref).
func (b *bencher) measure(w workload, traced bool) *result {
	r := &result{w: w, reps: map[string][]float64{}, layer: map[string]float64{}}
	start := now()
	want, wantFrom := b.golden[w.name], goldenPath(goldenDir, b.o.seed)
	if w.ref != "" {
		ref, _ := lookup(b.all, w.ref)
		out, _, err := b.child(modeRun, ref)
		refWant := b.golden[w.ref]
		if r.check("sequential reference "+w.ref, out, err, refWant, wantFrom) && want == "" {
			want, wantFrom = out.Fingerprint, "sequential "+w.ref
		}
	}
	if want == "" {
		wantFrom = "the first correct run"
	}

	budget := b.o.seconds
	if traced {
		budget /= 3 // leave room for the traced run and the probes
	}
	var spent float64 // in untraced runs
	for i := 0; i < maxReps; i++ {
		// Stop once the minimum is met and another run would overrun.
		if i >= b.o.reps && now().Sub(start).Seconds()+spent/float64(i) > budget {
			break
		}
		runStart := now()
		out, rss, err := b.child(modeRun, w)
		spent += now().Sub(runStart).Seconds()
		if !r.check(fmt.Sprintf("run %d", i+1), out, err, want, wantFrom) {
			continue
		}
		if want == "" {
			want = out.Fingerprint
		}
		for k, v := range out.Metrics {
			r.reps[k] = append(r.reps[k], v)
		}
		r.reps["peak_rss_mb"] = append(r.reps["peak_rss_mb"], rss)
	}
	if !traced {
		return r
	}

	// Counts repeat exactly across reps; the timed layer numbers take the
	// fastest rep (loop CPU per event) or the reps' median (barrier stall).
	for _, d := range perLayer {
		if vals := r.reps[d.name]; len(vals) > 0 {
			r.layer[d.name] = d.value(summarize(vals))
		}
	}
	out, _, err := b.child(modeTraced, w)
	if r.check("traced run", out, err, want, wantFrom) {
		r.spans = out.Spans
		for k, v := range out.Metrics {
			r.layer[k] = v
		}
		if base := summarize(r.reps["cpu_s"]).Median; base > 0 {
			r.layer["trace.overhead_pct"] = 100 * (out.Metrics["cpu_s"]/base - 1)
		}
	}
	out, _, err = b.child(modeProbe, w)
	if r.check("layer probes", out, err, "", "") {
		for k, v := range out.Metrics {
			r.layer[k] = v
		}
	}
	return r
}

// metricValue is one reported metric of one workload.
type metricValue struct {
	def metricDef
	sum summary
}

// values lists the metrics reported in this trace mode, in declared order.
func (r *result) values(trace string) []metricValue {
	var out []metricValue
	if trace != "1" {
		for _, d := range endToEnd {
			out = append(out, metricValue{d, summarize(r.reps[d.name])})
		}
	}
	if trace != "0" {
		for _, d := range perLayer {
			v := r.layer[d.name]
			out = append(out, metricValue{d, summary{N: 1, Min: v, Q1: v, Median: v, Q3: v, Max: v}})
		}
	}
	return out
}

// print writes the workload's metrics, by name with unit, and its failures.
func (r *result) print(w io.Writer, trace string) {
	fmt.Fprintf(w, "== %s: %d runs, %d failed\n", r.w.name, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	for _, mv := range r.values(trace) {
		s, v := mv.sum, mv.def.value(mv.sum)
		fmt.Fprintf(w, "   %-26s %14.6g %-10s", mv.def.name, v, mv.def.unit)
		if mv.def.bound > 0 {
			fmt.Fprintf(w, " n=%d min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g may worsen by %.3g",
				s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, mv.def.allowance(v))
		}
		fmt.Fprintln(w)
	}
}

// resultLine renders the final output line: correctness, run counts, and
// every metric's value with its unit. Metric names are prefixed with the
// workload when more than one ran.
func resultLine(results []*result, trace string) (string, int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	attempted, failed := 0, 0
	for _, r := range results {
		attempted += r.attempted
		failed += r.failed
		for _, mv := range r.values(trace) {
			name := mv.def.name
			if len(results) > 1 {
				name = r.w.name + "/" + name
			}
			metrics[name] = value{mv.def.value(mv.sum), mv.def.unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	return string(line), failed
}

// writeRows writes the -json report: the run's provenance and one row per
// (workload, metric).
func writeRows(o options, results []*result) error {
	type row struct {
		Workload  string  `json:"workload"`
		Metric    string  `json:"metric"`
		Value     float64 `json:"value"`
		Unit      string  `json:"unit"`
		N         int     `json:"n"`
		Q1        float64 `json:"q1"`
		Median    float64 `json:"median"`
		Q3        float64 `json:"q3"`
		Min       float64 `json:"min"`
		Max       float64 `json:"max"`
		Allowance float64 `json:"allowance,omitempty"`
	}
	rep := struct {
		Manifest   *obs.Manifest `json:"manifest"`
		NumCPU     int           `json:"nproc"`
		GoMaxProcs int           `json:"gomaxprocs"`
		GoVersion  string        `json:"go_version"`
		Seed       int64         `json:"seed"`
		Reps       int           `json:"reps"`
		Seconds    float64       `json:"seconds"`
		Rows       []row         `json:"rows"`
	}{obs.NewManifest("bench", o.seed), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		o.seed, o.reps, o.seconds, nil}
	for _, r := range results {
		frac := float64(r.failed) / float64(max(r.attempted, 1))
		rep.Rows = append(rep.Rows, row{Workload: r.w.name, Metric: "failed_frac", Value: frac,
			Unit: "runs/runs", N: r.attempted, Q1: frac, Median: frac, Q3: frac, Min: frac, Max: frac})
		for _, mv := range r.values(o.trace) {
			s, v := mv.sum, mv.def.value(mv.sum)
			rep.Rows = append(rep.Rows, row{Workload: r.w.name, Metric: mv.def.name, Value: v,
				Unit: mv.def.unit, N: s.N, Q1: s.Q1, Median: s.Median, Q3: s.Q3, Min: s.Min, Max: s.Max,
				Allowance: mv.def.allowance(v)})
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.jsonOut, append(data, '\n'), 0o644)
}

// updateGolden runs every workload once at -seed and rewrites its golden
// file; a sharded workload must first reproduce its sequential reference.
func (b *bencher) updateGolden(stdout, stderr io.Writer) int {
	fps := map[string]string{}
	var names []string
	for _, w := range b.all {
		r := &result{w: w}
		out, _, err := b.child(modeRun, w)
		if !r.check("run", out, err, fps[w.ref], "sequential "+w.ref) {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, r.failures[0])
			return 1
		}
		fps[w.name] = out.Fingerprint
		names = append(names, w.name)
		fmt.Fprintf(stdout, "%s: ok\n", w.name)
	}
	if err := writeGolden(goldenDir, b.o.seed, names, fps); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", goldenPath(goldenDir, b.o.seed))
	return 0
}
