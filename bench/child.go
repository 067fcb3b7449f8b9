package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"syscall"
	"time"

	"drill/internal/experiments"
	"drill/internal/experiments/conformance"
	"drill/internal/fabric"
	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
)

// childFlag, as the first argument, makes the binary run one measurement
// in this process and print a childOut as JSON; the parent starts one such
// process per run so every run gets a clean heap and its own peak RSS.
const childFlag = "-child"

// Child modes.
const (
	modeRun    = "run"    // one untraced run
	modeTraced = "traced" // one run with spans and a wrapped balancer
	modeProbe  = "probe"  // the isolated layer probes
)

// childOut is what a child reports to the parent.
type childOut struct {
	// Fingerprint is the run's normalised fingerprint (run and traced).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Err reports a wrong output, such as a conservation violation.
	Err     string             `json:"err,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans,omitempty"`
}

// childMain runs one measurement and prints its result to standard output.
func childMain(args []string) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	small := fs.Bool("small", false, "reduced workload sizes")
	if len(args) < 1 || fs.Parse(args[1:]) != nil {
		fmt.Fprintln(os.Stderr, "bench: usage: -child run|traced|probe -workload NAME -seed N [-small]")
		return 2
	}
	w, ok := lookup(catalog(*small), *name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	var out childOut
	switch args[0] {
	case modeRun:
		out = runOnce(w.cfg(*seed))
	case modeTraced:
		out = runTraced(w.cfg(*seed))
	case modeProbe:
		out = childOut{Metrics: runProbes(w.cfg(*seed))}
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown child mode %q\n", args[0])
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// now reads the wall clock: the only wall-clock read in the benchmark.
// Every duration it yields is host time spent on real work.
func now() time.Time {
	return time.Now() //drill:allow simtime host timing of benchmark work, never a sim timestamp
}

// cpuTime is the CPU time all of this process's threads have spent
// running. Unlike the wall clock it excludes time the hypervisor steals
// from a virtual CPU, the largest source of run-to-run noise on a shared
// host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOnce executes cfg with tracing off and measures set-up (Run entry to
// the Hook, which Run calls once topology, fabric, transport and workload
// are built) apart from the event loop (Hook to return).
func runOnce(cfg experiments.RunCfg) childOut {
	var ms0, msHook, ms1 runtime.MemStats
	var hook time.Time
	var cpuHook time.Duration
	cfg.Hook = func(*transport.Registry, units.Time) {
		hook = now()
		runtime.ReadMemStats(&msHook)
		cpuHook = cpuTime()
	}
	runtime.ReadMemStats(&ms0)
	cpuStart := cpuTime()
	start := now()
	res := experiments.Run(cfg)
	cpuEnd := cpuTime()
	runtime.ReadMemStats(&ms1)

	loop := float64((cpuEnd - cpuHook).Nanoseconds())
	pkts := float64(max(res.Sent, 1))
	m := layerCounts(res)
	m["setup_s"] = hook.Sub(start).Seconds()
	m["loop_cpu_ns_per_pkt"] = loop / pkts
	m["setup_allocs"] = float64(msHook.Mallocs - ms0.Mallocs)
	m["loop_allocs_per_pkt"] = float64(ms1.Mallocs-msHook.Mallocs) / pkts
	m["cpu_s"] = (cpuEnd - cpuStart).Seconds()
	m["sim.loop_cpu_ns_per_event"] = loop / float64(max(res.Events, 1))
	return childOut{Fingerprint: fingerprint(res), Err: conservation(res), Metrics: m}
}

// runTraced executes cfg with spans around the topology build, the table
// builds and the set-up and loop phases, and with the balancer wrapped to
// count and time every Choose. It must reproduce the untraced fingerprint.
func runTraced(cfg experiments.RunCfg) childOut {
	if err := checkWrappable(cfg.Scheme.New()); err != nil {
		return childOut{Err: err.Error()}
	}
	rec := &recorder{phase: "setup"}
	// Run builds the topology before the balancer, so the wrapper can size
	// its per-switch counters from it.
	var nodes int
	build := cfg.Topo
	cfg.Topo = func() *topo.Topology {
		defer rec.begin("topo.build")()
		t := build()
		nodes = len(t.Nodes)
		return t
	}
	var lb *tracedBalancer
	inner := cfg.Scheme.New
	cfg.Scheme.New = func() fabric.Balancer {
		lb = newTracedBalancer(inner(), nodes, rec)
		return lb
	}
	var hook time.Time
	cfg.Hook = func(*transport.Registry, units.Time) {
		hook = now()
		rec.phase = "loop"
	}
	rec.origin = now()
	cpuStart := cpuTime()
	res := experiments.Run(cfg)
	cpu := cpuTime() - cpuStart
	end := now()
	rec.add("setup", "run", rec.origin, hook)
	rec.add("loop", "run", hook, end)
	rec.add("run", "", rec.origin, end)

	m := map[string]float64{
		"cpu_s":             cpu.Seconds(),
		"topo.build_s":      rec.total("topo.build", "setup"),
		"lb.tables_setup_s": rec.total("lb.build_tables", "setup"),
		"lb.tables_loop_s":  rec.total("lb.build_tables", "loop"),
		"lb.tables_calls":   float64(rec.count("lb.build_tables")),
	}
	m["setup.self_s"] = hook.Sub(rec.origin).Seconds() - m["topo.build_s"] - m["lb.tables_setup_s"]
	calls, ns := lb.totals()
	m["lb.choose_calls"] = float64(calls)
	m["lb.choose_ns"] = float64(ns) / float64(max(calls, 1))
	return childOut{Fingerprint: fingerprint(res), Err: conservation(res), Metrics: m, Spans: rec.spans}
}

// layerCounts extracts the per-layer counts every run carries in its
// RunResult and engine report. All repeat exactly for a seed except the
// wall-derived barrier stall share.
func layerCounts(res *experiments.RunResult) map[string]float64 {
	m := map[string]float64{
		"fabric.delivered":        float64(res.Delivered),
		"fabric.drops":            float64(res.Drops),
		"fabric.epochs":           float64(res.Epochs),
		"fabric.pool_reuse":       0,
		"sim.events":              float64(res.Events),
		"transport.flows":         float64(res.Flows),
		"transport.timeouts":      float64(res.Timeouts),
		"transport.retx_per_kpkt": 1000 * float64(res.Retransmits) / float64(max(res.Sent, 1)),
	}
	if res.PacketGets > 0 {
		m["fabric.pool_reuse"] = float64(res.PacketGets-res.PacketAllocs) / float64(res.PacketGets)
	}
	var near, wheel, far, cascades, heap uint64
	rep := res.EngineRep
	for _, sc := range rep.Sched {
		near += sc.Near
		wheel += sc.Wheel
		far += sc.Far
		cascades += sc.Cascades
		heap += sc.DispatchHeap
	}
	m["sim.near"], m["sim.wheel"], m["sim.far"] = float64(near), float64(wheel), float64(far)
	m["sim.cascades"], m["sim.dispatch_heap"] = float64(cascades), float64(heap)
	var exchanged uint64
	for _, row := range rep.Exchange {
		for _, n := range row {
			exchanged += n
		}
	}
	m["shard.windows"] = float64(rep.WindowCount)
	m["shard.barriers"] = float64(rep.Barriers)
	m["shard.exchanged"] = float64(exchanged)
	m["shard.imbalance"] = rep.Imbalance()
	m["shard.stall_pct"] = rep.StallPct()
	return m
}

// eventsField is the one fingerprint field normalisation removes: the
// dispatched-event count, which an optimisation may lower (batched hops,
// fewer timers) without changing any simulated outcome.
var eventsField = regexp.MustCompile(` events=\d+`)

// normalise strips the events= field from a conformance fingerprint.
func normalise(fp string) string { return eventsField.ReplaceAllString(fp, "") }

// fingerprint is a run's normalised conformance fingerprint.
func fingerprint(res *experiments.RunResult) string {
	return normalise(conformance.Fingerprint(res))
}

// conservation checks Sent == Delivered + Drops + QueuedEnd + InFlightEnd
// and describes a violation.
func conservation(res *experiments.RunResult) string {
	if got := res.Delivered + res.Drops + res.QueuedEnd + res.InFlightEnd; got != res.Sent {
		return fmt.Sprintf("conservation violated: sent=%d but delivered+drops+queued+inflight=%d", res.Sent, got)
	}
	return ""
}
