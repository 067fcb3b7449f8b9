// Command drillsim runs the DRILL paper's evaluation experiments and
// prints the tables/series each figure reports.
//
// Usage:
//
//	drillsim -list
//	drillsim -exp fig6a [-scale 0.25] [-seed 7] [-loads 0.1,0.5,0.8] [-workers 4] [-q]
//	drillsim -exp fig6a -shards 4   (sharded parallel engine; output is byte-identical)
//	drillsim -exp fig6a -campaign flapstorm   (scripted mid-run fail/restore; also @file.json)
//	drillsim -exp qtrace -trace events.csv [-trace-sample 10us]
//	drillsim -exp fig6a -cpuprofile cpu.pprof -memprofile mem.pprof
//	drillsim -exp fig11 -metrics-addr :9137 -progress -manifest fig11.manifest.json
//	drillsim -exp all
//
// -metrics-addr serves the live metrics registry while experiments run:
// Prometheus text exposition at /metrics, the same snapshot as JSON at
// /metrics.json, the retained snapshot ring at /snapshots.json. -progress
// prints a one-line heartbeat (sim time, events/s, cells done, ETA) to
// stderr each wall second; it is forced off for sequential runs so
// -workers 1 output stays the determinism reference. -manifest writes a
// provenance record (build info, git revision, seed, per-cell config
// hashes and counters) next to the experiment output. None of these touch
// the simulation: metrics observe, never steer, and reports stay
// byte-identical with them on or off.
//
// Sweep cells fan out across -workers goroutines; reports are
// byte-identical for a fixed seed at any worker count, and -workers 1
// reproduces the fully sequential behavior.
//
// -trace streams every run's packet-lifecycle and queue-sample events to a
// file (CSV, or JSON-lines with a .jsonl/.json extension; see
// internal/trace for the schema). Tracing forces -workers 1 so the shared
// file sees runs whole and in order; with tracing off the data plane runs
// its zero-allocation fast path.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"drill/internal/experiments"
	"drill/internal/obs"
	"drill/internal/obs/obshttp"
	"drill/internal/trace"
	"drill/internal/units"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id to run, or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		scale    = flag.Float64("scale", 0, "0 = quick single-core defaults, 1 = paper parameters")
		seed     = flag.Int64("seed", 1, "base random seed")
		loads    = flag.String("loads", "", "comma-separated load override, e.g. 0.1,0.5,0.8")
		reps     = flag.Int("reps", 1, "replications per sweep cell, pooled (FCT sweeps only; the other experiments reject > 1)")
		workers  = flag.Int("workers", runtime.NumCPU(), "concurrent simulation runs (1 = sequential)")
		shards   = flag.Int("shards", 0, "shards per simulation run on the parallel engine (0 = sequential engine); results are byte-identical at any value")
		campaign = flag.String("campaign", "", "scripted fail/restore campaign for every sweep cell: a preset (flapstorm, podfail, rollingdrain) or @file.json (see EXPERIMENTS.md for the format)")
		format   = flag.String("format", "table", "output format: table | csv | json")
		quiet    = flag.Bool("q", false, "suppress per-run progress lines")

		traceOut    = flag.String("trace", "", "write per-event trace to this file (.csv, or .jsonl/.json for JSON-lines)")
		traceSample = flag.Duration("trace-sample", 10*time.Microsecond, "queue-depth/utilization sampling period when -trace is set")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at exit")

		progressHB    = flag.Bool("progress", false, "print a sweep heartbeat line to stderr every wall second (forced off at -workers 1)")
		metricsAddr   = flag.String("metrics-addr", "", "serve live metrics on this address (Prometheus text at /metrics, JSON at /metrics.json, engine report at /engine.json; :0 picks a free port)")
		metricsSample = flag.Duration("metrics-sample", 100*time.Microsecond, "sim-time snapshot interval when live metrics are enabled")
		manifestOut   = flag.String("manifest", "", "write a provenance manifest (build info, seed, per-cell config hashes) to this JSON file")
		engineReport  = flag.Bool("engine-report", false, "print each cell's engine observatory report (per-shard ev/s, stall %, window-size quantiles, scheduler internals) to stderr")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "drillsim: -reps must be >= 1 (got %d)\n", *reps)
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "drillsim: -workers must be >= 1 (got %d); omit the flag to use all %d CPUs\n",
			*workers, runtime.NumCPU())
		os.Exit(2)
	}
	if *metricsSample <= 0 {
		fmt.Fprintf(os.Stderr, "drillsim: -metrics-sample must be positive (got %v)\n", *metricsSample)
		os.Exit(2)
	}
	if *traceSample <= 0 {
		fmt.Fprintf(os.Stderr, "drillsim: -trace-sample must be positive (got %v)\n", *traceSample)
		os.Exit(2)
	}
	loadList, err := parseLoads(*loads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drillsim: -loads: %v\n", err)
		os.Exit(2)
	}
	if !(*scale >= 0 && *scale <= 1) {
		fmt.Fprintf(os.Stderr, "drillsim: -scale must be within [0, 1] (got %g)\n", *scale)
		os.Exit(2)
	}
	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "drillsim: unknown -format %q (table, csv or json)\n", *format)
		os.Exit(2)
	}
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "drillsim: -shards must be >= 0 (got %d)\n", *shards)
		os.Exit(2)
	}
	var exps []*experiments.Experiment
	if *exp == "all" {
		exps = experiments.All()
	} else {
		named := map[*experiments.Experiment]bool{}
		for _, id := range strings.Split(*exp, ",") {
			e := experiments.Get(strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "drillsim: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			// A second run would repeat the first's cells under the same
			// metric scopes, and print the same report again.
			if named[e] {
				fmt.Fprintf(os.Stderr, "drillsim: -exp names %s twice\n", e.ID)
				os.Exit(2)
			}
			named[e] = true
			exps = append(exps, e)
		}
	}
	if *reps > 1 {
		var pooling []string
		for _, e := range experiments.All() {
			if e.PoolsReps {
				pooling = append(pooling, e.ID)
			}
		}
		for _, e := range exps {
			if !e.PoolsReps {
				fmt.Fprintf(os.Stderr, "drillsim: -reps %d: %s runs one replication per cell (only %s pool replications)\n",
					*reps, e.ID, strings.Join(pooling, ", "))
				os.Exit(2)
			}
		}
	}
	var camp *experiments.Campaign
	if *campaign != "" {
		if name, ok := strings.CutPrefix(*campaign, "@"); ok {
			if camp, err = experiments.LoadCampaign(name); err != nil {
				fmt.Fprintf(os.Stderr, "drillsim: -campaign: %v\n", err)
				os.Exit(2)
			}
		} else if camp, ok = experiments.CampaignByName(*campaign); !ok {
			fmt.Fprintf(os.Stderr, "drillsim: unknown campaign %q (presets: flapstorm, podfail, rollingdrain; or @file.json)\n", *campaign)
			os.Exit(2)
		}
	}
	// Sim runs are CPU-bound, so more workers than cores only adds
	// scheduling churn.
	resolved := *workers
	if n := runtime.NumCPU(); resolved > n {
		resolved = n
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drillsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "drillsim: cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "drillsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "drillsim: heap profile: %v\n", err)
			}
		}()
	}

	if *shards > 0 && *traceOut != "" {
		// Full-kind tracing is a sequential-engine feature; a sharded run
		// only admits the sampler kinds (see RunCfg.Shards).
		fmt.Fprintf(os.Stderr, "drillsim: -shards is ignored with -trace (traced runs use the sequential engine)\n")
	}

	opts := experiments.Options{Seed: *seed, Scale: *scale, Reps: *reps, Workers: resolved, Shards: *shards, Loads: loadList, Campaign: camp}
	if camp != nil && !*quiet {
		fmt.Fprintf(os.Stderr, "drillsim: campaign %s: %d set(s), %d action(s)\n",
			camp.Name, len(camp.Sets), len(camp.Timeline))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drillsim: -trace: %v\n", err)
			os.Exit(1)
		}
		var sink trace.Sink
		if strings.HasSuffix(*traceOut, ".jsonl") || strings.HasSuffix(*traceOut, ".json") {
			sink = trace.NewJSONL(f)
		} else {
			sink = trace.NewCSV(f)
		}
		opts.TraceSink = sink
		opts.TraceSample = units.Time(traceSample.Nanoseconds())
		if resolved > 1 && !*quiet {
			fmt.Fprintf(os.Stderr, "drillsim: -trace forces sequential runs (-workers 1)\n")
		}
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "drillsim: trace: %v\n", err)
			}
			f.Close()
		}()
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "drillsim: %d worker(s) (%d CPUs), seed %d, scale %g, reps %d\n",
			resolved, runtime.NumCPU(), *seed, *scale, *reps)
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	// The heartbeat exists for watching multi-worker sweeps; sequential
	// (-workers 1) invocations are how determinism is checked and compared,
	// so they stay heartbeat-free by construction. Tracing forces workers=1
	// and is covered by the same rule.
	if *progressHB && (resolved == 1 || *traceOut != "") {
		fmt.Fprintf(os.Stderr, "drillsim: -progress is forced off for sequential runs (-workers 1 or -trace)\n")
		*progressHB = false
	}
	var reg *obs.Registry
	if *metricsAddr != "" || *progressHB {
		reg = obs.NewRegistry(32)
		opts.Obs = reg
		opts.ObsSample = units.Time(metricsSample.Nanoseconds())
	}
	// The latest completed cell's engine report, published to /engine.json
	// and (with -engine-report) printed per cell. The sink runs on the
	// fan-out pool's serialized done callbacks; scrapes read the atomic
	// pointer, never the running simulation.
	var engineRep atomic.Pointer[obs.EngineReport]
	if *engineReport || *metricsAddr != "" {
		opts.EngineSink = func(cell int, rep *obs.EngineReport) {
			if rep == nil {
				return
			}
			engineRep.Store(rep)
			if *engineReport {
				fmt.Fprintf(os.Stderr, "engine report (cell %d): %s", cell, rep.Format())
			}
		}
	}
	if *metricsAddr != "" {
		srv, err := obshttp.ServeConfig(*metricsAddr, obshttp.Config{
			Reg:    reg,
			Engine: engineRep.Load,
			OnWriteError: func(endpoint string, err error) {
				fmt.Fprintf(os.Stderr, "drillsim: metrics scrape %s: %v\n", endpoint, err)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "drillsim: -metrics-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "drillsim: serving metrics at %s/metrics (JSON at /metrics.json, engine report at /engine.json)\n", srv.URL())
		defer srv.Close()
	}
	var man *obs.Manifest
	if *manifestOut != "" {
		man = obs.NewManifest(strings.Join(os.Args, " "), *seed)
		man.StartedAt = time.Now().UTC().Format(time.RFC3339) //drill:allow simtime manifest start stamp is wall provenance, never a sim timestamp
		opts.Manifest = man
	}
	var hb *heartbeat
	if *progressHB {
		hb = startHeartbeat(reg, os.Stderr, 1*time.Second)
	}
	for _, e := range exps {
		opts.ExpID = e.ID
		start := time.Now() //drill:allow simtime wall timing of the experiment for the stderr progress line
		rep := e.Run(opts)
		// Wall-clock timing goes to stderr: stdout is byte-identical for a
		// fixed seed regardless of worker count or machine speed.
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", e.ID, time.Since(start).Seconds()) //drill:allow simtime wall timing of the experiment for the stderr progress line
		switch *format {
		case "table":
			fmt.Print(rep.Format())
			fmt.Println()
		case "csv":
			out, err := rep.CSV()
			if err != nil {
				fmt.Fprintf(os.Stderr, "drillsim: csv: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(out)
		case "json":
			out, err := rep.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "drillsim: json: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(out)
		}
	}
	if hb != nil {
		hb.Stop()
	}
	if man != nil {
		f, err := os.Create(*manifestOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drillsim: -manifest: %v\n", err)
			os.Exit(1)
		}
		werr := man.Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "drillsim: -manifest: %v\n", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "drillsim: wrote %s %s\n", *manifestOut, man)
	}
}

// parseLoads parses the -loads list. Every load must be a positive, finite
// fraction of capacity: a zero, negative, infinite or NaN load would run a
// sweep cell with no (or nonsensical) traffic and report it as a result.
func parseLoads(list string) ([]float64, error) {
	if list == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %v", part, err)
		}
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("load %q must be positive and finite", strings.TrimSpace(part))
		}
		out = append(out, v)
	}
	return out, nil
}
