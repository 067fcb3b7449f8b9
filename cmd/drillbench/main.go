// Command drillbench runs the canonical performance cells and writes a
// BENCH_*.json snapshot — one point of the repo's performance trajectory.
//
// Usage:
//
//	drillbench -out BENCH_current.json [-seed 1] [-q]
//
// Write a fresh file: the committed BENCH_*.json files are the history
// that benchdiff compares against. The report is written to <out>.tmp,
// created before the first cell runs so an unwritable -out fails at once,
// and renamed to <out> when the run ends, so a run that dies part-way
// leaves an existing <out> untouched. Each cell reports set-up wall time and
// allocations (everything before RunCfg.Hook), the event loop's ns,
// allocations and events per packet sent, bytes allocated, peak heap, and
// packet-pool traffic; sharded cells add windows and exchanged packets.
// Each cell's events and windows are its run's own: the harness measures
// from outside the simulation and schedules nothing in it. Event, packet
// and shard-protocol counts and pool traffic are deterministic per seed;
// wall-clock-derived rates vary with the machine, so compare BENCH files
// from the same hardware.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"drill/internal/experiments"
)

func main() {
	var (
		out   = flag.String("out", "", "write the JSON report to this file (default stdout)")
		seed  = flag.Int64("seed", 1, "base random seed for the bench cells")
		quiet = flag.Bool("q", false, "suppress per-cell progress lines")
	)
	flag.Parse()

	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.OpenFile(*out+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "drillbench: -out: %v\n", err)
			os.Exit(1)
		}
	}

	var progress func(format string, args ...any)
	if !*quiet {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}
	rep := experiments.RunBench(*seed, progress)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		if f != nil {
			os.Remove(f.Name())
		}
		fmt.Fprintf(os.Stderr, "drillbench: encode: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if f == nil {
		os.Stdout.Write(buf)
		return
	}
	_, err = f.Write(buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), *out)
	}
	if err != nil {
		os.Remove(f.Name())
		fmt.Fprintf(os.Stderr, "drillbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "drillbench: wrote %s\n", *out)
}
