// Command drillbench runs the canonical performance cells and writes a
// BENCH_*.json snapshot — one point of the repo's performance trajectory.
//
// Usage:
//
//	drillbench -out BENCH_baseline.json [-seed 1] [-q]
//
// Each cell reports set-up wall time and allocations (everything before
// RunCfg.Hook), the event loop's ns, allocations and events per packet
// sent, the older per-event rates, peak heap, and packet-pool traffic;
// sharded cells add windows and exchanged packets. The micro section
// reports allocs/op for the timer re-arm, packet recycle, and
// send→deliver paths (the first two are pinned at zero by alloc-ceiling
// tests). Event, packet and shard-protocol counts and pool traffic are
// deterministic per seed; wall-clock-derived rates vary with the machine,
// so compare BENCH files from the same hardware.
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

	var progress func(format string, args ...any)
	if !*quiet {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}
	rep := experiments.RunBench(*seed, progress)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "drillbench: encode: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "drillbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "drillbench: wrote %s\n", *out)
}
