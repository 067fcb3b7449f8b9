// Command benchdiff compares two BENCH_*.json performance snapshots and
// reports per-cell deltas against the regression tolerances: event-loop
// ns/packet and allocs/packet within +10%, set-up allocations within +1%,
// and, at equal seed, no rise in a sharded cell's windows or exchanged
// packets; micro allocs/op within +0.1. Event counts are reported, never
// gated.
//
// Usage:
//
//	benchdiff -baseline BENCH_shard.json -current BENCH_new.json [-json diff.json] [-md summary.md] [-strict]
//
// Without -strict the exit status is 0 even when regressions are found,
// so callers can treat the diff as advisory; -strict exits 1 on any
// regression, which is how the blocking bench-regress CI job turns the
// build red. -md appends the diff as a markdown table to the given file
// (pass $GITHUB_STEP_SUMMARY in CI). Snapshots from machines with
// different CPU counts are compared anyway, with a warning row.
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
		baseline = flag.String("baseline", "BENCH_baseline.json", "baseline snapshot to compare against")
		current  = flag.String("current", "", "fresh drillbench snapshot to judge")
		jsonOut  = flag.String("json", "", "also write the diff as JSON to this file")
		mdOut    = flag.String("md", "", "append the diff as a markdown table to this file")
		strict   = flag.Bool("strict", false, "exit 1 when any tolerance is exceeded")
	)
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		flag.Usage()
		os.Exit(2)
	}

	base, err := experiments.ReadBenchReport(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline: %v\n", err)
		os.Exit(2)
	}
	cur, err := experiments.ReadBenchReport(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: current: %v\n", err)
		os.Exit(2)
	}

	d := experiments.DiffBench(base, cur)
	fmt.Print(d.Format())
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: encode: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
	}
	if *mdOut != "" {
		f, err := os.OpenFile(*mdOut, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		if _, err := f.WriteString(d.FormatMarkdown()); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	if *strict && d.Regressions > 0 {
		os.Exit(1)
	}
}
