// Command benchdiff compares two BENCH_*.json performance snapshots and
// reports per-cell deltas against the tolerances: event-loop ns/packet
// within +10%, allocs/packet within ±10%, set-up allocations within ±1%,
// and, at equal seed, a sharded cell's windows and exchanged packets
// unchanged; micro allocs/op within ±0.1. The deterministic columns gate
// both ways: a gain beyond its tolerance means the baseline is stale and
// must be re-recorded, so gains cannot be lost again unseen. Event counts
// are reported, never gated.
//
// Usage:
//
//	benchdiff -baseline BENCH_shard.json -current BENCH_new.json [-json diff.json] [-md summary.md] [-strict]
//
// The baseline defaults to BENCH_shard.json, the snapshot CI gates
// against. Without -strict the exit status is 0 even when regressions are
// found, so callers can treat the diff as advisory; -strict exits 1 on any
// regression, which is how the blocking bench-regress CI job turns the
// build red, and on any deterministic column that beats the baseline by
// more than its tolerance, naming each such column on stderr and asking
// for a new snapshot. -strict also exits 2 when the baseline lacks a gated column
// (an older snapshot), since a gate that checks nothing cannot pass. -md
// appends the diff as a markdown table to the given file (pass
// $GITHUB_STEP_SUMMARY in CI). Snapshots from machines with different CPU
// counts are compared anyway, with a warning row.
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
		baseline = flag.String("baseline", "BENCH_shard.json", "baseline snapshot to compare against")
		current  = flag.String("current", "", "fresh drillbench snapshot to judge")
		jsonOut  = flag.String("json", "", "also write the diff as JSON to this file")
		mdOut    = flag.String("md", "", "append the diff as a markdown table to this file")
		strict   = flag.Bool("strict", false, "exit 1 when any tolerance is exceeded, 2 when the baseline lacks a gated column")
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
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
	}
	if *strict && d.Unchecked > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: -strict: %s lacks %d gated column(s); compare against a snapshot that has them\n",
			*baseline, d.Unchecked)
		os.Exit(2)
	}
	if *strict {
		for _, f := range d.Findings {
			if f.Improved {
				fmt.Fprintf(os.Stderr, "benchdiff: -strict: %s %s is %.6g against %.6g in %s, beyond its tolerance; commit a new snapshot as %s, each cell column the median of five drillbench runs\n",
					f.Cell, f.Metric, f.Current, f.Baseline, *baseline, *baseline)
			}
		}
		if d.Regressions > 0 || d.Improvements > 0 {
			os.Exit(1)
		}
	}
}
