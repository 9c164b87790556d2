// Command ipabench regenerates the tables and figures of the paper's
// evaluation on the simulated Flash device.
//
// Usage:
//
//	ipabench -exp table1       # Table 1: TPC-B, 0x0 vs 2x4 pSLC vs 2x4 odd-MLC
//	ipabench -exp fig1         # Figure 1: DBMS write-amplification analysis
//	ipabench -exp oltp         # OLTP suite: throughput / GC reduction claims
//	ipabench -exp longevity    # Flash lifetime estimate (runs oltp first)
//	ipabench -exp ipl          # IPA vs In-Page Logging comparison
//	ipabench -exp scenarios    # demo scenarios 1/2/3 side by side
//	ipabench -exp interference # program-interference ablation (MLC modes)
//	ipabench -exp sweep        # N×M scheme ablation
//	ipabench -exp concurrent   # concurrency scaling, then the readmix ladder
//	ipabench -exp readmix      # read-skew ladder: MVCC snapshot vs 2PL reads
//	ipabench -exp chips        # chip scaling (per-chip FTL partitions)
//	ipabench -exp crash        # power-cut torture: crash at every fault point
//	ipabench -exp index        # index maintenance: IPA vs out-of-place entry pages
//	ipabench -exp secondary    # secondary-index maintenance: IPA vs out-of-place
//	ipabench -exp ycsb         # YCSB A-F, cache-sized and 8x larger-than-memory
//	ipabench -exp all
//
// Every experiment is one entry of bench.Registry: its defaults, then the
// -quick overrides (a smaller device and fewer operations, so the whole
// suite finishes in a few minutes), then any explicitly set flag. Without
// -quick the defaults match the full runs documented in EXPERIMENTS.md
// (which also maps each experiment to the paper's tables and figures).
// With -json -out FILE the run additionally writes one structured JSON
// object per experiment, which CI archives as a build artifact.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ipa"
	"ipa/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// expUsage is the -exp flag's usage string: every registered experiment.
func expUsage() string {
	return "experiment: " + strings.Join(bench.Names(), ", ") + ", all"
}

// run executes one ipabench invocation and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	base := bench.Base()
	fs := flag.NewFlagSet("ipabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", expUsage())
		scale    = fs.Int("scale", 0, "workload scale factor (0 = experiment default)")
		ops      = fs.Int("ops", 0, "bound runs by committed transactions (0 = experiment default)")
		duration = fs.Duration("duration", 0, "bound runs by virtual device time (0 = experiment default)")
		seed     = fs.Int64("seed", base.Seed, "random seed")
		quick    = fs.Bool("quick", false, "shrink all experiments for a fast demo run")
		n        = fs.Int("n", base.Scheme.N, "IPA scheme parameter N")
		m        = fs.Int("m", base.Scheme.M, "IPA scheme parameter M")
		threads  = fs.Int("threads", 0, "concurrent, readmix and chips experiments: fixed goroutine count (0 = default; concurrent ladder 1,2,4,8)")
		chips    = fs.Int("chips", 0, "chips and crash experiments: fixed chip count (0 = default; chips ladder 1,2,4,8)")
		jsonOut  = fs.Bool("json", false, "collect machine-readable results")
		outFile  = fs.String("out", "", "file for -json results (default bench.json)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	entries, err := bench.Select(*exp)
	if err != nil {
		fmt.Fprintf(stderr, "ipabench: %v\n", err)
		return 2
	}

	report := &bench.Report{}
	done := map[string]bench.Outcome{}
	for _, e := range entries {
		o := e.Options(*quick)
		o.Seed = *seed
		o.Scheme = ipa.Scheme{N: *n, M: *m}
		if *scale > 0 {
			o.Scale = *scale
		}
		if *ops > 0 {
			o.Ops, o.Duration = *ops, 0
		}
		if *duration > 0 && e.Timed {
			o.Duration, o.Ops = *duration, 0
		}
		if *threads > 0 {
			o.Threads = *threads
		}
		if *chips > 0 {
			o.Chips = *chips
		}

		fmt.Fprintf(stdout, "== %s ==\n", e.Title)
		start := time.Now()
		res, err := e.Run(o, done)
		if err != nil {
			fmt.Fprintf(stderr, "ipabench: %s: %v\n", e.Title, err)
			return 1
		}
		res.Write(stdout)
		report.Add(e.Name, o, res)
		done[e.Name] = res
		if f, ok := res.(interface{ Failed() bool }); ok && f.Failed() {
			fmt.Fprintf(stderr, "ipabench: %s: recovery invariants violated\n", e.Title)
			return 1
		}
		fmt.Fprintf(stdout, "(completed in %s wall-clock)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut {
		path := *outFile
		if path == "" {
			path = "bench.json"
		}
		if err := report.WriteFile(path); err != nil {
			fmt.Fprintf(stderr, "ipabench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d experiment results to %s\n", len(report.Entries), path)
	}
	return 0
}
