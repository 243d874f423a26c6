// mdcc-sim runs deterministic fault-injection scenarios against the
// full MDCC stack on the simulated five-data-center WAN and prints a
// pass/fail invariant report (internal/check: no lost updates,
// version accounting, delta conservation, constraint safety) plus
// commit/abort and latency statistics.
//
// Usage:
//
//	mdcc-sim -scenario dc-outage -seed 1
//	mdcc-sim -scenario all -clients 200 -duration 2m
//	mdcc-sim -scenario gateway-partition -scenario.trace
//	mdcc-sim -list
//
// -scenario.trace additionally runs the transaction flight recorder
// and prints assembled cross-node timelines for the five slowest
// transactions, every retained abort/outcome-unknown, and — on a
// failed run — the transactions touching each violated invariant's
// keys.
//
// Runs are reproducible: the same scenario, seed and sizing always
// produce the same commits, aborts and verdict, so any failure can be
// replayed from its report line alone.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"mdcc/internal/scenario"
)

var (
	name     = flag.String("scenario", "all", "scenario name, or \"all\"")
	seed     = flag.Int64("seed", 1, "simulation seed (reproducible)")
	clients  = flag.Int("clients", 0, "simulated clients (0 = scenario default)")
	nodes    = flag.Int("nodes-per-dc", 0, "storage nodes per data center (0 = scenario default)")
	scnDrop  = flag.Float64("scenario.drop", 0, "ambient uniform message-drop probability in [0, 1), from the start of the traffic window until the schedule sets its own")
	duration = flag.Duration("duration", 0, "virtual traffic window (0 = scenario default)")
	noFaults = flag.Bool("no-faults", false, "skip the nemesis schedule (happy-path run)")
	list     = flag.Bool("list", false, "list scenarios and exit")
	verbose  = flag.Bool("v", false, "log nemesis events as they fire")

	traceOn   = flag.Bool("scenario.trace", false, "run the transaction flight recorder and print assembled cross-node timelines (the 5 slowest, every retained abort/unknown, and the transactions behind each invariant violation)")
	traceSlow = flag.Duration("scenario.trace-slow", 0, "flight recorder: retain transactions slower than this (0 = default 1s)")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mdcc-sim [-scenario name|all] [-seed N] [-clients N] [-duration D] [-no-faults] [-v]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *traceSlow < 0 {
		fmt.Fprintf(os.Stderr, "mdcc-sim: -scenario.trace-slow %s: negative (0 = default 1s)\n", *traceSlow)
		os.Exit(2)
	}

	if *list {
		for _, s := range scenario.All() {
			fmt.Printf("%-24s %s\n", s.Name, s.Description)
		}
		return
	}

	var torun []*scenario.Scenario
	if *name == "all" {
		torun = scenario.All()
	} else {
		s, ok := scenario.Find(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "mdcc-sim: unknown scenario %q; known: %v\n", *name, scenario.Names())
			os.Exit(2)
		}
		torun = []*scenario.Scenario{s}
	}

	opts := scenario.Options{
		Seed:       *seed,
		Clients:    *clients,
		NodesPerDC: *nodes,
		Duration:   *duration,
		Faults:     !*noFaults,
		DropProb:   *scnDrop,
		Trace:      *traceOn,
		TraceSlow:  *traceSlow,
	}
	if *verbose {
		opts.Logf = func(format string, args ...interface{}) {
			fmt.Printf(format+"\n", args...)
		}
	}

	failed := 0
	for _, s := range torun {
		start := time.Now()
		res, err := s.Run(opts)
		if errors.Is(err, scenario.ErrDropProb) {
			fmt.Fprintf(os.Stderr, "mdcc-sim: -scenario.drop: %v\n", err)
			os.Exit(2)
		}
		if errors.Is(err, scenario.ErrSizing) {
			fmt.Fprintf(os.Stderr, "mdcc-sim: -clients, -nodes-per-dc, -duration: %v\n", err)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdcc-sim: %s: %v\n", s.Name, err)
			failed++
			continue
		}
		fmt.Print(res.Report())
		fmt.Printf("  wall time: %s\n\n", time.Since(start).Round(time.Millisecond))
		// With tracing on, print the diagnosis bundle: one assembled
		// cross-node timeline per retained transaction, plus the
		// transactions behind each invariant violation.
		if len(res.Timelines) > 0 {
			fmt.Printf("--- flight recorder: %d timelines ---\n", len(res.Timelines))
			for _, tl := range res.Timelines {
				fmt.Println(tl)
			}
			fmt.Println()
		}
		if !res.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mdcc-sim: %d of %d scenarios FAILED\n", failed, len(torun))
		os.Exit(1)
	}
	fmt.Printf("all %d scenarios passed\n", len(torun))
}
