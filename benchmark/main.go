// Command benchmark is the repository's performance benchmark: four
// real-clock workloads, each measured end to end (setup, a paced open
// loop, a closed loop, a correctness check) or, with -trace 1, layer by
// layer. See README.md and ../BENCHMARK.json.
//
//	bash benchmark/run.sh --workload tcp-rmw --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit code 0 means the run
// finished and its outputs were correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or \"all\"")
		seed     = flag.Int64("seed", 1, "seeds the key walk, the hot-key choice and the latency jitter")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		quick    = flag.Bool("quick", false, "a tenth of the keys and warm-up, short ramps (the smoke test)")
		out      = flag.String("out", "", "also write the full report(s) as JSON to this file")
		aa       = flag.Int("aa", 0, "run two interleaved sets of N runs per workload and print the A/A table")
		scratch  = flag.String("scratch", ".bench_build/data", "where durable nodes keep their data")
		outDir   = flag.String("outdir", "benchmark/out", "where trace-<workload>.json goes")
	)
	flag.Parse()
	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1,
		quick: *quick, scratch: *scratch, outDir: *outDir}

	if *aa > 0 {
		if err := runAA(*aa, *workload, opts); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	var selected []spec
	if *workload == "all" {
		selected = specs
	} else {
		s, err := findSpec(*workload)
		if err != nil {
			var names []string
			for _, s := range specs {
				names = append(names, s.name)
			}
			fmt.Fprintf(os.Stderr, "benchmark: %v (want one of %s, all)\n", err, strings.Join(names, ", "))
			os.Exit(2)
		}
		selected = []spec{s}
	}

	// One workload runs in this process. "all" runs each in a child, so
	// that no workload measures the heap the one before it left behind.
	var reports []report
	failed := false
	for _, s := range selected {
		var rep report
		if len(selected) == 1 {
			rep = run(s, opts)
			printReport(rep)
		} else {
			var err error
			rep, err = runChild(s.name, opts, os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
		}
		reports = append(reports, rep)
		failed = failed || !rep.Correct
	}
	if *out != "" {
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// printReport prints every metric by name and unit, then the result line.
func printReport(rep report) {
	for _, m := range rep.Metrics {
		fmt.Printf("%s %s %v %s\n", rep.Workload, m.Name, m.Value, m.Unit)
	}
	if rep.Error != "" {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", rep.Workload, rep.Error)
		return // no result line: the run cannot be trusted
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]value)}
	for _, m := range rep.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(blob))
}
