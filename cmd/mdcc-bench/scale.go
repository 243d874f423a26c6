// The scale arm is the repo's own benchmark (no paper figure): it
// sweeps simulated cluster size against ambient message drop and
// reports committed tx/s, post-heal convergence time, and the
// simulator's sim-time/wall-time ratio at each point. The ratio is
// the headline: the sharded event engine must keep a 1000-process
// 60s-virtual run faster than real time, and -sim-gate turns that
// into a CI failure when it regresses.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mdcc/internal/scenario"
)

var (
	simGate = flag.Float64("sim-gate", 0, "scale arm: fail (exit 1) if any sweep point's wall time exceeds this many milliseconds (0 = no gate)")
	scNodes = flag.String("scale.nodes", "", "scale arm: comma-separated storage nodes per DC (default 1,40,188 = 65/260/1000 processes at 60 clients)")
	scDrop  = flag.String("scale.drop", "", "scale arm: comma-separated ambient drop percentages, each in [0, 100) (default 0,2)")
)

// scaleResult is the -out JSON shape: the sweep grid plus enough
// header to re-run it.
type scaleResult struct {
	Scenario   string
	Seed       int64
	Clients    int
	DurationMS int64
	Quick      bool
	Points     []scenario.SweepPoint
}

func scaleBench() {
	// The sweep runs chaos-mix at its own client count.
	swept, ok := scenario.Find("chaos-mix")
	if !ok {
		fmt.Fprintln(os.Stderr, "mdcc-bench: scenario chaos-mix is not registered")
		os.Exit(1)
	}
	cfg := scenario.SweepConfig{
		Seed:     *seed,
		Duration: time.Minute,
	}
	if *quick {
		// Reduced slice for CI: shorter virtual clock, single drop
		// level, but still the full 1000-process point — that is the
		// point the gate exists for.
		cfg.Duration = 10 * time.Second
		cfg.DropPcts = []float64{0}
	}
	if *scNodes != "" {
		nodes, err := parseIntList(*scNodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdcc-bench: -scale.nodes: %v\n", err)
			os.Exit(2)
		}
		cfg.NodesPerDC = nodes
	}
	if *scDrop != "" {
		pcts, err := parseDropPcts(*scDrop)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdcc-bench: -scale.drop: %v\n", err)
			os.Exit(2)
		}
		cfg.DropPcts = pcts
	}
	header(
		fmt.Sprintf("Scaling curve — cluster size x drop%%, %s virtual per point (%s workload, %d clients)",
			cfg.Duration, swept.Name, swept.Clients),
		"repo benchmark (no paper figure): tx/s holds as the cluster grows; sharded engine keeps 1000 processes faster than real time")
	cfg.Logf = func(format string, args ...interface{}) {
		fmt.Printf("  "+format+"\n", args...)
	}
	pts, err := scenario.Sweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdcc-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%7s %8s %6s %8s %8s %12s %8s %9s %9s  %s\n",
		"nodes", "nodes/DC", "drop%", "commits", "tx/s", "converge-ms", "wall-ms", "sim/wall", "events/s", "verdict")
	failed := false
	var maxWall float64
	for _, p := range pts {
		verdict := "PASS"
		if !p.Passed {
			verdict, failed = "FAIL", true
		}
		if p.WallMS > maxWall {
			maxWall = p.WallMS
		}
		fmt.Printf("%7d %8d %6.1f %8d %8.1f %12.0f %8.0f %8.1fx %9.0f  %s\n",
			p.ClusterNodes, p.NodesPerDC, p.DropPct, p.Commits, p.TPS,
			p.ConvergeMS, p.WallMS, p.SimWallRatio, p.EventsPerSec, verdict)
	}
	if *simGate > 0 {
		if maxWall > *simGate {
			fmt.Fprintf(os.Stderr, "mdcc-bench: sim-wall gate FAILED: slowest point %.0fms > %.0fms\n", maxWall, *simGate)
			failed = true
		} else {
			fmt.Printf("sim-wall gate passed: slowest point %.0fms <= %.0fms\n", maxWall, *simGate)
		}
	}
	out := scaleResult{
		Scenario:   swept.Name,
		Seed:       *seed,
		Clients:    swept.Clients,
		DurationMS: cfg.Duration.Milliseconds(),
		Quick:      *quick,
		Points:     pts,
	}
	writeJSON(out)
	if failed {
		os.Exit(1)
	}
}

// parseIntList reads -scale.nodes: node counts per data center, each at
// least 1.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad int %q in list", f)
		}
		if n < 1 {
			return nil, fmt.Errorf("%d nodes per data center is below 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseDropPcts reads -scale.drop: percentages in [0, 100), the range
// scenario.Options.DropProb accepts.
func parseDropPcts(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q in list", f)
		}
		if !(v >= 0 && v < 100) {
			return nil, fmt.Errorf("drop %v%% is outside [0, 100)", v)
		}
		out = append(out, v)
	}
	return out, nil
}
