package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runChild runs one workload in a child process of this binary, passing
// its output through, and returns the child's full report.
func runChild(workload string, o options, stdout io.Writer) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return report{}, err
	}
	outFile := filepath.Join(o.scratch, fmt.Sprintf("report-%s-%d.json", workload, os.Getpid()))
	defer os.Remove(outFile)
	args := []string{
		"--workload", workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--scratch", o.scratch, "--outdir", o.outDir, "--out", outFile,
	}
	if o.traced {
		args = append(args, "--trace", "1")
	}
	if o.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	runErr := cmd.Run()
	blob, err := os.ReadFile(outFile)
	if err != nil {
		return report{}, fmt.Errorf("%s: child left no report (%v): %w", workload, runErr, err)
	}
	var reps []report
	if err := json.Unmarshal(blob, &reps); err != nil || len(reps) != 1 {
		return report{}, fmt.Errorf("%s: unreadable child report: %v", workload, err)
	}
	return reps[0], nil
}

// quartiles are Python's statistics.quantiles(values, n=4), the
// "exclusive" method the acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// gated is one end-to-end metric of BENCHMARK.json.
type gated struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadGated reads the gated workloads and metrics from BENCHMARK.json.
func loadGated() (workloads []string, metrics []gated, err error) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []gated                 `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &def); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range def.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, def.EndToEnd, nil
}

// runAA runs two interleaved sets (A, B) of n untraced runs per gated
// workload (or of the one named) on this binary, every run with its own seed, and prints per metric
// both medians, both quartile spreads and the verdicts of the acceptance
// rule: each spread within the bound, and B's median not worse than A's
// by more than the bound.
func runAA(n int, only string, o options) error {
	workloads, metrics, err := loadGated()
	if err != nil {
		return err
	}
	if only != "" && only != "all" {
		workloads = []string{only}
	}
	o.traced = false
	fmt.Printf("| workload | metric | bound | median A | median B | B vs A | IQR/median A | IQR/median B | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	allPass := true
	for _, workload := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				o.seed = int64(1 + 2*i + set)
				rep, err := runChild(workload, o, os.Stderr) // keep the table clean
				if err != nil {
					return err
				}
				if !rep.Correct {
					return fmt.Errorf("%s seed %d: %s", workload, o.seed, rep.Error)
				}
				for _, m := range rep.Metrics {
					sets[set][m.Name] = append(sets[set][m.Name], m.Value)
				}
			}
		}
		for _, m := range metrics {
			name, bound := m.Name, m.Bound
			a1, a2, a3 := quartiles(sets[0][name])
			b1, b2, b3 := quartiles(sets[1][name])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "pass"
			switch {
			case worse > bound:
				verdict = "FAIL: medians differ"
			case name != "setup_s" && max(spreadA, spreadB) > bound:
				verdict = "FAIL: spread"
			case name != "setup_s" && max(spreadA, spreadB) > bound/3:
				verdict = "pass (spread above a third of the bound)"
			}
			if verdict[0] == 'F' {
				allPass = false
			}
			fmt.Printf("| %s | %s | %.3f | %.5g | %.5g | %+.2f%% | %.2f%% | %.2f%% | %s |\n",
				workload, name, bound, a2, b2, 100*(b2-a2)/a2, 100*spreadA, 100*spreadB, verdict)
		}
	}
	if !allPass {
		return fmt.Errorf("A/A: at least one metric failed")
	}
	return nil
}
