package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkDef is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadDef(t *testing.T) benchmarkDef {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// checkMetrics asserts that the report holds exactly the defined
// metrics, each finite and in the defined unit.
func checkMetrics(t *testing.T, rep report, defs []metricDef) {
	t.Helper()
	if !rep.Correct {
		t.Fatalf("%s: not correct: %s", rep.Workload, rep.Error)
	}
	got := make(map[string]metric)
	for _, m := range rep.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("%s: metric %s reported twice", rep.Workload, m.Name)
		}
		got[m.Name] = m
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is defined but not reported", rep.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, defined as %q", rep.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", rep.Workload, d.Name, m.Value)
		}
		delete(got, d.Name)
	}
	for name := range got {
		t.Errorf("%s: metric %s is reported but not defined", rep.Workload, name)
	}
}

// TestSmoke runs every workload untraced, and one traced with the
// ladder, at -quick size: it keeps the benchmark compiling and honest
// against core/gateway/transport API changes.
func TestSmoke(t *testing.T) {
	def := loadDef(t)
	for _, w := range def.Workloads {
		if _, err := findSpec(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	opts := options{seed: 1, seconds: 2.5, quick: true,
		scratch: filepath.Join(t.TempDir(), "data"), outDir: filepath.Join(t.TempDir(), "out")}
	for _, s := range specs {
		rep := run(s, opts)
		checkMetrics(t, rep, def.EndToEnd)
		for _, m := range rep.Metrics {
			if m.Name == "commit_share" && m.Value < 0.995 {
				t.Errorf("%s: commit_share %v, want at least 0.995", s.name, m.Value)
			}
		}
	}
	traced := opts
	traced.traced, traced.seconds = true, 5
	rep := run(specs[1], traced)
	checkMetrics(t, rep, def.PerLayer)
	if _, err := os.Stat(rep.Env.TraceFile); err != nil {
		t.Errorf("traced run left no trace file: %v", err)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the limits of the
// benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	def := loadDef(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(def.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range def.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(def.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(def.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, m := range def.EndToEnd {
		use(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(def.EndToEnd, def.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not allowed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range def.PerLayer {
		use(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d", def.RunSeconds)
	}
	if runs := 4 + 22*len(def.Workloads); runs*(def.RunSeconds+10) > 3420 {
		t.Errorf("%d runs of about %d s do not fit in 3420 s", runs, def.RunSeconds+10)
	}
}
