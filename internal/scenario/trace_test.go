package scenario

import (
	"reflect"
	"strings"
	"testing"
)

func traceOpts() Options {
	o := smokeOpts()
	o.Trace = true
	return o
}

// TestScenarioTraceTimelines runs a gateway scenario with the flight
// recorder on and checks the diagnosis bundle: per-phase histograms
// covering the pipeline, and assembled cross-node timelines that walk
// admit → vote → ack.
func TestScenarioTraceTimelines(t *testing.T) {
	s, ok := Find("gateway-saturation")
	if !ok {
		t.Fatal("gateway-saturation not registered")
	}
	res, err := s.Run(traceOpts())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("scenario failed:\n%s", res.Report())
	}
	if res.TraceEvents == 0 {
		t.Fatal("flight recorder recorded no events")
	}
	phases := make(map[string]bool)
	for _, p := range res.Phases {
		phases[p.Key.String()] = true
		if p.Hist.N == 0 {
			t.Errorf("phase %s has an empty histogram", p.Key)
		}
	}
	if !phases["quorum"] {
		t.Errorf("phase \"quorum\" missing from result (have %v)", phases)
	}
	// Gateway, vote and visibility phases are split per DC.
	for _, prefix := range []string{"gateway-queue[dc", "end-to-end[dc", "vote[dc", "visibility[dc"} {
		n := 0
		for name := range phases {
			if strings.HasPrefix(name, prefix) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("no per-DC %q phases recorded (have %v)", prefix, phases)
		}
	}
	if len(res.Timelines) == 0 {
		t.Fatal("no timelines assembled (slowest-N should always be kept)")
	}
	all := strings.Join(res.Timelines, "\n")
	for _, want := range []string{"admit", "vote", "ack", "outcome"} {
		if !strings.Contains(all, want) {
			t.Errorf("timelines missing stage %q:\n%s", want, res.Timelines[0])
		}
	}
	// The report renders the phase table and recorder volume.
	rep := res.Report()
	if !strings.Contains(rep, "phase latency") || !strings.Contains(rep, "flight recorder:") {
		t.Errorf("report missing phase-latency table:\n%s", rep)
	}
}

// TestScenarioTraceDeterminism reruns a traced scenario with the same
// seed and demands byte-identical assembled timelines — retention is
// counted in the recorder's appends, never wall-clock, so it must not
// perturb or diverge from the simulation's determinism.
func TestScenarioTraceDeterminism(t *testing.T) {
	s, ok := Find("gateway-saturation")
	if !ok {
		t.Fatal("gateway-saturation not registered")
	}
	a, err := s.Run(traceOpts())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := s.Run(traceOpts())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Commits != b.Commits || a.Aborts != b.Aborts {
		t.Fatalf("same seed, different outcomes: %d/%d commits, %d/%d aborts",
			a.Commits, b.Commits, a.Aborts, b.Aborts)
	}
	if a.TraceEvents != b.TraceEvents {
		t.Errorf("same seed, different event volume: %d vs %d", a.TraceEvents, b.TraceEvents)
	}
	if !reflect.DeepEqual(a.Timelines, b.Timelines) {
		max := len(a.Timelines)
		if len(b.Timelines) < max {
			max = len(b.Timelines)
		}
		for i := 0; i < max; i++ {
			if a.Timelines[i] != b.Timelines[i] {
				t.Fatalf("same seed, timeline %d differs:\n--- a ---\n%s\n--- b ---\n%s",
					i, a.Timelines[i], b.Timelines[i])
			}
		}
		t.Fatalf("same seed, different timeline counts: %d vs %d", len(a.Timelines), len(b.Timelines))
	}
}

// TestScenarioTraceUnknowns checks the gateway-crash case: killed
// in-flight transactions must surface as retained outcome-unknown
// timelines.
func TestScenarioTraceUnknowns(t *testing.T) {
	s, ok := Find("gateway-partition")
	if !ok {
		t.Fatal("gateway-partition not registered")
	}
	res, err := s.Run(traceOpts())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Unknown == 0 {
		t.Skip("no gateway-crash unknowns at this sizing; nothing to assert")
	}
	all := strings.Join(res.Timelines, "\n")
	if !strings.Contains(all, "retained: unknown") {
		t.Errorf("%d unknown-outcome transactions but no retained unknown timeline", res.Unknown)
	}
}
