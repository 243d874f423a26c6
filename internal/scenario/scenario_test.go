package scenario

import (
	"errors"
	"flag"
	"math"
	"testing"
	"time"
)

// Smoke sizing keeps CI runs to a few seconds of wall clock per
// scenario; the flags let developers rerun any scenario bigger,
// longer, or with a different fault schedule without touching code:
//
//	go test ./internal/scenario -run Smoke -scenario.seed=7 \
//	    -scenario.clients=200 -scenario.duration=1m
var (
	seedFlag     = flag.Int64("scenario.seed", 1, "scenario harness seed")
	clientsFlag  = flag.Int("scenario.clients", 12, "simulated clients per scenario run")
	durationFlag = flag.Duration("scenario.duration", 12*time.Second, "virtual traffic window")
	faultsFlag   = flag.Bool("scenario.faults", true, "run the nemesis schedule")
)

func smokeOpts() Options {
	return Options{
		Seed:     *seedFlag,
		Clients:  *clientsFlag,
		Duration: *durationFlag,
		Faults:   *faultsFlag,
	}
}

// TestDropProbOutOfRangeRefused: an ambient drop of 1.5 loses every
// message, so read-storm committed nothing and still passed, and -0.5
// ran with no loss at all. Run refuses any value outside [0, 1), NaN
// included, with ErrDropProb.
func TestDropProbOutOfRangeRefused(t *testing.T) {
	s, _ := Find("read-storm")
	for _, p := range []float64{1.5, 1, -0.5, math.NaN()} {
		res, err := s.Run(Options{Seed: 1, Clients: 5, Duration: 2 * time.Second, DropProb: p})
		if !errors.Is(err, ErrDropProb) {
			t.Errorf("DropProb %v: err %v, want ErrDropProb", p, err)
			if res != nil {
				t.Logf("\n%s", res.Report())
			}
		}
	}
}

// TestNegativeSizingRefused: a negative Clients, NodesPerDC or Duration
// fell back to the scenario's default as 0 does, so read-storm asked
// for -5 clients over -2s ran 150 clients for a minute and passed. Run
// refuses each with ErrSizing; 0 still means the default.
func TestNegativeSizingRefused(t *testing.T) {
	s, _ := Find("read-storm")
	for _, o := range []Options{
		{Seed: 1, Clients: -5, Duration: 2 * time.Second},
		{Seed: 1, Clients: 5, NodesPerDC: -1, Duration: 2 * time.Second},
		{Seed: 1, Clients: 5, Duration: -2 * time.Second},
	} {
		res, err := s.Run(o)
		if !errors.Is(err, ErrSizing) {
			t.Errorf("clients %d, nodes per DC %d, duration %v: err %v, want ErrSizing",
				o.Clients, o.NodesPerDC, o.Duration, err)
			if res != nil {
				t.Logf("\n%s", res.Report())
			}
		}
	}
}

// TestScenarioSmoke runs every registered scenario at smoke scale and
// requires every invariant to hold and commits to have happened.
func TestScenarioSmoke(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			res, err := s.Run(smokeOpts())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			t.Logf("\n%s", res.Report())
			if !res.Passed() {
				t.Errorf("scenario %s failed: %d violations, %d unresolved",
					s.Name, len(res.Violations), res.Unresolved)
				for _, v := range res.Violations {
					t.Errorf("  %s", v)
				}
			}
			if res.Commits == 0 {
				t.Errorf("scenario %s committed nothing", s.Name)
			}
			// Read workloads must actually consume validated reads —
			// otherwise the session-guarantee invariants pass vacuously.
			if s.Workload.ReadFrac > 0 && res.Reads == 0 {
				t.Errorf("scenario %s consumed no session-guaranteed reads", s.Name)
			}
		})
	}
}

// TestScenarioCommitsDuringOutage checks the paper's headline §5.4
// claim on the harness: transactions keep committing while a full
// data center is down.
func TestScenarioCommitsDuringOutage(t *testing.T) {
	s, ok := Find("dc-outage")
	if !ok {
		t.Fatal("dc-outage not registered")
	}
	res, err := s.Run(smokeOpts())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("dc-outage failed:\n%s", res.Report())
	}
	// The outage spans 35% of the window; with commits flowing
	// throughout, the commit count cannot be explained by the healthy
	// 65% alone unless throughput is at least maintained.
	if res.Commits < 50 {
		t.Errorf("suspiciously few commits through the outage: %d", res.Commits)
	}
}

// TestScenarioDeterminism reruns one fault-heavy scenario with the
// same seed and demands an identical outcome — the property that
// makes any scenario failure reproducible from its seed alone.
func TestScenarioDeterminism(t *testing.T) {
	s, ok := Find("chaos-mix")
	if !ok {
		t.Fatal("chaos-mix not registered")
	}
	opts := smokeOpts()
	a, err := s.Run(opts)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := s.Run(opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Commits != b.Commits || a.Aborts != b.Aborts {
		t.Errorf("same seed, different outcomes: %d/%d commits, %d/%d aborts",
			a.Commits, b.Commits, a.Aborts, b.Aborts)
	}
	if a.Net.Delivered != b.Net.Delivered || a.Net.Dropped != b.Net.Dropped {
		t.Errorf("same seed, different network history: delivered %d/%d dropped %d/%d",
			a.Net.Delivered, b.Net.Delivered, a.Net.Dropped, b.Net.Dropped)
	}
	if len(a.Violations) != len(b.Violations) {
		t.Errorf("same seed, different violations: %d vs %d", len(a.Violations), len(b.Violations))
	}
}

// TestScenarioSeedSensitivity is a cheap sanity check that the seed
// actually steers the run (a frozen RNG would make the determinism
// test vacuous).
func TestScenarioSeedSensitivity(t *testing.T) {
	s, _ := Find("dc-outage")
	o1 := smokeOpts()
	o2 := smokeOpts()
	o2.Seed = o1.Seed + 1
	a, err := s.Run(o1)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := s.Run(o2)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.Net.Delivered == b.Net.Delivered && a.Commits == b.Commits && a.Aborts == b.Aborts {
		t.Errorf("different seeds produced identical runs (delivered=%d commits=%d aborts=%d)",
			a.Commits, a.Net.Delivered, a.Aborts)
	}
}

// TestGatewaySaturationSeed3Settles is a regression at default sizing
// (150 clients, one minute): a leader queued an option its summary
// already held as accepted (a base adoption carried it), re-evaluated
// it as free against that base and decided it rejected, so the
// recovery that asked for it discarded a committed option and the run
// ended with 150 transactions unresolved after some 36 000 recoveries.
// A leader now asks core's one settled-state lookup, with the option's
// lineage identity, before it decides anything (DESIGN.md §5, "a
// settled option is never re-decided").
func TestGatewaySaturationSeed3Settles(t *testing.T) {
	s, ok := Find("gateway-saturation")
	if !ok {
		t.Fatal("gateway-saturation not registered")
	}
	res, err := s.Run(Options{Seed: 3, Faults: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("gateway-saturation seed 3 failed:\n%s", res.Report())
	}
}
