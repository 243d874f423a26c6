package bench

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/mtx"
	"mdcc/internal/topology"
)

// syntheticWorkload issues transactions that "complete" after a fixed
// simulated delay via a timer — no protocol involved — so the runner's
// accounting can be verified exactly.
type syntheticWorkload struct {
	delay  time.Duration
	write  bool
	commit bool
	world  *World
}

func (s *syntheticWorkload) Preload(*rand.Rand) []kv.Entry { return nil }
func (s *syntheticWorkload) Next(client int, dc topology.DC, rng *rand.Rand) mtx.Txn {
	return func(c mtx.Client, rng *rand.Rand, done func(mtx.TxnResult)) {
		id := s.world.Cluster.Clients[client].ID
		s.world.Net.After(id, s.delay, func() {
			done(mtx.TxnResult{Committed: s.commit, Write: s.write})
		})
	}
}

func TestRunAccounting(t *testing.T) {
	w := NewWorld(Options{Protocol: ProtoMDCC, NodesPerDC: 1, Clients: 4, ClientDC: -1, Seed: 1})
	wl := &syntheticWorkload{delay: 100 * time.Millisecond, write: true, commit: true, world: w}
	res := Run(w, wl, RunConfig{Warmup: time.Second, Measure: 10 * time.Second})
	// Each client completes one txn per 100ms: 4 clients × 10s = 400
	// commits in the window (±1 per client boundary effects).
	if res.Commits < 390 || res.Commits > 404 {
		t.Fatalf("commits = %d, want ≈400", res.Commits)
	}
	if res.Aborts != 0 || res.Reads != 0 {
		t.Fatalf("unexpected aborts/reads: %d/%d", res.Aborts, res.Reads)
	}
	if res.WriteTPS < 39 || res.WriteTPS > 41 {
		t.Fatalf("WriteTPS = %.1f, want ≈40", res.WriteTPS)
	}
	med := res.WriteLat.Median()
	if med < 99 || med > 101 {
		t.Fatalf("median latency = %.1f, want 100", med)
	}
}

func TestRunSeparatesReadsAndAborts(t *testing.T) {
	w := NewWorld(Options{Protocol: ProtoMDCC, NodesPerDC: 1, Clients: 2, ClientDC: -1, Seed: 2})
	wl := &syntheticWorkload{delay: 50 * time.Millisecond, write: true, commit: false, world: w}
	res := Run(w, wl, RunConfig{Warmup: time.Second, Measure: 5 * time.Second})
	if res.Commits != 0 || res.Aborts == 0 {
		t.Fatalf("abort accounting wrong: %d commits %d aborts", res.Commits, res.Aborts)
	}
	if res.AbortLat.N() != int(res.Aborts) {
		t.Fatalf("abort latencies %d != aborts %d", res.AbortLat.N(), res.Aborts)
	}

	w2 := NewWorld(Options{Protocol: ProtoMDCC, NodesPerDC: 1, Clients: 2, ClientDC: -1, Seed: 3})
	rl := &syntheticWorkload{delay: 50 * time.Millisecond, write: false, commit: true, world: w2}
	res2 := Run(w2, rl, RunConfig{Warmup: time.Second, Measure: 5 * time.Second})
	if res2.Reads == 0 || res2.Commits != 0 {
		t.Fatalf("read accounting wrong: %d reads %d commits", res2.Reads, res2.Commits)
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	w := NewWorld(Options{Protocol: ProtoMDCC, NodesPerDC: 1, Clients: 1, ClientDC: -1, Seed: 4})
	wl := &syntheticWorkload{delay: time.Second, write: true, commit: true, world: w}
	res := Run(w, wl, RunConfig{Warmup: 5 * time.Second, Measure: 10 * time.Second})
	// 15s total at 1 txn/s: ~5 warmup txns excluded, ~10 counted.
	if res.Commits < 9 || res.Commits > 11 {
		t.Fatalf("commits = %d, want ≈10 (warmup excluded)", res.Commits)
	}
	// The series covers the whole run including warmup.
	pts := res.Series.Points()
	if len(pts) == 0 || pts[0].Start >= 5*time.Second {
		t.Fatalf("series should include warmup buckets: %+v", pts)
	}
}

func TestRunEventFires(t *testing.T) {
	w := NewWorld(Options{Protocol: ProtoMDCC, NodesPerDC: 1, Clients: 1, ClientDC: -1, Seed: 5})
	wl := &syntheticWorkload{delay: 100 * time.Millisecond, write: true, commit: true, world: w}
	fired := false
	Run(w, wl, RunConfig{
		Warmup:  time.Second,
		Measure: 3 * time.Second,
		Events:  []Event{{At: 2 * time.Second, Do: func(*World) { fired = true }}},
	})
	if !fired {
		t.Fatal("scheduled event never fired")
	}
}

func TestAllProtocolsAndQuorums(t *testing.T) {
	// Construction sanity for every protocol (panics, wiring).
	for _, p := range append(AllProtocols(), ProtoFast, ProtoMulti) {
		w := NewWorld(Options{Protocol: p, NodesPerDC: 1, Clients: 2, ClientDC: -1, Seed: 6})
		if len(w.Clients) != 2 {
			t.Fatalf("%s: %d clients", p, len(w.Clients))
		}
	}
}

func TestUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown protocol should panic")
		}
	}()
	NewWorld(Options{Protocol: "nonsense", Clients: 1})
}

// A simulated run is a function of its seed and nothing else: the same
// TPC-W and micro-benchmark arms run twice give the same result, sample
// for sample, on every protocol. (2PC's decision fan-out and TPC-W's
// buy-confirm once walked Go maps, so figures 3–6 moved run to run.)
func TestRunsAreAFunctionOfTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every protocol twice")
	}
	sc := Scale{Clients: 10, Items: 200, NodesPerDC: 1, Warmup: 2 * time.Second, Measure: 10 * time.Second}
	arms := map[string]func() map[Protocol]*Result{
		"tpcw (figs 3, 4)":  func() map[Protocol]*Result { return Figure3(1, sc) },
		"micro (figs 5, 6)": func() map[Protocol]*Result { return Figure5(1, sc) },
	}
	for name, arm := range arms {
		a, b := arm(), arm()
		for p, ra := range a {
			if rb := b[p]; !reflect.DeepEqual(ra, rb) {
				t.Errorf("%s, %s: two runs at seed 1 differ: %d commits / %d aborts / median %.3f ms, then %d / %d / %.3f",
					name, p, ra.Commits, ra.Aborts, ra.WriteLat.Median(), rb.Commits, rb.Aborts, rb.WriteLat.Median())
			}
		}
	}
}
