package mdcc

// The ablation benches DESIGN.md §14 names as what varies Gamma and
// the protocol modes, plus the public API's commit path. Each ablation iteration runs a compressed experiment on the
// discrete-event simulator and reports *virtual-time* protocol metrics
// (p50_ms, vtps) alongside Go's wall-clock numbers: the virtual
// metrics are the result, the wall numbers just measure the simulator.
//
// The paper's figures are `mdcc-bench fig3..fig8` (shape-tested in
// internal/bench); real-clock measurement is benchmark/.

import (
	"testing"
	"time"

	"mdcc/internal/bench"
	"mdcc/internal/microbench"
	"mdcc/internal/record"
	"mdcc/internal/scenario"
)

// benchScale is small enough for tight bench loops.
func benchScale() bench.Scale {
	return bench.Scale{Clients: 10, Items: 1000, NodesPerDC: 2,
		Warmup: 2 * time.Second, Measure: 10 * time.Second}
}

func reportRun(b *testing.B, res *bench.Result) {
	b.Helper()
	b.ReportMetric(res.WriteLat.Median(), "p50_ms")
	b.ReportMetric(res.WriteLat.Percentile(99), "p99_ms")
	b.ReportMetric(res.WriteTPS, "vtps")
	if res.Commits+res.Aborts > 0 {
		b.ReportMetric(float64(res.Aborts)/float64(res.Commits+res.Aborts), "abort_frac")
	}
}

func microRunB(b *testing.B, proto bench.Protocol, mut func(*microbench.Options)) {
	sc := benchScale()
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		w := bench.NewWorld(bench.Options{
			Protocol:    proto,
			NodesPerDC:  2,
			Clients:     sc.Clients,
			ClientDC:    -1,
			Seed:        int64(i + 1),
			Constraints: []record.Constraint{microbench.Constraint()},
		})
		opts := microbench.Defaults()
		opts.Items = sc.Items
		if mut != nil {
			mut(&opts)
		}
		last = bench.Run(w, microbench.New(opts),
			bench.RunConfig{Warmup: sc.Warmup, Measure: sc.Measure})
	}
	reportRun(b, last)
}

// ---- Ablations (design choices from DESIGN.md) ----

// AblationCommutative: MDCC vs Fast on a contended commutative
// workload — the value of Generalized Paxos commutativity.
func BenchmarkAblationCommutative_MDCC(b *testing.B) {
	microRunB(b, bench.ProtoMDCC, func(o *microbench.Options) {
		o.HotspotFrac = 0.05
		o.InitialStockMin, o.InitialStockMax = 1_000_000, 1_000_000
	})
}

// BenchmarkAblationCommutative_Fast is the same workload without
// commutative support (physical read-modify-writes conflict).
func BenchmarkAblationCommutative_Fast(b *testing.B) {
	microRunB(b, bench.ProtoFast, func(o *microbench.Options) {
		o.HotspotFrac = 0.05
		o.InitialStockMin, o.InitialStockMax = 1_000_000, 1_000_000
	})
}

// AblationFastVsClassic: identical uncontended workload on fast
// ballots vs classic (Multi) — the value of master bypass.
func BenchmarkAblationFastVsClassic_Fast(b *testing.B) {
	microRunB(b, bench.ProtoFast, nil)
}

// BenchmarkAblationFastVsClassic_Classic is the classic-ballot side.
func BenchmarkAblationFastVsClassic_Classic(b *testing.B) {
	microRunB(b, bench.ProtoMulti, nil)
}

// AblationDemarcation: depleting stock under the quorum demarcation
// limit vs plentiful stock — the cost of the safety margin.
func BenchmarkAblationDemarcation_Tight(b *testing.B) {
	microRunB(b, bench.ProtoMDCC, func(o *microbench.Options) {
		o.HotspotFrac = 0.02
		o.InitialStockMin, o.InitialStockMax = 40, 80 // deplete fast
	})
}

// BenchmarkAblationDemarcation_Loose never approaches the limit.
func BenchmarkAblationDemarcation_Loose(b *testing.B) {
	microRunB(b, bench.ProtoMDCC, func(o *microbench.Options) {
		o.HotspotFrac = 0.02
		o.InitialStockMin, o.InitialStockMax = 1_000_000, 1_000_000
	})
}

// AblationGamma: the fast-policy window length after collisions, on
// copies of the collision-storm scenario (hot physical keys, a latency
// brown-out) that differ only in γ. Each iteration is one seeded run,
// validated like every scenario run.
func benchGamma(b *testing.B, gamma int) {
	s, ok := scenario.Find("collision-storm")
	if !ok {
		b.Fatal("scenario collision-storm is not registered")
	}
	storm := *s
	storm.Gamma = gamma
	var last *scenario.Result
	for i := 0; i < b.N; i++ {
		res, err := storm.Run(scenario.Options{Seed: int64(i + 1), Clients: 20,
			Duration: 15 * time.Second, Faults: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			b.Fatalf("γ=%d seed %d failed:\n%s", gamma, i+1, res.Report())
		}
		last = res
	}
	b.ReportMetric(last.WriteLat.Median(), "p50_ms")
	b.ReportMetric(last.WriteLat.Percentile(99), "p99_ms")
	b.ReportMetric(last.TPS, "vtps")
	if last.Commits+last.Aborts > 0 {
		b.ReportMetric(float64(last.Aborts)/float64(last.Commits+last.Aborts), "abort_frac")
	}
}

func BenchmarkAblationGamma_10(b *testing.B)  { benchGamma(b, 10) }
func BenchmarkAblationGamma_100(b *testing.B) { benchGamma(b, 100) }
func BenchmarkAblationGamma_500(b *testing.B) { benchGamma(b, 500) }

// AblationQuorumSize: QW-3 vs QW-4 isolates the pure cost of waiting
// for the fourth-closest data center (what MDCC's fast quorum pays
// over an eventually-consistent majority write).
func BenchmarkAblationQuorumWait_3(b *testing.B) {
	sc := benchScale()
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		w := bench.NewWorld(bench.Options{Protocol: bench.ProtoQW3, NodesPerDC: 2,
			Clients: sc.Clients, ClientDC: -1, Seed: int64(i + 1)})
		last = bench.Run(w, microbench.New(microbench.Defaults()),
			bench.RunConfig{Warmup: sc.Warmup, Measure: sc.Measure})
	}
	reportRun(b, last)
}

// BenchmarkAblationQuorumWait_4 waits for the fast-quorum-sized set.
func BenchmarkAblationQuorumWait_4(b *testing.B) {
	sc := benchScale()
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		w := bench.NewWorld(bench.Options{Protocol: bench.ProtoQW4, NodesPerDC: 2,
			Clients: sc.Clients, ClientDC: -1, Seed: int64(i + 1)})
		last = bench.Run(w, microbench.New(microbench.Defaults()),
			bench.RunConfig{Warmup: sc.Warmup, Measure: sc.Measure})
	}
	reportRun(b, last)
}

// ---- Library-level commit path (wall-clock) ----

// BenchmarkSessionCommit measures the real-time public API on an
// in-process cluster with compressed latencies (wall-clock ns/op).
func BenchmarkSessionCommit(b *testing.B) {
	c, err := StartCluster(ClusterConfig{LatencyScale: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	s := c.Session(USWest)
	if ok, err := s.Commit(Insert("b/1", Value{Attrs: map[string]int64{"n": 0}})); err != nil || !ok {
		b.Fatalf("setup: %v %v", ok, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Commit(Commutative("b/1", map[string]int64{"n": 1})); err != nil {
			b.Fatal(err)
		}
	}
}
