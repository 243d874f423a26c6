package scenario

import (
	"testing"
	"time"

	"mdcc/internal/topology"
)

// TestFaultPrimitiveInvariants drives each fault primitive (and the
// combinations that have historically found protocol bugs) in
// isolation at a scale larger than the smoke runs, checking both
// run-to-run determinism and every internal/check invariant. Each of
// these cases has caught a real bug: count-bounded decided-log
// eviction (drops), lost visibility across Phase2a vote wipes
// (partition), sweep disarming by votedAt refresh (drops), forked
// commutative lineages collapsed by version-max adoption (drop+dup),
// and classic-ballot votes judged by the fast-quorum threshold
// (drop+partition double commit).
func TestFaultPrimitiveInvariants(t *testing.T) {
	for _, s := range faultPrimitives() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			o := Options{Seed: *seedFlag, Clients: s.Clients, Duration: s.Duration, Faults: true}
			a, err := s.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Passed() {
				t.Errorf("invariants violated: %v (unresolved=%d)", a.Violations, a.Unresolved)
			}
			if a.Commits == 0 {
				t.Error("nothing committed")
			}
			b, err := s.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if a.Commits != b.Commits || a.Aborts != b.Aborts || a.Net.Delivered != b.Net.Delivered {
				t.Errorf("nondeterministic: commits %d/%d aborts %d/%d delivered %d/%d",
					a.Commits, b.Commits, a.Aborts, b.Aborts, a.Net.Delivered, b.Net.Delivered)
			}
		})
	}
}

// TestDropPartitionKeepsTransfers: drop-partition seeds 29, 45 and 56
// each lost one committed two-account transfer (both balances off by
// the amount, both versions one short, nothing unresolved) while a
// leader's classic round skipped, without learning it, an option that
// executed on the leader between its Phase2a and the Phase2b quorum.
// They pass since the round learns the settled decision instead
// (DESIGN.md §5).
func TestDropPartitionKeepsTransfers(t *testing.T) {
	var s *Scenario
	for _, c := range faultPrimitives() {
		if c.Name == "drop-partition" {
			s = c
		}
	}
	for _, seed := range []int64{29, 45, 56} {
		res, err := s.Run(Options{Seed: seed, Clients: s.Clients, Duration: s.Duration, Faults: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Errorf("seed %d: invariants violated: %v (unresolved=%d)", seed, res.Violations, res.Unresolved)
		}
	}
}

// faultPrimitives is each fault primitive, and each combination that
// found a protocol bug, at a scale larger than the smoke runs.
func faultPrimitives() []*Scenario {
	const (
		clients  = 40
		duration = 15 * time.Second
	)
	mk := func(name string, nem func(r *Run)) *Scenario {
		return &Scenario{
			Name:     name,
			Workload: mixedWorkload,
			Clients:  clients,
			Duration: duration,
			Nemesis:  nem,
		}
	}
	return []*Scenario{
		mk("drops", func(r *Run) {
			r.At(frac(r, 0.10), "8% loss", func() { r.Net.SetDropProb(0.08) })
		}),
		mk("dups", func(r *Run) {
			r.At(frac(r, 0.10), "8% dup", func() { r.Net.SetDupProb(0.08) })
		}),
		mk("reorder", func(r *Run) {
			r.At(frac(r, 0.10), "15% reorder", func() { r.Net.SetReorder(0.15, 100*time.Millisecond) })
		}),
		mk("drift", func(r *Run) {
			r.At(frac(r, 0.15), "±30% drift", func() {
				r.Net.SetDrift(r.Cluster.Storage[0].ID, 0.3)
				r.Net.SetDrift(r.Cluster.Storage[len(r.Cluster.Storage)-1].ID, -0.3)
			})
		}),
		mk("crash", func(r *Run) {
			r.At(frac(r, 0.40), "crash ap-tk", func() { r.CrashStorage(len(r.Cluster.Storage) - 1) })
			r.At(frac(r, 0.70), "restart ap-tk", func() { r.RestartStorage(len(r.Cluster.Storage) - 1) })
		}),
		mk("drop-dup", func(r *Run) {
			r.At(frac(r, 0.10), "loss+dup", func() {
				r.Net.SetDropProb(0.08)
				r.Net.SetDupProb(0.08)
			})
		}),
		mk("drop-partition", func(r *Run) {
			r.At(frac(r, 0.10), "8% loss", func() { r.Net.SetDropProb(0.08) })
			r.At(frac(r, 0.40), "cut eu-ie", func() {
				r.Net.Partition(r.SideIDs(topology.EUIreland), r.OtherSideIDs(topology.EUIreland))
			})
			r.At(frac(r, 0.60), "heal", func() { r.Net.HealAll() })
		}),
	}
}
