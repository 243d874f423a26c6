package scenario

import (
	"fmt"
	"time"
)

// The scaling sweep: one scenario run per (cluster size × ambient
// drop%) grid point, harvesting the scaling-curve measurements —
// committed tx/s, post-heal convergence time, and the simulator's own
// sim-vs-wall speed ratio. This is how the thousand-node claim is
// checked: cluster size scales by NodesPerDC (five DCs, so storage
// count is 5×N plus the scenario's clients and gateway tiers), and
// the sweep demands every point still passes full invariant
// validation — a scaling curve over broken runs measures nothing.

// SweepPoint is one grid point's harvest.
type SweepPoint struct {
	// NodesPerDC is the storage-shard axis value; ClusterNodes the
	// resulting total simulated process count (storage + gateway tiers
	// + clients).
	NodesPerDC   int
	ClusterNodes int
	// DropPct is the ambient message-drop axis value, in percent.
	DropPct float64

	Commits int
	Aborts  int
	// TPS is committed transactions per virtual second of the traffic
	// window.
	TPS float64
	// ConvergeMS is the virtual time (ms) the post-heal drain needed to
	// settle every in-flight transaction.
	ConvergeMS float64
	// WallMS is real time (ms) the run took; SimWallRatio is virtual
	// elapsed / wall (>1 = faster than real time). These measure the
	// simulator, not the simulated system, and vary run to run.
	WallMS       float64
	SimWallRatio float64
	// EventsPerSec is the simulator's event throughput on this run:
	// (deliveries + timer fires) per wall second.
	EventsPerSec float64
	Passed       bool
	Violations   []string `json:",omitempty"`
}

// sweepScenario is the swept workload: chaos-mix with its nemesis off
// is a plain mixed workload, so the drop axis — applied ambiently for
// the whole window — is the only fault and the curve isolates scale.
const sweepScenario = "chaos-mix"

// SweepConfig shapes a scaling sweep.
type SweepConfig struct {
	Seed int64
	// Duration overrides the scenario's default when > 0; the client
	// count is always the scenario's own.
	Duration time.Duration
	// NodesPerDC are the cluster-size axis values (default 1, 40, 188
	// — 65 / 260 / 1000 total processes with the scenario's 60
	// clients).
	NodesPerDC []int
	// DropPcts are the ambient drop-probability axis values in percent
	// (default 0 and 2).
	DropPcts []float64
	Logf     func(format string, args ...interface{})
}

// Sweep runs the grid and returns one point per (nodes × drop) pair,
// nodes-major. An error from any run aborts the sweep.
func Sweep(cfg SweepConfig) ([]SweepPoint, error) {
	s, ok := Find(sweepScenario)
	if !ok {
		return nil, fmt.Errorf("sweep: scenario %q is not registered", sweepScenario)
	}
	if len(cfg.NodesPerDC) == 0 {
		cfg.NodesPerDC = []int{1, 40, 188}
	}
	if len(cfg.DropPcts) == 0 {
		cfg.DropPcts = []float64{0, 2}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	var out []SweepPoint
	for _, npd := range cfg.NodesPerDC {
		for _, drop := range cfg.DropPcts {
			res, err := s.Run(Options{
				Seed:       cfg.Seed,
				NodesPerDC: npd,
				Duration:   cfg.Duration,
				DropProb:   drop / 100,
			})
			if err != nil {
				return nil, fmt.Errorf("sweep: %s at %d nodes/DC: %w", sweepScenario, npd, err)
			}
			pt := SweepPoint{
				NodesPerDC:   npd,
				ClusterNodes: res.ClusterNodes,
				DropPct:      drop,
				Commits:      res.Commits,
				Aborts:       res.Aborts,
				TPS:          res.TPS,
				ConvergeMS:   float64(res.Converge) / float64(time.Millisecond),
				WallMS:       float64(res.Wall) / float64(time.Millisecond),
				SimWallRatio: res.SimWallRatio,
				Passed:       res.Passed(),
				Violations:   res.Violations,
			}
			if res.Wall > 0 {
				pt.EventsPerSec = float64(res.Net.Delivered+res.Net.Timers) / res.Wall.Seconds()
			}
			cfg.Logf("sweep %s: %4d nodes (%d/DC) drop %.0f%%: %6.1f tx/s, converge %6.0fms, wall %7.0fms, %5.0fx real time, pass=%v",
				sweepScenario, pt.ClusterNodes, npd, drop, pt.TPS, pt.ConvergeMS, pt.WallMS, pt.SimWallRatio, pt.Passed)
			out = append(out, pt)
		}
	}
	return out, nil
}
