package bench

import (
	"testing"
)

// TestGatewayArmShapes asserts, at quick scale, every claim the
// `mdcc-bench gateway` arm prints. The arm is virtual-time and seeded,
// so the thresholds are floors under deterministic numbers (seed 1:
// 3.0x, 0 and 18.5x, 3.70x), not tolerances around noisy ones.
func TestGatewayArmShapes(t *testing.T) {
	cmp := GatewaySaturation(1, GatewayQuickScale())

	if cmp.MsgDrop < 2.5 {
		t.Errorf("acceptor msgs/commit reduced %.2fx by the gateway tier, want >= 2.5x (%.1f -> %.1f)",
			cmp.MsgDrop, cmp.Baseline.AcceptorMsgsPerCommit, cmp.Gateway.AcceptorMsgsPerCommit)
	}

	rm := cmp.ReadMostly
	if rm.Baseline.SteadyReadRPCsPerRead != 1 {
		t.Errorf("per-RPC baseline issued %.3f read RPCs/read, want exactly 1", rm.Baseline.SteadyReadRPCsPerRead)
	}
	if rm.Tier.Reads == 0 || rm.Tier.SteadyReadRPCsPerRead != 0 {
		t.Errorf("read tier: %d reads at %.3f steady-state read RPCs/read, want > 0 reads and exactly 0 RPCs",
			rm.Tier.Reads, rm.Tier.SteadyReadRPCsPerRead)
	}
	if rm.SpeedupRead < 10 {
		t.Errorf("read tier speedup %.1fx reads/s over per-RPC reads, want >= 10x", rm.SpeedupRead)
	}

	mg := cmp.MultiGroup
	if mg.Groups != 4 || mg.ScalingTPS < 3 {
		t.Errorf("capacity scaling %.2fx at %dx replica groups, want >= 3x at 4x", mg.ScalingTPS, mg.Groups)
	}

	// The recorder does no virtual-time work and draws no randomness,
	// so the traced arm must be the same run, not a close one.
	rec := cmp.Recorder
	if rec.On.TPS != rec.Off.TPS || rec.On.Commits != rec.Off.Commits {
		t.Errorf("flight recorder moved the simulation: off %d commits (%.3f tx/s), on %d commits (%.3f tx/s)",
			rec.Off.Commits, rec.Off.TPS, rec.On.Commits, rec.On.TPS)
	}
	if rec.RecorderEvents == 0 {
		t.Error("traced arm recorded no events: the recorder was not in the path")
	}
}
