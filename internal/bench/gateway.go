package bench

import (
	"fmt"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
)

// Gateway saturation benchmark: the same hot-key commutative workload
// (a stock-decrement stampede, the paper's motivating TPC-W buy) is
// driven twice — once in the paper's deployment model (one private
// coordinator per client session) and once through per-DC gateways
// (one shared coordinator + cross-transaction batching + hot-key delta
// coalescing). The acceptors carry a per-message service time, so the
// baseline's per-transaction message load saturates them and the
// comparison measures exactly what the gateway tier buys: committed
// transactions per second and acceptor messages per committed
// transaction.

// The gateway arms' fixed shape: every scale runs the stampede on
// hotKeys hot stock records through acceptors busy gatewayServiceTime
// per message (the resource the baseline melts), the read-mostly arms
// at a readFrac read mix, and the capacity-scaling arm on
// multiHotKeys hot keys per replica group at 1 and multiGroups groups
// per DC.
const (
	hotKeys            = 4
	gatewayServiceTime = time.Millisecond
	readFrac           = 0.9
	multiGroups        = 4
	multiHotKeys       = 4
)

// GatewayScale sizes the saturation experiment.
type GatewayScale struct {
	// Sessions is the number of concurrent closed-loop client
	// sessions (the saturation bench runs >= 1000 at full scale).
	Sessions int
	// InitialStock preloads each hot key ("units" >= 0 constrained)
	// high enough that demarcation never starves the run.
	InitialStock int64
	// NodesPerDC is storage shards per data center.
	NodesPerDC int
	Warmup     time.Duration
	Measure    time.Duration

	// ScarceStock and ScarceMeasure size the scarce-stock arm: the
	// same stampede against stock low enough that the demarcation
	// bound binds, exercising the exact-headroom admission (merges
	// only when shared headroom exists; split-and-rerun stays rare).
	ScarceStock   int64
	ScarceMeasure time.Duration

	// ReadWarmup/ReadMeasure size the read-mostly arms (see
	// readtier.go): a readFrac read mix at Sessions closed-loop
	// clients, RPC reads vs the learned-replica read tier.
	ReadWarmup  time.Duration
	ReadMeasure time.Duration

	// MultiSessions/MultiWarmup/MultiMeasure size the capacity-scaling
	// arm (see multiGroupCapacity): the same per-group offered load
	// (MultiSessions closed-loop sessions on multiHotKeys hot keys per
	// replica group) driven against 1 and against multiGroups
	// shard-ring groups per DC.
	MultiSessions int
	MultiWarmup   time.Duration
	MultiMeasure  time.Duration

	// balancePerGroup, when set, replaces the hot-key set with one
	// holding exactly that many keys per active replica group under
	// the run's shard ring, so per-group offered load is uniform by
	// construction (internal to the multi-group arm).
	balancePerGroup int
}

// GatewayPaperScale is the full saturation setting: 1000 sessions.
func GatewayPaperScale() GatewayScale {
	return GatewayScale{
		Sessions:      1000,
		InitialStock:  50_000_000,
		NodesPerDC:    2,
		Warmup:        10 * time.Second,
		Measure:       60 * time.Second,
		ScarceStock:   12_000,
		ScarceMeasure: 20 * time.Second,
		ReadWarmup:    5 * time.Second,
		ReadMeasure:   30 * time.Second,
		MultiSessions: 250,
		MultiWarmup:   5 * time.Second,
		MultiMeasure:  30 * time.Second,
	}
}

// GatewayQuickScale shrinks the run for CI smoke (~1/5 scale).
func GatewayQuickScale() GatewayScale {
	return GatewayScale{
		Sessions:      200,
		InitialStock:  10_000_000,
		NodesPerDC:    2,
		Warmup:        5 * time.Second,
		Measure:       20 * time.Second,
		ScarceStock:   1_200,
		ScarceMeasure: 10 * time.Second,
		ReadWarmup:    2 * time.Second,
		ReadMeasure:   10 * time.Second,
		MultiSessions: 60,
		MultiWarmup:   2 * time.Second,
		MultiMeasure:  10 * time.Second,
	}
}

// GatewayRun is one arm's harvest.
type GatewayRun struct {
	Mode     string  `json:"mode"` // "per-session-coordinators" | "gateway"
	Sessions int     `json:"sessions"`
	Commits  int64   `json:"commits"`
	Aborts   int64   `json:"aborts"`
	TPS      float64 `json:"tps"` // committed transactions / measure second

	// AcceptorMsgs counts physical envelopes delivered to storage
	// nodes during the whole run; AcceptorMsgsPerCommit normalizes.
	AcceptorMsgs          int64   `json:"acceptorMsgs"`
	AcceptorMsgsPerCommit float64 `json:"acceptorMsgsPerCommit"`
	// Acceptor-side counter verification of cross-transaction
	// batching: envelopes unpacked and the messages inside them.
	AcceptorBatchEnvelopes int64 `json:"acceptorBatchEnvelopes"`
	AcceptorBatchItems     int64 `json:"acceptorBatchItems"`
	// Acceptor→coordinator vote batching (the piggyback freshness
	// channel's wire cost amortization).
	VoteBatchEnvelopes int64 `json:"voteBatchEnvelopes"`
	VoteBatchItems     int64 `json:"voteBatchItems"`
	// DemarcationRejects counts fast-path escrow rejections at the
	// acceptors (scarce arm: how often admission was arbitrated there).
	DemarcationRejects int64 `json:"demarcationRejects,omitempty"`

	// Gateway-side metrics (gateway arm only).
	Gateway *gateway.Metrics `json:"gateway,omitempty"`
}

// GatewayComparison is the saturation benchmark result (the JSON
// `mdcc-bench -out F gateway` writes).
type GatewayComparison struct {
	Seed     int64      `json:"seed"`
	Sessions int        `json:"sessions"`
	HotKeys  int        `json:"hotKeys"`
	Measure  string     `json:"measure"`
	Baseline GatewayRun `json:"baseline"`
	Gateway  GatewayRun `json:"gateway"`
	Speedup  float64    `json:"speedupTPS"`           // gateway.TPS / baseline.TPS
	MsgDrop  float64    `json:"acceptorMsgReduction"` // baseline msgs/commit ÷ gateway msgs/commit
	// Scarce is the gateway arm re-run at ScarceStock, where the
	// demarcation bound binds: exact headroom accounting should merge
	// only inside real shared headroom (low MergeSplits) while the
	// acceptors arbitrate the rest (CoalesceBypass, DemarcationRejects).
	Scarce GatewayRun `json:"scarce"`
	// ReadMostly compares the 90/10 read mix with per-RPC reads vs
	// the learned-replica read tier (see readtier.go).
	ReadMostly ReadComparison `json:"readMostly"`
	// MultiGroup shows committed capacity scaling with shard-ring
	// group count at fixed per-group offered load (the one-replica-
	// group capacity ceiling, broken).
	MultiGroup MultiGroupResult `json:"multiGroup"`
	// Recorder is the flight-recorder overhead ablation on the
	// headline gateway arm (tracing must cost <1% committed tx/s).
	Recorder RecorderAblation `json:"recorder"`
	Quick    bool             `json:"quick,omitempty"`
}

// MultiGroupResult is the capacity-scaling arm's harvest: the same
// per-group stampede at 1 vs Groups replica groups per DC.
type MultiGroupResult struct {
	Groups           int        `json:"groups"`
	SessionsPerGroup int        `json:"sessionsPerGroup"`
	HotKeysPerGroup  int        `json:"hotKeysPerGroup"`
	Single           GatewayRun `json:"singleGroup"`
	Multi            GatewayRun `json:"multiGroup"`
	// ScalingTPS is Multi.TPS / Single.TPS — ideally ≈ Groups, since
	// the groups' acceptors are independent service-time pools.
	ScalingTPS float64 `json:"scalingTPS"`
}

// RecorderAblation proves the flight recorder's overhead bound on the
// headline gateway arm: the identical seed and sizing run with the
// recorder off and on. The recorder performs no virtual-time
// operations and never touches the RNG stream, so virtual committed
// tx/s must match exactly — TestGatewayArmShapes asserts it.
// The recorder's real cost is host CPU, reported as the wall-clock
// delta (noisy on shared runners; informational).
type RecorderAblation struct {
	Off             GatewayRun `json:"off"`
	On              GatewayRun `json:"on"`
	TPSDeltaPct     float64    `json:"tpsDeltaPct"` // (on−off)/off × 100, virtual time
	WallOff         string     `json:"wallOff"`
	WallOn          string     `json:"wallOn"`
	WallOverheadPct float64    `json:"wallOverheadPct"`
	RecorderEvents  uint64     `json:"recorderEvents"`
}

// GatewaySaturation runs both arms (plus the scarce-stock gateway
// arm and the flight-recorder ablation) and compares.
func GatewaySaturation(seed int64, sc GatewayScale) *GatewayComparison {
	base := runGatewayArm(seed, sc, false, nil)
	wall0 := time.Now()
	gw := runGatewayArm(seed, sc, true, nil)
	gwWall := time.Since(wall0)
	cmp := &GatewayComparison{
		Seed:     seed,
		Sessions: sc.Sessions,
		HotKeys:  hotKeys,
		Measure:  sc.Measure.String(),
		Baseline: base,
		Gateway:  gw,
	}
	if base.TPS > 0 {
		cmp.Speedup = gw.TPS / base.TPS
	}
	if gw.AcceptorMsgsPerCommit > 0 {
		cmp.MsgDrop = base.AcceptorMsgsPerCommit / gw.AcceptorMsgsPerCommit
	}
	// Flight-recorder ablation: re-run the headline gateway arm with
	// the recorder wired through the full stack. Virtual TPS must be
	// bit-identical (the recorder never touches simulated time or the
	// RNG); wall-clock captures the real CPU cost.
	rec := trace.New(trace.Config{})
	wall1 := time.Now()
	traced := runGatewayArm(seed, sc, true, rec)
	tracedWall := time.Since(wall1)
	traced.Mode = "gateway-traced"
	cmp.Recorder = RecorderAblation{
		Off:            gw,
		On:             traced,
		WallOff:        gwWall.Round(time.Millisecond).String(),
		WallOn:         tracedWall.Round(time.Millisecond).String(),
		RecorderEvents: rec.Events(),
	}
	if gw.TPS > 0 {
		cmp.Recorder.TPSDeltaPct = (traced.TPS - gw.TPS) / gw.TPS * 100
	}
	if gwWall > 0 {
		cmp.Recorder.WallOverheadPct = (tracedWall.Seconds() - gwWall.Seconds()) / gwWall.Seconds() * 100
	}

	scarce := sc
	scarce.InitialStock = sc.ScarceStock
	scarce.Warmup = 0 // measure the whole burn-down to exhaustion
	scarce.Measure = sc.ScarceMeasure
	cmp.Scarce = runGatewayArm(seed, scarce, true, nil)
	cmp.Scarce.Mode = "gateway-scarce"
	cmp.ReadMostly = ReadMostly(seed, sc)
	cmp.MultiGroup = multiGroupCapacity(seed, sc)
	return cmp
}

// multiGroupCapacity drives the same per-group offered load against a
// single replica group and against multiGroups groups per DC. Both
// arms use the gateway tier; sessions and hot keys scale with the
// group count (the hot-key set is balanced per group under the shard
// ring) so each group sees an identical stampede, and the acceptors'
// per-message service time is the bottleneck — committed tx/s then
// measures capacity, which a single replica group caps and the ring
// lets grow with groups.
func multiGroupCapacity(seed int64, sc GatewayScale) MultiGroupResult {
	run := func(groups int) GatewayRun {
		arm := sc
		arm.NodesPerDC = groups
		arm.Sessions = sc.MultiSessions * groups
		arm.balancePerGroup = multiHotKeys
		arm.Warmup = sc.MultiWarmup
		arm.Measure = sc.MultiMeasure
		r := runGatewayArm(seed, arm, true, nil)
		r.Mode = fmt.Sprintf("gateway-%dgroups", groups)
		return r
	}
	out := MultiGroupResult{
		Groups:           multiGroups,
		SessionsPerGroup: sc.MultiSessions,
		HotKeysPerGroup:  multiHotKeys,
		Single:           run(1),
		Multi:            run(multiGroups),
	}
	if out.Single.TPS > 0 {
		out.ScalingTPS = out.Multi.TPS / out.Single.TPS
	}
	return out
}

func hotKey(i int) record.Key {
	if i < 10 {
		return record.Key("stock/hot" + string(rune('0'+i)))
	}
	return record.Key(fmt.Sprintf("stock/hot%d", i))
}

// balancedHotKeys picks perGroup hot keys owned by each of the
// cluster's active replica groups (deterministic: first matches in
// hotKey index order), so multi-group arms offer uniform per-group
// load regardless of ring placement skew.
func balancedHotKeys(cl *topology.Cluster, perGroup int) []record.Key {
	groups := cl.Ring().Current().Groups()
	want := perGroup * len(groups)
	count := make(map[int]int, len(groups))
	keys := make([]record.Key, 0, want)
	for i := 0; len(keys) < want && i < 100000; i++ {
		k := hotKey(i)
		if g := cl.Shard(k); count[g] < perGroup {
			count[g]++
			keys = append(keys, k)
		}
	}
	return keys
}

// runGatewayArm drives one closed-loop arm. rec, when non-nil, wires
// the flight recorder through the whole stack (the recorder-overhead
// ablation); all production arms pass nil.
func runGatewayArm(seed int64, sc GatewayScale, useGateway bool, rec *trace.Recorder) GatewayRun {
	d, cfg, hot := newHotKeyDeployment(seed, sc, useGateway,
		gateway.Tuning{MaxInflight: 1 << 16, MaxQueue: 1 << 16}, rec)
	cl, net := d.cl, d.net

	// Commit entry point per client: a private coordinator (baseline)
	// or the client DC's shared gateway.
	commit := make([]func([]record.Update, func(bool)), sc.Sessions)
	if useGateway {
		for i, c := range cl.Clients {
			g := d.gws[c.DC]
			commit[i] = func(ups []record.Update, done func(bool)) {
				g.Commit(ups, func(ok bool, err error) { done(ok && err == nil) })
			}
		}
	} else {
		for i, c := range cl.Clients {
			co := core.NewCoordinator(c.ID, c.DC, net, cl, cfg)
			commit[i] = func(ups []record.Update, done func(bool)) {
				co.Commit(ups, func(r core.CommitResult) { done(r.Committed) })
			}
		}
	}

	res := GatewayRun{Mode: "per-session-coordinators", Sessions: sc.Sessions}
	if useGateway {
		res.Mode = "gateway"
	}
	rng := net.Rand()
	start := net.Now()
	measureFrom := start.Add(sc.Warmup)
	measureTo := measureFrom.Add(sc.Measure)

	// Closed loop: each session decrements a random hot key, waits
	// for the outcome, repeats — the flash-sale stampede.
	for ci := range commit {
		ci := ci
		var loop func()
		loop = func() {
			now := net.Now()
			if !now.Before(measureTo) {
				return
			}
			key := hot[rng.Intn(len(hot))]
			commit[ci]([]record.Update{record.Commutative(key, map[string]int64{"units": -1})},
				func(ok bool) {
					end := net.Now()
					if !end.Before(measureFrom) && end.Before(measureTo) {
						if ok {
							res.Commits++
						} else {
							res.Aborts++
						}
					}
					loop()
				})
		}
		net.At(0, loop)
	}
	net.RunFor(sc.Warmup + sc.Measure + 10*time.Second)

	if secs := sc.Measure.Seconds(); secs > 0 {
		res.TPS = float64(res.Commits) / secs
	}
	for _, n := range cl.Storage {
		res.AcceptorMsgs += net.DeliveredTo(n.ID)
	}
	if res.Commits > 0 {
		res.AcceptorMsgsPerCommit = float64(res.AcceptorMsgs) / float64(res.Commits)
	}
	for _, n := range d.nodes {
		m := n.Metrics()
		res.AcceptorBatchEnvelopes += m.BatchEnvelopes
		res.AcceptorBatchItems += m.BatchItems
		res.VoteBatchEnvelopes += m.VoteBatchEnvelopes
		res.VoteBatchItems += m.VoteBatchItems
		res.DemarcationRejects += m.DemarcationRejects
	}
	if useGateway {
		agg := d.gatewayMetrics()
		agg.Finalize()
		res.Gateway = &agg
	}
	return res
}
