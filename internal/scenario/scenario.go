// Package scenario is a deterministic whole-cluster fault-injection
// harness: it runs the real MDCC stack — coordinators, acceptors,
// leader election, dangling-transaction recovery, WAL-backed storage
// — on simnet's virtual clock while a scripted nemesis schedule
// injects the failures of the paper's evaluation and beyond (full
// data-center outages §5.4, master crashes with WAL-replay restarts,
// partitions, duplicated and reordered messages, latency spikes,
// clock drift). Concurrent simulated clients issue physical and
// commutative transactions whose full history is recorded and, after
// a heal-and-quiesce epilogue, machine-checked against the committed
// state by internal/check.
//
// Runs are reproducible: the same scenario, seed and sizing produce
// identical commit/abort counts and identical histories. Use the
// scenario tests for CI smoke coverage and cmd/mdcc-sim to run any
// scenario at scale.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mdcc/internal/check"
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/stats"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// Options sizes one scenario run. The zero value is filled with the
// scenario's defaults by Run.
type Options struct {
	// Seed drives every random choice of the run (network jitter,
	// drops, workload key picks). Same seed, same run.
	Seed int64
	// Clients is the number of simulated app-servers (geo-distributed
	// round-robin across the five data centers). Clients, NodesPerDC
	// and Duration each mean the scenario's default at 0; Run refuses a
	// negative one with ErrSizing.
	Clients int
	// NodesPerDC is the number of storage nodes (partition shards)
	// per data center.
	NodesPerDC int
	// Duration is the virtual-time traffic window. The nemesis
	// schedule is scaled to it; healing, drain and anti-entropy
	// convergence run after it.
	Duration time.Duration
	// Faults disables the nemesis schedule when false (smoke runs
	// validate the happy path only).
	Faults bool
	// DropProb, when > 0, is an ambient uniform message-drop
	// probability, set through Run's SetDropProb before any node is
	// built; a schedule that sets the drop probability replaces it,
	// and the epilogue heal clears it so drain and convergence run on
	// a whole network. Run refuses a value outside [0, 1) with
	// ErrDropProb.
	DropProb float64
	// Dir is where storage-node WALs live; empty means a fresh
	// temporary directory, removed when the run finishes.
	Dir string
	// Logf, when set, receives progress lines (the CLI's -v).
	Logf func(format string, args ...interface{})
	// Trace enables the transaction flight recorder for the run: the
	// result then carries per-phase latency histograms plus assembled
	// cross-node timelines for the N slowest transactions, every
	// retained (aborted / outcome-unknown / recovered / wrong-shard /
	// slow) transaction, and the transactions touching each invariant
	// violation's keys.
	Trace bool
	// TraceSlow overrides the slow-transaction retention threshold
	// (0 means the recorder default, 1s of virtual time).
	TraceSlow time.Duration

	// onDeliver observes every envelope the simulated network delivers
	// (simnet.Options.OnDeliver); in-package tests use it to check
	// protocol traffic against the wire codec.
	onDeliver func(transport.Envelope)
}

// Workload shapes the client traffic of a scenario. Key spaces are
// disjoint by kind so internal/check's conservation invariant applies
// cleanly: accounts and stock see only commutative deltas, items only
// physical read-modify-writes.
type Workload struct {
	// Accounts is the number of balance records (commutative
	// transfers move units between two of them).
	Accounts int
	// InitialBalance preloads each account's "bal" (constraint
	// bal >= 0).
	InitialBalance int64
	// StockKeys is the number of stock records hammered by blind
	// commutative decrements against units >= 0 (quorum demarcation
	// pressure).
	StockKeys int
	// InitialStock preloads each stock record's "units".
	InitialStock int64
	// Items is the number of physical read-modify-write records; few
	// items and many clients is the collision storm.
	Items int
	// ReadFrac, TransferFrac and StockFrac split traffic: a client
	// draw below ReadFrac is a session-guaranteed floored read (hot
	// stock keys + items; gateway scenarios only — it exercises the
	// learned-replica read tier), below ReadFrac+TransferFrac a
	// transfer, below ReadFrac+TransferFrac+StockFrac a stock
	// decrement, the rest are item read-modify-writes.
	ReadFrac     float64
	TransferFrac float64
	StockFrac    float64
}

// Scenario is one named fault schedule plus the workload and protocol
// tuning it runs under.
type Scenario struct {
	// Name is the CLI/flag identifier, e.g. "dc-outage".
	Name string
	// Description is one line for listings.
	Description string
	// Workload shapes client traffic.
	Workload Workload
	// Clients/NodesPerDC/Duration are the scenario's default sizing,
	// used where Options leaves them zero.
	Clients    int
	NodesPerDC int
	Duration   time.Duration
	// Gamma overrides the paper's γ=100 when > 0 (how many classic
	// instances follow a collision).
	Gamma int
	// Retention overrides the decided-log content-cache horizon
	// (core.Config.DecidedRetention) when > 0. The long-outage
	// scenario shrinks it far below its outage window to prove
	// retention is a cache knob, never a correctness input.
	Retention time.Duration
	// MasterDC overrides master placement (nil = uniform by hash).
	MasterDC func(record.Key) topology.DC
	// Gateway routes every client through its data center's
	// transaction gateway (one shared coordinator, cross-transaction
	// batching, hot-key delta coalescing) instead of a private
	// coordinator, validating the gateway tier under faults.
	Gateway bool
	// Groups is the number of replica groups active in the boot-time
	// shard ring (0 = all NodesPerDC). A scenario that provisions more
	// storage nodes than active groups can grow live via Rebalance.
	Groups int
	// Checkpoint enables periodic full-state checkpoints on every
	// storage node (core.Config.CheckpointInterval): recovery after a
	// crash is then the newest valid snapshot plus a bounded WAL tail,
	// and the harness validates that bound on every restart
	// (check.ValidateRecovery). Zero = no checkpoints, full-log replay.
	Checkpoint time.Duration
	// Rebalance schedules a live shard move during the traffic window
	// (gateway scenarios only): freeze-drain the moving slice,
	// bootstrap the destination group over anti-entropy, publish the
	// next ring epoch. The move runs regardless of Options.Faults —
	// it is an operation, not a fault; the nemesis fires faults into it.
	Rebalance *Rebalance
	// Nemesis schedules the fault events on the run; nil or
	// Options.Faults=false runs fault-free.
	Nemesis func(r *Run)
}

// Rebalance describes a scenario's live shard move.
type Rebalance struct {
	// At is the fraction of the traffic window at which the move
	// starts (e.g. 0.3 = 30% in).
	At float64
	// AddGroup is the provisioned-but-inactive replica group the move
	// activates; the ~1/G keyspace slice the ring re-homes onto it is
	// what drains, bootstraps and re-homes.
	AddGroup int
}

// Result is one run's harvest: outcome counts, latency, network
// counters and the validated invariants.
type Result struct {
	Scenario string
	Seed     int64
	Clients  int
	Duration time.Duration

	// Commits and Aborts count acknowledged transactions (from the
	// recorded history). Unknown counts transactions whose gateway
	// crashed before acknowledging — the protocol settled them, the
	// client never learned the outcome; invariants are range-checked
	// over them. ReadFails are transactions abandoned because their
	// read found no replica. Unresolved counts transactions still
	// unacknowledged after the drain epilogue — always a failure:
	// MDCC transactions must settle once the network heals.
	Commits    int
	Aborts     int
	Unknown    int
	ReadFails  int
	Unresolved int
	// UnknownTyped counts the subset of Unknown that the gateway tier
	// itself surfaced in-process as typed outcome-unknown errors
	// (Gateway.Kill), mirroring the RPC client's mdcc.ErrOutcomeUnknown.
	UnknownTyped int
	// Reads counts consumed session-guaranteed reads (ReadFrac
	// workloads), each validated for monotonicity/read-your-writes.
	Reads int

	// WriteLat samples committed-transaction response times (ms).
	WriteLat *stats.Sample

	Net   simnet.Stats
	Coord core.CoordMetrics
	Nodes core.Metrics

	// Gateway aggregates the per-DC gateway metrics (gateway
	// scenarios only; nil otherwise).
	Gateway *gateway.Metrics

	// RingEpoch is the published shard-ring epoch at run end (1 = no
	// move ever ran); ShardMoves/MovedKeys aggregate the storage-node
	// shard-bootstrap counters (see core.Metrics).
	RingEpoch uint64

	// Recoveries records every storage restart's replay (snapshot used,
	// tail length, wall time), each validated against the bounded-
	// recovery contract by check.ValidateRecovery. DiskFaults counts
	// injected disk faults (fsync failures, torn writes, bit flips);
	// WipedRebuilds replicas whose durable state was unrecoverable
	// (every snapshot corrupt) and was discarded for a quorum rebuild.
	Recoveries    []check.RecoveryRecord
	DiskFaults    int
	WipedRebuilds int

	// Scaling-curve instrumentation (the mdcc-bench scale arm plots
	// these against cluster size). ClusterNodes is
	// the number of simulated processes (storage + gateway tiers +
	// clients); TPS is committed transactions per virtual second of the
	// traffic window; Converge is the virtual time the epilogue needed
	// to drain every in-flight transaction after heal; Wall is the real
	// time the whole run took and SimWallRatio how much faster than
	// real time the simulation ran (virtual elapsed / wall). Wall and
	// the ratio are measurements of the simulator, not of the simulated
	// system — they are the only nondeterministic fields in a Result.
	ClusterNodes int
	TPS          float64
	Converge     time.Duration
	Wall         time.Duration
	SimWallRatio float64

	// Events is the human-readable nemesis timeline that actually ran.
	Events []string
	// Violations are the failed internal/check invariants (empty =
	// all invariants hold).
	Violations []string

	// Phases holds the flight recorder's per-stage latency histograms
	// (Options.Trace runs only; nanosecond values).
	Phases []trace.PhaseSnapshot
	// Timelines are the assembled flight-recorder timelines: the N
	// slowest transactions, then every retained trace, then — per
	// violation — the transactions touching its keys. Each entry is a
	// ready-to-print multi-line block.
	Timelines []string
	// TraceEvents/TraceDropped report recorder volume: total events
	// appended and retain-worthy completions lost to the deterministic
	// assembly budget.
	TraceEvents  uint64
	TraceDropped int
}

// Passed reports whether every invariant held and every transaction
// settled.
func (r *Result) Passed() bool {
	return len(r.Violations) == 0 && r.Unresolved == 0
}

// Report renders the pass/fail invariant report the CLI prints.
func (r *Result) Report() string {
	var b strings.Builder
	status := "PASS"
	if !r.Passed() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "scenario %-22s seed=%-4d clients=%-4d duration=%s  %s\n",
		r.Scenario, r.Seed, r.Clients, r.Duration, status)
	fmt.Fprintf(&b, "  txns: %d committed, %d aborted, %d unknown (gateway crash; %d typed in-process), %d read-failed, %d unresolved\n",
		r.Commits, r.Aborts, r.Unknown, r.UnknownTyped, r.ReadFails, r.Unresolved)
	if r.WriteLat.N() > 0 {
		fmt.Fprintf(&b, "  commit latency ms: p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
			r.WriteLat.Percentile(50), r.WriteLat.Percentile(95),
			r.WriteLat.Percentile(99), r.WriteLat.Max())
	}
	if len(r.Phases) > 0 {
		fmt.Fprintf(&b, "  phase latency (ms):       %8s %8s %8s %10s\n", "p50", "p99", "max", "n")
		ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
		for _, p := range r.Phases {
			h := p.Hist
			fmt.Fprintf(&b, "    %-21s %8.2f %8.2f %8.2f %10d\n",
				p.Key.String(), ms(h.Quantile(0.50)), ms(h.Quantile(0.99)), ms(h.Max), h.N)
		}
		fmt.Fprintf(&b, "  flight recorder: %d events, %d timelines retained, %d dropped to assembly budget\n",
			r.TraceEvents, len(r.Timelines), r.TraceDropped)
	}
	fmt.Fprintf(&b, "  net: %d delivered, %d dropped (%d prob, %d endpoint, %d partition), %d dup, %d reordered\n",
		r.Net.Delivered, r.Net.Dropped, r.Net.DroppedProb, r.Net.DroppedEndpoint,
		r.Net.DroppedPartition, r.Net.Duplicated, r.Net.Reordered)
	fmt.Fprintf(&b, "  protocol: %d fast learns, %d leader learns, %d collisions, %d recoveries, %d demarcation rejects, %d phase1\n",
		r.Coord.FastLearns, r.Coord.LeaderLearns, r.Coord.Collisions,
		r.Coord.Recoveries, r.Nodes.DemarcationRejects, r.Nodes.Phase1)
	fmt.Fprintf(&b, "  lineage: %d forked applies grafted, %d adoptions refused (physical containment), %d decided entries released post-ack, %d mixed-kind rejects\n",
		r.Nodes.Grafted, r.Nodes.AdoptRefused, r.Nodes.DecidedReleased, r.Nodes.MixedKindRejects)
	if g := r.Gateway; g != nil {
		fmt.Fprintf(&b, "  gateway: %d submitted, %d merged options carrying %d updates (coalesce ratio %.2f), %d splits, %d shed, batch fan-in %.1f (%d envelopes)\n",
			g.Submitted, g.MergedOptions, g.MergedUpdates, g.CoalesceRatio,
			g.MergeSplits, g.AdmissionRejects, g.BatchFanIn, g.BatchEnvelopes)
		if r.Reads > 0 || g.LocalReads+g.ReadRPCs > 0 {
			fmt.Fprintf(&b, "  read tier: %d reads consumed (%d local, %d rpc, %d shared, %d quorum; local frac %.2f), feed %d msgs/%d items, %d gaps, %d resubs\n",
				r.Reads, g.LocalReads, g.ReadRPCs, g.ReadCoalesced, g.ReadQuorums,
				g.LocalReadFrac, g.FeedMsgs, g.FeedItems, g.FeedGaps, g.FeedResubs)
		}
	}
	if r.Nodes.Checkpoints > 0 || r.Nodes.DurabilityFailures > 0 || len(r.Recoveries) > 0 {
		fmt.Fprintf(&b, "  durability: %d checkpoints, %d disk faults injected, %d degrade latches, %d restarts recovered, %d wiped+rebuilt\n",
			r.Nodes.Checkpoints, r.DiskFaults, r.Nodes.DurabilityFailures, len(r.Recoveries), r.WipedRebuilds)
		for _, rec := range r.Recoveries {
			mode := "full-log replay"
			if rec.Wiped {
				mode = "state unrecoverable, wiped for quorum rebuild"
			} else if rec.FellBack {
				mode = "fell back to previous snapshot"
			} else if rec.UsedSnapshot {
				mode = "snapshot + tail"
			}
			fmt.Fprintf(&b, "    recovery %-14s %-40s tail=%-6d wall=%s\n",
				rec.Node, mode, rec.TailRecords, rec.Wall.Round(time.Microsecond))
		}
	}
	if r.Nodes.ShardMoves > 0 || r.RingEpoch > 1 {
		retries := int64(0)
		if r.Gateway != nil {
			retries = r.Gateway.WrongShardRetries
		}
		fmt.Fprintf(&b, "  ring: epoch %d published, %d shard adoptions moved %d keys, %d wrong-shard refusals\n",
			r.RingEpoch, r.Nodes.ShardMoves, r.Nodes.MovedKeys, retries)
	}
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "  nemesis: %s\n", ev)
	}
	if len(r.Violations) == 0 {
		fmt.Fprintf(&b, "  invariants: no lost updates ok, version accounting ok, delta conservation ok, constraints ok, exact lineage convergence ok\n")
	} else {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
		}
	}
	if r.Unresolved > 0 {
		fmt.Fprintf(&b, "  VIOLATION: %d transactions never settled after heal\n", r.Unresolved)
	}
	return b.String()
}

// All returns every registered scenario, sorted by name.
func All() []*Scenario {
	out := append([]*Scenario(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Find looks a scenario up by name.
func Find(name string) (*Scenario, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Names lists registered scenario names, sorted.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}
