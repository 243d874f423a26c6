package scenario

import (
	"time"

	"mdcc/internal/record"
	"mdcc/internal/ring"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// The scenario library. Each scenario pins a workload shape and a
// nemesis schedule expressed as fractions of the traffic window, so
// the same script runs in CI smoke mode (seconds of virtual time) and
// at cmd/mdcc-sim scale (minutes, hundreds of clients).

// frac returns the offset at fraction f of the run's traffic window.
func frac(r *Run, f float64) time.Duration {
	return time.Duration(f * float64(r.Opts.Duration))
}

var mixedWorkload = Workload{
	Accounts:       40,
	InitialBalance: 1000,
	StockKeys:      5,
	InitialStock:   200,
	Items:          10,
	TransferFrac:   0.5,
	StockFrac:      0.2,
}

var registry = []*Scenario{
	{
		// §5.4 / figure 8: a full data center becomes unreachable
		// mid-run and later returns. MDCC must keep committing (one DC
		// down still leaves a fast quorum of 4 and classic quorums of
		// 3) and the returning replicas must converge.
		Name:        "dc-outage",
		Description: "full data-center outage and return (§5.4); commits must continue throughout",
		Workload:    mixedWorkload,
		Clients:     100,
		Duration:    time.Minute,
		Nemesis: func(r *Run) {
			r.At(frac(r, 0.25), "fail all storage in us-east", func() { r.FailDC(topology.USEast) })
			r.At(frac(r, 0.60), "recover us-east", func() { r.RecoverDC(topology.USEast) })
		},
	},
	{
		// Every record is mastered in us-west; the whole master DC
		// crashes (volatile Paxos state lost) and later restarts from
		// its WALs. Classic rounds must fail over to fallback leaders
		// in other DCs, and the restarted replicas must replay and
		// catch up without double-applying anything.
		Name:        "master-failover",
		Description: "crash the DC mastering every record; fallback leaders take over, WAL restart rejoins",
		Workload:    mixedWorkload,
		Clients:     60,
		Duration:    time.Minute,
		MasterDC:    func(record.Key) topology.DC { return topology.USWest },
		Nemesis: func(r *Run) {
			west := r.Cluster.StorageIn(topology.USWest)
			r.At(frac(r, 0.25), "crash all storage in us-west (master DC)", func() {
				for _, n := range west {
					r.CrashStorage(r.StorageIdx(n.DC, n.Index))
				}
			})
			r.At(frac(r, 0.60), "restart us-west from WAL", func() {
				for _, n := range west {
					r.RestartStorage(r.StorageIdx(n.DC, n.Index))
				}
			})
		},
	},
	{
		// Many clients hammering three physical records: fast-path
		// collisions force classic windows, and a small γ makes records
		// cycle fast→classic→fast continuously. A mid-run latency
		// brown-out widens the race windows.
		Name:        "collision-storm",
		Description: "hot physical keys under small γ; fast/classic ballot churn with a latency brown-out",
		Workload: Workload{
			Items: 3,
		},
		Clients:  80,
		Duration: 45 * time.Second,
		Gamma:    5,
		Nemesis: func(r *Run) {
			r.At(frac(r, 0.35), "3x WAN latency", func() { r.Net.ScaleLatency(3) })
			r.At(frac(r, 0.65), "latency back to normal", func() { r.Net.ScaleLatency(1) })
		},
	},
	{
		// A 2-DC minority (storage and the clients living there) is cut
		// off mid-traffic. The majority side keeps committing; minority
		// transactions stall and must all settle after the heal with no
		// split-brain in the final state.
		Name:        "partition-during-commit",
		Description: "2|3 WAN partition with traffic on both sides; stalled commits settle after heal",
		Workload:    mixedWorkload,
		Clients:     75,
		Duration:    time.Minute,
		Nemesis: func(r *Run) {
			minority := []topology.DC{topology.APSingapore, topology.APTokyo}
			r.At(frac(r, 0.30), "partition ap-sg+ap-tk from the rest", func() {
				r.Net.Partition(r.SideIDs(minority...), r.OtherSideIDs(minority...))
			})
			r.At(frac(r, 0.65), "heal partition", func() { r.Net.HealAll() })
		},
	},
	{
		// Nearly all traffic is blind commutative decrements against
		// units >= 0 with scarce initial stock: the quorum demarcation
		// limit must reject over-draws on the fast path while light
		// packet loss stresses option recovery. Conservation of deltas
		// and the constraint are the invariants under test.
		Name:        "demarcation-stress",
		Description: "commutative decrements exhaust scarce stock under packet loss; units>=0 must hold",
		Workload: Workload{
			StockKeys:    4,
			InitialStock: 60,
			Items:        2,
			StockFrac:    0.9,
		},
		Clients:  100,
		Duration: 45 * time.Second,
		Nemesis: func(r *Run) {
			r.At(frac(r, 0.20), "5% packet loss", func() { r.Net.SetDropProb(0.05) })
			r.At(frac(r, 0.80), "packet loss off", func() { r.Net.SetDropProb(0) })
		},
	},
	{
		// Crash and WAL-restart every storage node in turn while
		// traffic continues: a rolling upgrade. No acknowledged commit
		// may be lost across any restart.
		Name:        "rolling-restarts",
		Description: "crash/WAL-restart every storage node in sequence under load",
		Workload:    mixedWorkload,
		Clients:     60,
		Duration:    75 * time.Second,
		Nemesis: func(r *Run) {
			n := len(r.Cluster.Storage)
			for i := 0; i < n; i++ {
				i := i
				down := 0.10 + 0.80*float64(i)/float64(n)
				up := down + 0.40/float64(n)
				id := r.Cluster.Storage[i].ID
				r.At(frac(r, down), "crash "+string(id), func() { r.CrashStorage(i) })
				r.At(frac(r, up), "restart "+string(id), func() { r.RestartStorage(i) })
			}
		},
	},
	{
		// A flash-sale stampede through the gateway tier: heavy
		// commutative traffic on a handful of hot stock keys flows
		// through per-DC gateways (one shared coordinator, cross-
		// transaction batching, hot-key delta coalescing into merged
		// options) while a DC outage, packet loss and a latency
		// brown-out hit the cluster. Invariants under test: delta
		// conservation and per-client-update version accounting
		// across merged options, units >= 0 under demarcation, and
		// settle-everything liveness with the gateway in the path.
		Name:        "gateway-saturation",
		Description: "hot-key commutative stampede via per-DC gateways (batching+coalescing) under outage, loss and latency faults",
		Gateway:     true,
		Workload: Workload{
			Accounts:       20,
			InitialBalance: 1000,
			StockKeys:      3,
			InitialStock:   150000,
			Items:          4,
			TransferFrac:   0.15,
			StockFrac:      0.75,
		},
		Clients:  150,
		Duration: time.Minute,
		Nemesis: func(r *Run) {
			r.At(frac(r, 0.15), "5% packet loss", func() { r.Net.SetDropProb(0.05) })
			r.At(frac(r, 0.30), "fail all storage in eu-ie", func() { r.FailDC(topology.EUIreland) })
			r.At(frac(r, 0.45), "2x WAN latency", func() { r.Net.ScaleLatency(2) })
			r.At(frac(r, 0.60), "latency back to normal", func() { r.Net.ScaleLatency(1) })
			r.At(frac(r, 0.70), "recover eu-ie", func() { r.RecoverDC(topology.EUIreland) })
			r.At(frac(r, 0.85), "packet loss off", func() { r.Net.SetDropProb(0) })
		},
	},
	{
		// The gateway tier itself becomes the fault target: two DCs'
		// gateways hard-crash (queued events, merge windows and the
		// coordinator die with the process; in-flight client acks are
		// lost) and restart mid-stampede, while a third DC is
		// partitioned away entirely — gateway included. Crashed-gateway
		// transactions become unknown-outcome history entries: the
		// dangling-option sweep must settle whatever was proposed, and
		// the final state must stay inside the unknown-op envelope
		// (version range, conservation interval, constraints). Scarcer
		// stock than gateway-saturation keeps demarcation headroom live
		// so the restarted gateways' re-learned escrow accounts are
		// also under test.
		Name:        "gateway-partition",
		Description: "gateway processes crash/restart mid-stampede plus a DC partition; unknown-outcome ops bounded, sweep settles orphans",
		Gateway:     true,
		Workload: Workload{
			Accounts:       20,
			InitialBalance: 1000,
			StockKeys:      3,
			InitialStock:   20000,
			Items:          4,
			TransferFrac:   0.15,
			StockFrac:      0.75,
		},
		Clients:  150,
		Duration: time.Minute,
		Nemesis: func(r *Run) {
			r.At(frac(r, 0.15), "crash gateway us-east", func() { r.CrashGateway(topology.USEast) })
			r.At(frac(r, 0.30), "partition eu-ie (gateway included) from the rest", func() {
				r.Net.Partition(r.SideIDs(topology.EUIreland), r.OtherSideIDs(topology.EUIreland))
			})
			r.At(frac(r, 0.40), "restart gateway us-east", func() { r.RestartGateway(topology.USEast) })
			r.At(frac(r, 0.50), "crash gateway ap-sg", func() { r.CrashGateway(topology.APSingapore) })
			r.At(frac(r, 0.60), "heal partition", func() { r.Net.HealAll() })
			r.At(frac(r, 0.75), "restart gateway ap-sg", func() { r.RestartGateway(topology.APSingapore) })
		},
	},
	{
		// A hot-key read stampede through the gateway read tier: 90%
		// of traffic is session-guaranteed floored reads served from
		// the gateways' feed-materialized stores, over a write mix
		// that keeps versions moving (stock decrements + item
		// read-modify-writes). The nemesis attacks every feed failure
		// mode: a full-DC partition (gateway included) starves that
		// DC's feeds and strands its clients' floors; a gateway
		// crash/restart discards a materialized store mid-stampede
		// (the fresh incarnation must re-learn from catch-up + RPC
		// fills without serving anything below a session floor); a
		// storage-node crash kills a feed publisher (subscriber state
		// is volatile — the gateway must detect the silence and
		// resubscribe); and a latency brown-out stretches feed lag.
		// Invariants: monotonic reads + read-your-writes over every
		// consumed read (check.ValidateSessionReads), no fabricated
		// versions, plus the standard conservation/version accounting.
		Name:        "read-storm",
		Description: "hot-key floored-read stampede on the gateway read tier under partition, gateway crash and feed-publisher crash",
		Gateway:     true,
		Workload: Workload{
			StockKeys:    4,
			InitialStock: 50000,
			Items:        6,
			ReadFrac:     0.90,
			StockFrac:    0.05,
		},
		Clients:  150,
		Duration: time.Minute,
		Nemesis: func(r *Run) {
			r.At(frac(r, 0.10), "crash one us-west storage node (feed publisher dies)", func() {
				r.CrashStorage(r.StorageIdx(topology.USWest, 0))
			})
			r.At(frac(r, 0.25), "restart the us-west storage node", func() {
				r.RestartStorage(r.StorageIdx(topology.USWest, 0))
			})
			r.At(frac(r, 0.30), "partition us-east (gateway included) from the rest", func() {
				r.Net.Partition(r.SideIDs(topology.USEast), r.OtherSideIDs(topology.USEast))
			})
			r.At(frac(r, 0.40), "crash gateway ap-sg mid-stampede", func() { r.CrashGateway(topology.APSingapore) })
			r.At(frac(r, 0.50), "2x WAN latency (feed lag)", func() { r.Net.ScaleLatency(2) })
			r.At(frac(r, 0.55), "restart gateway ap-sg", func() { r.RestartGateway(topology.APSingapore) })
			r.At(frac(r, 0.60), "heal partition", func() { r.Net.HealAll() })
			r.At(frac(r, 0.75), "latency back to normal", func() { r.Net.ScaleLatency(1) })
		},
	},
	{
		// Live capacity growth under fire: the cluster boots with one
		// active replica group per DC (a second is provisioned idle) and
		// 30% into the traffic window the ring activates group 1 — a
		// three-phase shard move (freeze-drain the re-homing ~half of
		// the keyspace at every gateway, bootstrap the new group's
		// replicas over the directed anti-entropy pull, publish the new
		// epoch) while the nemesis throws ambient packet loss, a
		// source-replica crash/restart, a destination-replica
		// crash/restart (the pull chain must re-issue on the fresh
		// incarnation), a DC partition and a gateway crash/restart into
		// the move window. Invariants: everything the other scenarios
		// demand — conservation, version accounting, session reads —
		// plus exact per-shard lineage convergence on the new owners
		// and zero lost or duplicated applies across the move.
		Name:        "shard-rebalance",
		Description: "live shard move onto a new replica group under drops, crashes, a partition and a gateway crash",
		Gateway:     true,
		Groups:      1,
		Rebalance:   &Rebalance{At: 0.30, AddGroup: 1},
		NodesPerDC:  2,
		Workload: Workload{
			Accounts:       30,
			InitialBalance: 1000,
			StockKeys:      4,
			InitialStock:   50000,
			Items:          8,
			ReadFrac:       0.20,
			TransferFrac:   0.35,
			StockFrac:      0.25,
		},
		Clients:  60,
		Duration: 45 * time.Second,
		Nemesis: func(r *Run) {
			crash := func(dc topology.DC, group int) func() {
				return func() {
					r.CrashStorage(r.StorageIdx(dc, group))
				}
			}
			restart := func(dc topology.DC, group int) func() {
				return func() {
					r.RestartStorage(r.StorageIdx(dc, group))
				}
			}
			r.At(frac(r, 0.32), "4% packet loss into the move window", func() { r.Net.SetDropProb(0.04) })
			r.At(frac(r, 0.38), "crash us-west source replica (group 0)", crash(topology.USWest, 0))
			r.At(frac(r, 0.42), "partition eu-ie (gateway included) from the rest", func() {
				r.Net.Partition(r.SideIDs(topology.EUIreland), r.OtherSideIDs(topology.EUIreland))
			})
			r.At(frac(r, 0.45), "crash ap-tk destination replica (group 1) mid-bootstrap", crash(topology.APTokyo, 1))
			r.At(frac(r, 0.50), "crash gateway us-east", func() { r.CrashGateway(topology.USEast) })
			r.At(frac(r, 0.55), "restart us-west source replica", restart(topology.USWest, 0))
			r.At(frac(r, 0.58), "restart ap-tk destination replica", restart(topology.APTokyo, 1))
			r.At(frac(r, 0.60), "heal partition", func() { r.Net.HealAll() })
			r.At(frac(r, 0.62), "restart gateway us-east", func() { r.RestartGateway(topology.USEast) })
			r.At(frac(r, 0.70), "packet loss off", func() { r.Net.SetDropProb(0) })
		},
	},
	{
		// Continuous membership churn — the cluster's cast is never
		// fixed. Storage replicas are *replaced* (crash + disk wipe + a
		// fresh machine rebuilt from its quorum), gateways leave and are
		// replaced by new incarnations, and the shard ring itself churns:
		// a spare replica group joins mid-traffic, an original group
		// leaves (its keyspace slice scatters across the survivors, each
		// bootstrapping its share — including from the leaver — before
		// the epoch publishes), and the departed group later rejoins.
		// Ring moves queue FIFO through the same freeze → bootstrap →
		// publish control plane as shard-rebalance; replaces landing on
		// in-flight bootstrap destinations force pull chains to re-issue
		// on the fresh (empty) incarnation. Invariants: everything the
		// other scenarios demand — zero lost acked writes, conservation,
		// version accounting, session reads — plus exact lineage
		// convergence on whatever replica set owns each key at the end.
		Name:        "node-churn",
		Description: "continuous join/leave/replace of storage replicas, gateways and ring groups under load",
		Gateway:     true,
		Groups:      2,
		NodesPerDC:  3,
		Workload: Workload{
			Accounts:       30,
			InitialBalance: 1000,
			StockKeys:      4,
			InitialStock:   50000,
			Items:          8,
			ReadFrac:       0.20,
			TransferFrac:   0.35,
			StockFrac:      0.25,
		},
		Clients:  60,
		Duration: time.Minute,
		Nemesis: func(r *Run) {
			replace := func(dc topology.DC, group int) func() {
				return func() {
					if i := r.StorageIdx(dc, group); i >= 0 {
						r.ReplaceStorage(i)
					}
				}
			}
			r.At(frac(r, 0.08), "replace us-east replica (group 0): new machine, quorum rebuild", replace(topology.USEast, 0))
			r.At(frac(r, 0.12), "gateway us-west leaves (crash)", func() { r.CrashGateway(topology.USWest) })
			r.At(frac(r, 0.18), "gateway us-west replacement joins", func() { r.RestartGateway(topology.USWest) })
			r.At(frac(r, 0.20), "group 2 joins the ring", func() {
				r.QueueMove("join group 2", func(cur ring.Map) ring.Map { return cur.WithGroup(2) })
			})
			r.At(frac(r, 0.30), "replace ap-tk replica (group 1)", replace(topology.APTokyo, 1))
			r.At(frac(r, 0.38), "gateway ap-sg leaves (crash)", func() { r.CrashGateway(topology.APSingapore) })
			r.At(frac(r, 0.45), "group 0 leaves the ring (slice scatters to survivors)", func() {
				r.QueueMove("leave group 0", func(cur ring.Map) ring.Map { return cur.WithoutGroup(0) })
			})
			r.At(frac(r, 0.46), "gateway ap-sg replacement joins", func() { r.RestartGateway(topology.APSingapore) })
			r.At(frac(r, 0.52), "replace eu-ie replica (group 2) mid-churn", replace(topology.EUIreland, 2))
			r.At(frac(r, 0.62), "replace us-west replica (group 1)", replace(topology.USWest, 1))
			r.At(frac(r, 0.70), "group 0 rejoins the ring", func() {
				r.QueueMove("rejoin group 0", func(cur ring.Map) ring.Map { return cur.WithGroup(0) })
			})
			r.At(frac(r, 0.80), "replace ap-sg replica (group 0) during its rejoin", replace(topology.APSingapore, 0))
		},
	},
	{
		// The durable-storage-engine gauntlet. Storage nodes run with
		// periodic full-state checkpoints (snapshot + WAL truncation)
		// while the nemesis attacks the disks themselves: persistent
		// fsync failures (the node must latch typed core.ErrDurability
		// and fall silent — degraded disks shed errors, they never ack
		// unsynced writes), a torn mid-frame write (replay must drop the
		// torn tail exactly), silent bit rot in a logged record (must
		// surface as typed corruption at the next replay — the replica
		// is wiped and rebuilt from its quorum, never silently wrong),
		// a heavy-load crash whose restart must recover from the newest
		// snapshot plus a bounded log tail inside the documented wall
		// bound, and a crash whose newest snapshot is corrupted on disk
		// so recovery must fall back to the previous snapshot. Beyond
		// the standard invariants, check.ValidateRecovery judges every
		// restart: snapshot-seeded when one existed, tail no longer
		// than what accumulated since the last checkpoint, wall time
		// bounded.
		Name:        "recovery-bound",
		Description: "checkpointed WAL recovery under disk faults: fsync failure, torn write, bit rot, snapshot corruption; replay stays snapshot+bounded-tail",
		Workload:    mixedWorkload,
		Clients:     100,
		Duration:    90 * time.Second,
		Checkpoint:  3 * time.Second,
		Nemesis: func(r *Run) {
			byDC := func(dc topology.DC) int { return r.StorageIdx(dc, 0) }
			r.At(frac(r, 0.15), "arm bit rot on us-west (next WAL append silently corrupted)", func() {
				// This early rot usually lands in a segment a later
				// checkpoint truncates away — which must stay harmless.
				// The rot that must SURFACE is planted at the crash below.
				r.FlipDiskBit(byDC(topology.USWest))
			})
			r.At(frac(r, 0.20), "fsync failures on eu-ie (node must degrade, not ack)", func() {
				r.FailDisk(byDC(topology.EUIreland))
			})
			r.At(frac(r, 0.30), "torn WAL write on ap-tk (partial frame, then degrade)", func() {
				r.TearDisk(byDC(topology.APTokyo))
			})
			r.At(frac(r, 0.35), "replace eu-ie disk (reboot from snapshot + tail)", func() {
				r.ReplaceDisk(byDC(topology.EUIreland))
			})
			r.At(frac(r, 0.42), "replace ap-tk disk (torn tail dropped at replay)", func() {
				r.ReplaceDisk(byDC(topology.APTokyo))
			})
			r.At(frac(r, 0.45), "crash us-east under sustained load", func() {
				r.CrashStorage(byDC(topology.USEast))
			})
			r.At(frac(r, 0.55), "crash us-west, rot a record in its replay tail", func() {
				i := byDC(topology.USWest)
				r.CrashStorage(i)
				r.RotWALRecord(i)
			})
			r.At(frac(r, 0.60), "restart us-east (snapshot + bounded tail)", func() {
				r.RestartStorage(byDC(topology.USEast))
			})
			r.At(frac(r, 0.65), "restart us-west (typed corruption; wiped, quorum rebuild)", func() {
				r.RestartStorage(byDC(topology.USWest))
			})
			r.At(frac(r, 0.68), "crash ap-sg and corrupt its newest snapshot", func() {
				i := byDC(topology.APSingapore)
				r.CrashStorage(i)
				r.CorruptNewestSnapshot(i)
			})
			r.At(frac(r, 0.78), "restart ap-sg (falls back to previous snapshot)", func() {
				r.RestartStorage(byDC(topology.APSingapore))
			})
		},
	},
	{
		// The retention-is-not-a-correctness-input proof. The
		// decided-log content cache is shrunk to 4s while a full data
		// center sits partitioned for ~55% of the run — many multiples
		// of the cache horizon — with packet loss beforehand seeding
		// forked commutative applies (lost visibility messages). Under
		// the seed design this is exactly the documented §5 loss mode:
		// the partitioned replicas' unique applies aged out of the
		// decided log before the heal, and the merge silently dropped
		// them. With exact lineage summaries the merge is
		// retention-free (contents are held until every peer's summary
		// provably contains them, and summaries answer containment
		// forever), so the run must pass conservation, version
		// accounting AND the exact-convergence check (identical
		// summaries on all replicas of every key). A mid-run WAL
		// crash/restart in a second DC additionally proves summaries
		// replay exactly.
		Name:        "long-outage",
		Description: "outage + recovery horizon far beyond the decided-log retention; exact lineage summaries must converge all forks",
		Workload:    mixedWorkload,
		Clients:     100,
		Duration:    90 * time.Second,
		Retention:   4 * time.Second,
		Nemesis: func(r *Run) {
			r.At(frac(r, 0.05), "6% packet loss (seed forked applies)", func() { r.Net.SetDropProb(0.06) })
			r.At(frac(r, 0.15), "partition us-east storage from the rest", func() {
				var east []transport.NodeID
				for _, n := range r.Cluster.StorageIn(topology.USEast) {
					east = append(east, n.ID)
				}
				r.Net.Partition(east, r.OtherSideIDs(topology.USEast))
			})
			r.At(frac(r, 0.25), "packet loss off", func() { r.Net.SetDropProb(0) })
			r.At(frac(r, 0.40), "crash one ap-tk replica (WAL summaries)", func() {
				r.CrashStorage(r.StorageIdx(topology.APTokyo, 0))
			})
			r.At(frac(r, 0.60), "restart the ap-tk replica from WAL", func() {
				r.RestartStorage(r.StorageIdx(topology.APTokyo, 0))
			})
			r.At(frac(r, 0.70), "heal the partition", func() { r.Net.HealAll() })
		},
	},
	{
		// Everything at once: sustained loss, duplication and
		// reordering, clock drift on two replicas, a latency spike, a
		// short partition and one crash/restart. The kitchen-sink
		// regression net for protocol idempotence.
		Name:        "chaos-mix",
		Description: "drops+dups+reorder+drift+spike+partition+crash combined",
		Workload:    mixedWorkload,
		Clients:     60,
		Duration:    time.Minute,
		Nemesis: func(r *Run) {
			r.At(frac(r, 0.10), "8% loss, 8% dup, 15% reorder", func() {
				r.Net.SetDropProb(0.08)
				r.Net.SetDupProb(0.08)
				r.Net.SetReorder(0.15, 100*time.Millisecond)
			})
			r.At(frac(r, 0.15), "clock drift +30%/-30% on two replicas", func() {
				r.Net.SetDrift(r.Cluster.Storage[0].ID, 0.3)
				r.Net.SetDrift(r.Cluster.Storage[len(r.Cluster.Storage)-1].ID, -0.3)
			})
			r.At(frac(r, 0.30), "2x WAN latency", func() { r.Net.ScaleLatency(2) })
			r.At(frac(r, 0.40), "partition eu-ie from the rest", func() {
				r.Net.Partition(r.SideIDs(topology.EUIreland), r.OtherSideIDs(topology.EUIreland))
			})
			r.At(frac(r, 0.50), "heal partition, latency normal", func() {
				r.Net.HealAll()
				r.Net.ScaleLatency(1)
			})
			r.At(frac(r, 0.55), "crash one ap-tk replica", func() {
				r.CrashStorage(r.StorageIdx(topology.APTokyo, 0))
			})
			r.At(frac(r, 0.75), "restart ap-tk replica, chaos off", func() {
				r.RestartStorage(r.StorageIdx(topology.APTokyo, 0))
				r.Net.SetDropProb(0)
				r.Net.SetDupProb(0)
				r.Net.SetReorder(0, 0)
			})
		},
	},
}
