package core

import (
	"mdcc/internal/record"
	"mdcc/internal/wal"
)

// Periodic checkpointing. A durable node with CheckpointInterval > 0
// snapshots its full state — committed kv (escrow bases included),
// every record's lineage summary, the decided-option cache — and
// truncates WAL segments an older snapshot covers, so crash recovery
// is the newest valid snapshot plus a bounded log tail rather than a
// replay of every write the node ever took. Checkpoints run in the
// node's single-threaded handler context via the same timer pattern as
// the dangling-option sweep.

// scheduleCheckpoint arms the periodic checkpoint timer, if this node
// is durable and checkpointing is enabled.
func (n *StorageNode) scheduleCheckpoint() {
	if n.durable == nil || n.cfg.CheckpointInterval <= 0 {
		return
	}
	n.after(n.cfg.CheckpointInterval, func() {
		n.Checkpoint()
		n.scheduleCheckpoint()
	})
}

// Checkpoint writes a full-state snapshot now and truncates log
// segments the previous snapshot covers. A refused snapshot write
// degrades the node like any other durability failure: a node whose
// disk cannot take a checkpoint is a node whose disk is failing.
func (n *StorageNode) Checkpoint() {
	if n.durable == nil || n.degraded != nil {
		return
	}
	if err := n.durable.Checkpoint(n.snapshotOplog()); err != nil {
		n.degrade(err)
		return
	}
	n.m.Checkpoints++
}

// snapshotOplog lists every record's lineage summary and decided cache
// in oplog-replay shape, so restoring a snapshot runs through
// NewDurableStorageNode's seeding loop unchanged: one summary-snapshot
// entry per record (unioned first), then the decided options in
// settle order (recorded and noted idempotently), each a decided-log
// entry expanded into its decision body. The bodies share one buffer:
// when it grows, the bodies already written stay in the array they
// were written to, which nothing writes again. Each summary is
// unpacked into one of its own. Keys are emitted in the store's key
// order, so identical states checkpoint to identical bytes.
func (n *StorageNode) snapshotOplog() []oplogEntry {
	var out []oplogEntry
	var bodies []byte
	n.eachRecord(func(k record.Key, r *recState) bool {
		if !r.decided.summary().isEmpty() {
			s := r.decided.summary().unpack(&n.lanes)
			out = append(out, oplogEntry{Key: k, Snapshot: &s})
		}
		r.decided.each(&n.lanes, k, func(e decidedEntry) bool {
			start := len(bodies)
			bodies = e.appendBody(bodies)
			out = append(out, oplogEntry{Key: k, Decision: bodies[start:len(bodies):len(bodies)]})
			return true
		})
		return true
	})
	return out
}

// DurabilityInfo is a durable node's storage-engine gauge set, exposed
// by /metrics and scenario reports.
type DurabilityInfo struct {
	// Store is the node's one log's counters (appends, fsyncs,
	// group-commit batch sizes, live bytes); the store owns the log.
	Store wal.Stats
	// Oplog is always zero: decision records share Store's log. The
	// field stays only because the benchmark module (benchmark/layers.go)
	// sums Store and Oplog, and dropping it is a change to that module.
	Oplog wal.Stats
	// SnapshotSeq is the newest checkpoint's sequence (0 = none);
	// AppendsSinceCheckpoint the snapshot age in WAL records — the tail
	// a crash right now would replay.
	SnapshotSeq            int
	AppendsSinceCheckpoint int64
	// Checkpoints counts checkpoints taken by this incarnation.
	Checkpoints int64
	// Replay describes how the last recovery went.
	Replay ReplayStats
	// Degraded is true when the node latched a durability failure.
	Degraded bool
}

// Durability reports the storage-engine gauges (zero value for
// memory-only nodes).
func (n *StorageNode) Durability() DurabilityInfo {
	if n.durable == nil {
		return DurabilityInfo{Degraded: n.degraded != nil}
	}
	return DurabilityInfo{
		Store:                  n.durable.Store.Log().Stats(),
		SnapshotSeq:            n.durable.snapSeq,
		AppendsSinceCheckpoint: n.durable.AppendsSinceCheckpoint(),
		Checkpoints:            n.m.Checkpoints,
		Replay:                 n.durable.replay,
		Degraded:               n.degraded != nil,
	}
}
