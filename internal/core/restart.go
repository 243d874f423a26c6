package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
	"mdcc/internal/wal"
)

// Crash/restart support. A storage node's durable footprint is one
// WAL, wal/ under its directory, and the checkpoint snapshots in snap/
// (see checkpoint.go). The log holds, in the order they were written,
// the committed record store's puts (kv's 0xD1 records: what BDB
// persists in the paper's prototype) and the decision records (0xD2:
// the final accept/reject outcome of every option whose effect entered
// the store, and lineage-summary snapshots). kv.Store owns the log;
// this file writes its records through Store.Append and reads them back
// through the callback kv.OpenWith hands every non-kv record to. A
// snapshot covers everything below one cut, so recovery is the newest
// valid snapshot plus one log tail, not a whole-log replay.
//
// One log is one poisoning latch: the first write the disk refuses
// fails every later one, so a settle whose decision record was refused
// cannot go on to persist the put behind it — after a reopen the
// replica can tell from its own state that the option never took
// effect here, and applies it once when its visibility comes again.
// What one latch does not close: a settle is still two records, the
// decision and then its put, so a disk that takes the first and
// refuses the second leaves a decision without its effect. Writing a
// settle as one record would close that; a sweep that fails the k-th
// append of a recorded run, for every k, is the test that finds it.
//
// Paxos promises and unresolved votes are deliberately volatile, as
// in the rest of this codebase's durability model: a restarted
// acceptor rejoins with an empty cstruct and catches up through
// Phase 1, the dangling-option sweep, and the anti-entropy every
// deployment runs. So are the peer summaries a long decided log keeps:
// a restarted node learns them again from its peers, and until then
// it only releases nothing.
//
// What is persisted is persisted before anything that depends on it
// is said: records are written synchronously inside the handler
// (storePut, appendOplog), a handler's messages only leave when its
// dispatch returns (StorageNode.leave), and a dispatch in which a write
// was refused emits nothing at all — see degrade.

// ErrDurability is the typed error a storage node degrades with when
// its disk refuses a write (WAL append, fsync, store put): the node
// halts — it must never acknowledge state it could not persist — and
// serves again only after its durable state is reopened (the operator
// replaced the disk). Quorum replication carries the keyspace
// meanwhile.
var ErrDurability = errors.New("mdcc/core: durability failure, node degraded")

// oplogEntry is one decision record: either one decision — the
// record's key plus the decision body the in-memory decided log's
// entry expands to (the executed update's contents when known, so a
// restarted node can still graft its own applies onto diverged peers'
// bases — see adoptBase; KeySeq, so replay rebuilds the record's
// summary exactly) — or a lineage-summary snapshot (written on every
// base adoption, whose wholesale summary union has no per-decision
// records to replay). Checkpoint snapshots serialize each record's
// decided log in this same shape, so restoring a snapshot reuses the
// replay machinery unchanged. No settle time is persisted: a replayed
// log's retention clock starts at the replay (decidedIndex.at).
type oplogEntry struct {
	Key record.Key
	// Decision is the decision body (string Tx | u8 Decision | uvarint
	// KeySeq | bool HasUp | [Update]); unused in a summary snapshot.
	Decision []byte
	// Snapshot, when non-nil, makes this a summary-snapshot record.
	Snapshot *LineageSummary
}

// DurableOptions configures a node's durable state: the options of its
// one log (NoSync also skips the checkpoint snapshots' fsyncs).
type DurableOptions = wal.Options

// ReplayStats describes one recovery: what it started from and how
// much log it had to replay. The recovery bound rests on Tail staying
// O(writes since the last checkpoint), not O(writes ever).
type ReplayStats struct {
	// UsedSnapshot is true when recovery seeded from a checkpoint,
	// false when no snapshot existed and the whole log replayed.
	UsedSnapshot bool
	// SnapshotSeq is the snapshot recovered from; FellBack is true
	// when the newest snapshot was corrupt and an older one was used.
	SnapshotSeq int
	FellBack    bool
	// Tail is the records replayed beyond the snapshot's cut.
	Tail int64
	// Duration is the wall-clock time OpenDurableOpts spent.
	Duration time.Duration
}

// snapshotState is a checkpoint's decoded payload: the full kv
// state (values, versions, escrow bases — tombstones included), every
// record's lineage summary and decided cache in oplog-replay shape,
// and the log cut the snapshot covers.
type snapshotState struct {
	Cut   int
	KV    []kv.Entry
	Oplog []oplogEntry
}

// DurableState is a storage node's on-disk state, opened before the
// node (re)starts and handed to NewDurableStorageNode.
type DurableState struct {
	// Store is the committed record store; it owns the node's log.
	Store *kv.Store

	decided []oplogEntry // what recovery replayed; NewDurableStorageNode consumes it
	// snapRows is how many of decided's leading rows the snapshot
	// listed; the rest are the log's tail.
	snapRows int
	dir      string
	opts     DurableOptions

	snapSeq int // newest usable snapshot on disk (0 = none yet)
	lastCut int // its cut: the truncation floor for the next checkpoint
	replay  ReplayStats

	// checkpointAppends is the log's append counter at the last
	// checkpoint, so AppendsSinceCheckpoint is the snapshot-age gauge.
	checkpointAppends int64
}

// checkLayout refuses a node directory an older build wrote, before
// anything is opened in it: WAL segments at top level (the kv-only
// layout, no decision log) or store/ and oplog/ (two logs, which
// poisoned separately). Opening either would start the node empty
// beside data it silently ignores.
func checkLayout(dir string) error {
	segs, err := wal.Segments(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if len(segs) > 0 {
		return fmt.Errorf("%w: %s holds WAL segments of the kv-only layout; this build keeps node state under wal/ and snap/ and cannot read it", wal.ErrFormat, dir)
	}
	for _, sub := range []string{"store", "oplog"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); err == nil {
			return fmt.Errorf("%w: %s holds the two-log layout (store/ and oplog/); this build keeps node state under wal/ and snap/ and cannot read it", wal.ErrFormat, dir)
		}
	}
	return nil
}

// OpenDurableOpts opens (creating on first boot, replaying after a
// crash) the durable state rooted at dir. Recovery seeds from the
// newest valid checkpoint snapshot and replays only the log tail past
// its cut, falling back to the previous snapshot if the newest is
// corrupt; with no snapshot it replays the whole log (first boot, or
// checkpointing disabled). If snapshots exist but none is usable the
// node's state is gone — the error wraps wal.ErrCorrupt so the
// operator (or harness) can rebuild the replica from its quorum. A
// directory in an older layout (checkLayout), or a snapshot or log
// record that is intact but not in this build's disk format (a
// directory written with gob by an older build), refuses the open with
// wal.ErrFormat before anything is applied; there is no fallback past
// it, because an older snapshot would be older state in the same
// unreadable format.
func OpenDurableOpts(dir string, o DurableOptions) (*DurableState, error) {
	start := time.Now()
	if err := checkLayout(dir); err != nil {
		return nil, err
	}
	snapDir := filepath.Join(dir, "snap")
	ds := &DurableState{dir: dir, opts: o}

	seqs, err := wal.ListSnapshots(snapDir)
	if err != nil {
		return nil, err
	}
	var st *snapshotState
	// Only the newest two snapshots are retained, so only they are
	// candidates; anything older was pruned after its cut segments
	// were truncated away.
	tried := 0
	for i := len(seqs) - 1; i >= 0 && tried < 2 && st == nil; i, tried = i-1, tried+1 {
		payload, rerr := wal.ReadSnapshot(snapDir, seqs[i])
		if rerr != nil {
			ds.replay.FellBack = true
			continue
		}
		cand, derr := decodeSnapshot(payload)
		if derr != nil {
			return nil, fmt.Errorf("core: snapshot %d in %s: %w", seqs[i], snapDir, derr)
		}
		st = cand
		ds.snapSeq = seqs[i]
		// Snapshots newer than the one that validated are proven
		// corrupt: remove them so pruning can never prefer them over
		// good ones.
		for j := i + 1; j < len(seqs); j++ {
			if rmerr := wal.RemoveSnapshot(snapDir, seqs[j]); rmerr != nil {
				return nil, rmerr
			}
		}
	}
	if len(seqs) > 0 && st == nil {
		return nil, fmt.Errorf("core: no usable checkpoint snapshot in %s (newest seq %d): %w",
			snapDir, seqs[len(seqs)-1], wal.ErrCorrupt)
	}

	var seed []kv.Entry
	if st != nil {
		seed = st.KV
		ds.lastCut = st.Cut
		ds.decided = append(ds.decided, st.Oplog...)
		ds.snapRows = len(st.Oplog)
		ds.replay.UsedSnapshot = true
		ds.replay.SnapshotSeq = ds.snapSeq
	} else {
		ds.replay.FellBack = false
	}

	store, err := kv.OpenWith(filepath.Join(dir, "wal"), o, seed, ds.lastCut, func(payload []byte) error {
		e, derr := decodeOplogRecord(payload)
		if derr != nil {
			return fmt.Errorf("core: replay: %w", derr)
		}
		ds.decided = append(ds.decided, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.Store = store
	ds.replay.Tail = store.Replayed()
	ds.replay.Duration = time.Since(start)
	// The appends-since-checkpoint gauge must count the tail this open
	// just replayed: those records sit past the snapshot cut on disk, so
	// a crash right now would replay them again. Appends() restarts at
	// zero per incarnation; backdating the baseline folds the tail in.
	ds.checkpointAppends = -ds.replay.Tail
	return ds, nil
}

// Checkpoint writes a full-state snapshot (the caller serializes its
// record state into oplogState; kv entries are read here) and
// truncates log segments the previous snapshot covers. The last two
// snapshots are kept: recovery may fall back one, and the log retains
// everything from the older one's cut, so the fallback always has its
// tail. Crashing between any two steps is safe — replaying a tail
// that overlaps a snapshot is idempotent (kv puts are last-write-wins
// in log order, summary unions are monotone, and a tail decision
// record whose option the summary already holds is skipped).
func (ds *DurableState) Checkpoint(oplogState []oplogEntry) error {
	log := ds.Store.Log()
	cut, err := log.Cut()
	if err != nil {
		return err
	}
	payload := appendSnapshot(nil, cut, ds.Store.AppendEntries, oplogState)
	snapDir := filepath.Join(ds.dir, "snap")
	seq := ds.snapSeq + 1
	if err := wal.WriteSnapshot(snapDir, seq, payload, ds.opts.NoSync); err != nil {
		return err
	}
	// Truncate below the *previous* snapshot's cut, never this one's:
	// if this snapshot later reads corrupt, recovery falls back to the
	// previous and needs the log from its cut on.
	floor := ds.lastCut
	ds.snapSeq = seq
	ds.lastCut = cut
	ds.checkpointAppends = log.Appends()
	if err := log.TruncateBefore(floor); err != nil {
		return err
	}
	return wal.PruneSnapshots(snapDir, 2)
}

// AppendsSinceCheckpoint is the snapshot-age gauge: WAL records
// written since the last checkpoint (what a crash right now would
// have to tail-replay). After a restart it counts from the recovery
// point.
func (ds *DurableState) AppendsSinceCheckpoint() int64 {
	return ds.Store.Log().Appends() - ds.checkpointAppends
}

// Close releases the log (call when the node crashes or shuts down).
func (ds *DurableState) Close() error { return ds.Store.Close() }

// NewDurableStorageNode builds a storage node whose committed store
// and decision log live in ds, seeding the per-record decided logs
// from the snapshot-plus-tail decisions recovery produced. Registering
// the handler replaces any previous incarnation's registration on the
// network.
func NewDurableStorageNode(id transport.NodeID, dc topology.DC, net transport.Network,
	cl *topology.Cluster, cfg Config, ds *DurableState) *StorageNode {
	n := NewStorageNode(id, dc, net, cl, cfg, ds.Store)
	n.durable = ds
	for i, e := range ds.decided {
		r := n.rs(e.Key)
		was := r.decided.footprint()
		if e.Snapshot != nil {
			// A base adoption's summary snapshot: union in replay order
			// (summaries are monotone, so the final union matches the
			// pre-crash state exactly, in lockstep with the store's
			// replayed value).
			r.decided.tail().union(&n.lanes, *e.Snapshot)
			r.decided.noteKindFromSummary()
		} else {
			r.decided.replay(&n.lanes, e.Key, n.net.Now().UnixNano(), e.Decision, i >= ds.snapRows)
		}
		n.meter(r, was)
	}
	// Seeded: the replay list would otherwise stay resident, a second
	// copy of every decided log, for as long as the state is open.
	ds.decided = nil
	n.scheduleCheckpoint()
	return n
}

// Halt makes this incarnation inert: its handler ignores every
// message and its periodic timers stop rescheduling. Used when a node
// is crashed so the dead instance cannot race a restarted one (the
// simulator also purges its queued events; Halt is the
// transport-independent guarantee).
func (n *StorageNode) Halt() { n.halted = true }

// degrade latches the node's first durability failure and halts the
// node: it must never acknowledge a write its disk refused. The
// dispatch the failure happened in emits nothing — leave drops every
// message and dirty feed key it staged, those staged before the failure
// included, so nothing unsynced leaves the node — and no later envelope
// or timer is admitted (enter). The failure is surfaced typed via
// DurabilityError; the harness/operator crashes the node, replaces the
// disk, and restarts it from its durable state.
func (n *StorageNode) degrade(err error) {
	if n.degraded != nil {
		return
	}
	n.degraded = fmt.Errorf("%w: %v", ErrDurability, err)
	n.m.DurabilityFailures++
	n.halted = true
}

// DurabilityError reports the typed failure a degraded node latched
// (nil while healthy). A non-nil value means the node has halted and
// needs its durable state reopened.
func (n *StorageNode) DurabilityError() error { return n.degraded }

// logDecision persists the decision body of opt settled as d, if this
// node is durable. A refused append degrades the node (see degrade) —
// the historical behavior of swallowing the error silently lost
// durability while continuing to acknowledge writes.
func (n *StorageNode) logDecision(key record.Key, d Decision, opt Option) {
	if n.durable == nil {
		return
	}
	var scratch [256]byte // on the stack; covers all but blob-carrying updates
	n.appendOplog(&oplogEntry{Key: key, Decision: appendDecision(scratch[:0], opt.Tx, d, opt.KeySeq, &opt.Update)})
}

// logLineage persists a record's lineage summary snapshot. Written on
// every base adoption: the adopted union has no per-decision records
// to replay, so without the snapshot a restarted replica's rebuilt
// summary would miss everything it learned wholesale from peers —
// and its value (replayed exactly from the same log) would claim
// applies its summary could not account for.
func (n *StorageNode) logLineage(key record.Key, r *recState) {
	if n.durable == nil {
		return
	}
	s := r.decided.summary().unpack(&n.lanes)
	n.appendOplog(&oplogEntry{Key: key, Snapshot: &s})
}

// appendOplog encodes e into the node's log at once (nothing of e is
// kept), degrading the node if the log refuses it.
func (n *StorageNode) appendOplog(e *oplogEntry) {
	if err := n.store.Append(appendOplogEntry([]byte{oplogFormat}, e)); err != nil {
		n.degrade(err)
	}
}

// storePut writes committed state, degrading the node on a refused
// put: committed state the disk did not take must not be served or
// fed to subscribers as if durable.
func (n *StorageNode) storePut(key record.Key, val record.Encoded, ver record.Version) {
	if err := n.store.PutEncoded(key, val, ver); err != nil {
		n.degrade(err)
	}
}
