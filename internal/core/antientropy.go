package core

import (
	"math/rand"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// Anti-entropy: §3.2.3 notes that after a data-center outage "only
// records which have been updated during the failure would still be
// impacted by the increased latency until the next update or a
// background process brought them up-to-date", and suggests bulk-copy
// techniques as future work. This is that background process: each
// storage node periodically walks its key space in chunks and
// exchanges committed state with the same shard's replica in another
// data center, adopting anything newer. A replica that slept through
// a failure converges without waiting for fresh writes to each record.

// MsgSyncReq asks a peer for its committed state in a key range.
type MsgSyncReq struct {
	ReqID uint64
	From  record.Key // inclusive cursor ("" = start)
	Limit int
}

// SyncEntry is one record's committed state plus its exact lineage
// summary — the compact description of every option outcome the value
// reflects. The adopter merges via summary diff (StorageNode.adoptBase),
// grafting only its own retained applies, so anti-entropy never ships
// option contents: where the old format carried the whole retention
// window with contents on every exchange of a hot record, the summary
// costs a few interval sets regardless of history length.
type SyncEntry struct {
	Key     record.Key
	Value   record.Encoded
	Version record.Version
	Lineage LineageSummary
}

// MsgSyncReply answers MsgSyncReq. Next is the cursor for the
// following chunk; empty means the key space is exhausted.
type MsgSyncReply struct {
	ReqID   uint64
	Entries []SyncEntry
	Next    record.Key
}

// syncChunkSize bounds one anti-entropy exchange.
const syncChunkSize = 128

// scheduleAntiEntropy arms the periodic sync. Called from the
// constructor when cfg.SyncInterval > 0.
func (n *StorageNode) scheduleAntiEntropy(rng *rand.Rand) {
	n.after(n.cfg.SyncInterval, func() {
		n.syncStep(rng)
		n.scheduleAntiEntropy(rng)
	})
}

// syncStep requests one chunk from a random peer replica.
func (n *StorageNode) syncStep(rng *rand.Rand) {
	peerDC := topology.DC(rng.Intn(topology.NumDCs))
	if peerDC == n.dc {
		peerDC = topology.DC((int(peerDC) + 1) % topology.NumDCs)
	}
	peer := topology.StorageID(peerDC, max(n.group, 0)) // outside the catalogue: shard 0
	n.reqSeq++
	n.send(peer, MsgSyncReq{ReqID: n.reqSeq, From: n.syncCursor, Limit: syncChunkSize})
}

// onSyncReq streams one chunk of committed state to the requester.
func (n *StorageNode) onSyncReq(from transport.NodeID, m MsgSyncReq) {
	limit := m.Limit
	if limit <= 0 || limit > 4*syncChunkSize {
		limit = syncChunkSize
	}
	reply := MsgSyncReply{ReqID: m.ReqID}
	count := 0
	n.store.Scan(m.From, "", func(e kv.Entry) bool {
		if count >= limit {
			// One more key exists: it becomes the next cursor.
			reply.Next = e.Key
			return false
		}
		count++
		reply.Entries = append(reply.Entries, SyncEntry{Key: e.Key, Value: e.Value, Version: e.Version})
		return true
	})
	// The summaries are read after the scan, which holds the store's
	// read lock.
	for i := range reply.Entries {
		if row, _ := n.find(reply.Entries[i].Key); row.r != nil {
			reply.Entries[i].Lineage = row.r.decided.summary().unpack(&n.lanes)
		}
	}
	n.send(from, reply)
}

// onSyncReply adopts one chunk of the background walk and moves its cursor.
func (n *StorageNode) onSyncReply(from transport.NodeID, m MsgSyncReply) {
	if n.pullReqs[m.ReqID] {
		// A directed shard-move pull reply (possibly late or
		// duplicated): it must never advance the background sync
		// cursor or adopt keys outside the moving slice.
		delete(n.pullReqs, m.ReqID)
		if p := n.pull; p != nil && m.ReqID == p.reqID {
			n.onPullReply(from, m)
		}
		return
	}
	n.adoptEntries(from, m.Entries, nil)
	n.syncCursor = m.Next
}

// adoptEntries takes the entries accept selects (nil = all) and returns
// how many it took. Each teaches us the peer's summary for its key (the
// ack that gates decided-log release), and one at least as new as local
// state is merged (equal versions can hide diverged lineages; adoptBase
// reconciles them via summary diff).
func (n *StorageNode) adoptEntries(from transport.NodeID, entries []SyncEntry, accept func(record.Key) bool) int {
	took := 0
	for _, e := range entries {
		if accept != nil && !accept(e.Key) {
			continue
		}
		took++
		row := n.row(e.Key)
		n.notePeerLineage(row.r, from, e.Lineage)
		if e.Version >= row.ver && n.adoptBase(e.Key, e.Value, e.Version, e.Lineage) {
			n.m.Synced++
		}
	}
	return took
}

// Shard-move bootstrap: when a live rebalance re-homes a slice of the
// keyspace onto this node's replica group, the destination replica
// adopts the slice from a source-group peer through the same
// value+version+summary exchange the background sync uses — a directed
// full-keyspace walk with its own request ids and cursor, filtered to
// the moving keys on receipt. Because summaries are exact and
// retention-free (PR 5), a shard bootstraps in O(keys × lanes) bytes
// with no history shipping, and any residue the source settles after
// the pull reconciles through ordinary anti-entropy among the new
// owner group's replicas.

// shardPull is one in-flight directed bootstrap.
type shardPull struct {
	src     transport.NodeID
	accept  func(record.Key) bool
	done    func(adopted int)
	reqID   uint64
	cursor  record.Key
	adopted int
}

// AdoptShard walks src's committed keyspace and adopts every entry
// accept selects (the keys the staged ring re-homes onto this node's
// group). done fires with the adopted-entry count when the walk
// completes. Chunks lost to the network are re-requested on a timer,
// so a pull survives drops and partitions; a pull already in flight
// makes AdoptShard a no-op (the mover re-invokes on fresh node
// incarnations after crashes, not on live ones).
func (n *StorageNode) AdoptShard(src transport.NodeID, accept func(record.Key) bool, done func(adopted int)) {
	if n.pull != nil || !n.enter() {
		return
	}
	n.pull = &shardPull{src: src, accept: accept, done: done}
	n.pullStep()
	n.leave()
}

// pullStep requests the next chunk of the directed walk and arms its
// retry.
func (n *StorageNode) pullStep() {
	p := n.pull
	n.reqSeq++
	p.reqID = n.reqSeq
	if n.pullReqs == nil {
		n.pullReqs = make(map[uint64]bool)
	}
	n.pullReqs[p.reqID] = true
	n.send(p.src, MsgSyncReq{ReqID: p.reqID, From: p.cursor, Limit: syncChunkSize})
	retry := 2 * n.cfg.SyncInterval
	if retry <= 0 {
		retry = 2 * time.Second
	}
	reqID := p.reqID
	n.after(retry, func() {
		// Still waiting on the same chunk: the request or its reply
		// was lost — re-issue under a fresh id.
		if n.pull != p || p.reqID != reqID {
			return
		}
		delete(n.pullReqs, reqID)
		n.pullStep()
	})
}

// onPullReply consumes one chunk of a directed bootstrap.
func (n *StorageNode) onPullReply(from transport.NodeID, m MsgSyncReply) {
	p := n.pull
	p.adopted += n.adoptEntries(from, m.Entries, p.accept)
	if m.Next == "" {
		n.pull = nil
		n.pullReqs = nil
		n.m.ShardMoves++
		n.m.MovedKeys += int64(p.adopted)
		if p.done != nil {
			p.done(p.adopted)
		}
		return
	}
	p.cursor = m.Next
	n.pullStep()
}

// Unsettled counts the accepted-but-undecided option votes this node
// holds on keys sel selects (nil = all keys) — the shard mover's drain
// gate: a moving slice is safe to bootstrap only when no live source
// replica still holds an open option on it, because every decided
// option's effect has then been applied to the committed state the
// bootstrap ships.
func (n *StorageNode) Unsettled(sel func(record.Key) bool) int {
	if n.halted {
		return 0
	}
	total := 0
	n.eachRecord(func(key record.Key, r *recState) bool {
		if sel == nil || sel(key) {
			total += len(r.votes())
		}
		return true
	})
	return total
}
