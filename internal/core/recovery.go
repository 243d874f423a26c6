package core

import (
	"mdcc/internal/record"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// Dangling-transaction recovery (§3.2.3). An app-server can die after
// its options were accepted but before sending visibility, leaving
// outstanding options that block the records forever. Every option
// carries its transaction id and the full write-set key list, so any
// storage node can reconstruct the transaction: it asks the leader of
// every written key for the final decision of that transaction's
// option on that key (forcing a classic round if undecided), then
// commits iff every option was accepted, broadcasting the visibility
// the dead coordinator never sent.

// txRecovery tracks one in-flight reconstruction.
type txRecovery struct {
	tx        TxID
	keys      []record.Key
	seqs      map[record.Key]uint64 // lineage identities from the stuck option's WriteSeqs
	decisions map[record.Key]Decision
	opts      map[record.Key]Option
	hasOpt    map[record.Key]bool
}

// scheduleSweep arms the periodic stale-option scan.
func (n *StorageNode) scheduleSweep() {
	period := n.cfg.PendingTimeout / 2
	if period <= 0 {
		period = n.cfg.PendingTimeout
	}
	n.after(period, func() {
		n.sweepPending()
		n.scheduleSweep()
	})
}

// sweepPending starts recovery for every accepted option that has
// been outstanding longer than PendingTimeout, and empties the node's
// vote free lists.
func (n *StorageNode) sweepPending() {
	now := n.net.Now().UnixNano()
	n.m.Sweeps++
	// The vote free lists are as long as the largest burst since the
	// last sweep, not as live use: give them back to the collector. The
	// records that vote next refill them, and voting reuses what they
	// put back until the next sweep.
	n.freeVotes, n.freeOpen = nil, nil
	// The store walks its records in key order, so same-seed runs send
	// their recoveries in the same order. The walk changes records
	// where they lie and calls nothing of the store (see eachRecord).
	var stale []Option
	n.eachRecord(func(k record.Key, r *recState) bool {
		n.compactDecided(k, r, true)
		o := r.open
		if o == nil || o.votes == nil {
			return true
		}
		// Release votes for options already settled here (the settle
		// arrived via a base adoption, so no visibility message ever
		// pruned them): recovering those would re-force a decision
		// that is already final.
		live := 0
		for i, v := range o.votes {
			if _, done := n.settled(r, v.Opt.Tx, v.Opt.KeySeq); done {
				continue
			}
			o.votes[live], o.votedAt[live] = v, o.votedAt[i]
			live++
		}
		n.truncateVotes(k, r, live)
		for i, v := range r.votes() {
			if v.Decision != DecAccept || now-o.votedAt[i] < int64(n.cfg.PendingTimeout) {
				continue
			}
			stale = append(stale, v.Opt)
		}
		return true
	})
	started := make(map[TxID]bool)
	for _, opt := range stale {
		if started[opt.Tx] || n.txRecoveryInFlight(opt.Tx) {
			continue
		}
		started[opt.Tx] = true
		n.startTxRecovery(opt)
	}
}

func (n *StorageNode) txRecoveryInFlight(tx TxID) bool {
	for _, rec := range n.recoveries {
		if rec.tx == tx {
			return true
		}
	}
	return false
}

// startTxRecovery reconstructs the transaction that owns opt.
func (n *StorageNode) startTxRecovery(opt Option) {
	keys := opt.WriteSet
	if len(keys) == 0 {
		keys = []record.Key{opt.Update.Key}
	}
	n.reqSeq++
	reqID := n.reqSeq
	rec := &txRecovery{
		tx:        opt.Tx,
		keys:      keys,
		seqs:      make(map[record.Key]uint64, len(keys)),
		decisions: make(map[record.Key]Decision, len(keys)),
		opts:      make(map[record.Key]Option, len(keys)),
		hasOpt:    make(map[record.Key]bool, len(keys)),
	}
	// The stuck option is this replica's own copy of its key's option:
	// a leader that answers accept without contents may have learned
	// the settle from a peer's base, or keeps no entries because the
	// record is physical, while this replica still lacks the update.
	rec.opts[opt.Update.Key], rec.hasOpt[opt.Update.Key] = opt, true
	n.recoveries[reqID] = rec
	if n.tr != nil {
		n.tr.Add(trace.Event{At: n.net.Now().UnixNano(), Tx: string(opt.Tx),
			Key: string(opt.Update.Key), Stage: trace.StageTxRecover, Arg: int64(len(keys))})
	}
	for i, k := range keys {
		m := MsgRecoverOpt{ReqID: reqID, Tx: opt.Tx, Key: k}
		// The stuck option carries its siblings' lineage identities
		// (WriteSeqs, parallel to WriteSet), so every per-key query
		// names its option exactly — leaders can then answer from
		// their summaries even after the decided-log entry aged out.
		if i < len(opt.WriteSeqs) {
			m.KeySeq = opt.WriteSeqs[i]
		}
		if k == opt.Update.Key {
			m.Opt, m.HasOpt = opt, true
			m.KeySeq = opt.KeySeq
		}
		rec.seqs[k] = m.KeySeq
		n.send(n.leaderFor(k), m)
	}
	// Garbage-collect if the leaders never all answer; the sweep will
	// retry on the next pass.
	n.after(n.cfg.OptionTimeout, func() {
		delete(n.recoveries, reqID)
	})
}

// onRecoverOpt (leader side) forces and reports the decision for one
// transaction's option on one of this leader's records.
func (n *StorageNode) onRecoverOpt(from transport.NodeID, m MsgRecoverOpt) {
	id := OptionID{Tx: m.Tx, Key: m.Key}
	r := n.rs(m.Key)
	l := n.lr(m.Key)
	e, ok := r.decided.entry(&n.lanes, m.Key, m.Tx)
	if !ok {
		e, ok = l.learned.entry(&n.lanes, m.Key, m.Tx)
	}
	if ok {
		// The reply carries what the entry retains of the option (Tx,
		// Update, KeySeq) — all the recoverer's visibility needs.
		opt, hasOpt := e.option()
		n.send(from, MsgOptDecided{
			ReqID: m.ReqID, Tx: m.Tx, Key: m.Key,
			Decision: e.Decision, Opt: opt, HasOpt: hasOpt,
		})
		return
	}
	// The lineage summary answers exactly, forever — even after the
	// decided-log entry was released, and when the settle came with a
	// peer's base. Such an answer carries no contents: the recoverer
	// sends visibility from its own copy of the option, if it has one
	// (startTxRecovery). The fiat path below would instead re-force —
	// and could contradict — a decision that was already made.
	if d, ok := n.settled(r, m.Tx, m.KeySeq); ok {
		n.send(from, MsgOptDecided{ReqID: m.ReqID, Tx: m.Tx, Key: m.Key, Decision: d})
		return
	}
	l.waiters[id] = append(l.waiters[id], optWaiter{reqID: m.ReqID, from: from, keySeq: m.KeySeq})
	if m.HasOpt {
		n.leaderPropose(m.Opt, true)
		return
	}
	// No copy of the option: run recovery; Phase 1 either surfaces it
	// from other replicas or proves it unchosen (then rejected by fiat
	// in finishPhase1).
	l.resetGamma(n.cfg)
	if !l.owned && l.phase1 == nil {
		n.startPhase1(m.Key, l)
		return
	}
	if l.inFlight(id) {
		return // already being settled by an in-flight round
	}
	if l.owned {
		// We lead the record and the option is nowhere in our cstruct:
		// it is not chosen in this ballot — but "rejected by fiat"
		// answered out-of-band is unsafe, because once the γ window
		// drains EnableFast reopens fast ballots and a late re-propose
		// could still assemble a fast quorum, leaving the recoverer
		// discarding an option whose coordinator learns it accepted.
		// Settle the rejection through the classic round itself: every
		// acceptor adopts the reject vote before fast proposals can
		// reopen, and the waiter is answered when the round learns.
		// The requester's lineage identity rides along so the settled
		// reject enters summaries and is remembered forever — without
		// it the decision would age out of the decided logs and a late
		// re-propose could be answered the opposite way.
		l.cstruct = append(l.cstruct, VotedOption{
			Opt:      Option{Tx: m.Tx, Update: record.Update{Key: m.Key}, KeySeq: m.KeySeq},
			Decision: DecReject,
		})
		n.sendPhase2a(m.Key, l)
	}
}

// onOptDecided (recovering node side) collects per-key decisions and,
// once complete, finishes the transaction exactly as its coordinator
// would have.
func (n *StorageNode) onOptDecided(m MsgOptDecided) {
	rec, ok := n.recoveries[m.ReqID]
	if !ok || rec.tx != m.Tx {
		return
	}
	if _, dup := rec.decisions[m.Key]; dup {
		return
	}
	rec.decisions[m.Key] = m.Decision
	if m.HasOpt {
		rec.opts[m.Key], rec.hasOpt[m.Key] = m.Opt, true
	}
	if len(rec.decisions) < len(rec.keys) {
		return
	}
	delete(n.recoveries, m.ReqID)
	commit := true
	for _, k := range rec.keys {
		if rec.decisions[k] != DecAccept {
			commit = false
			break
		}
	}
	for _, k := range rec.keys {
		opt, has := rec.opts[k], rec.hasOpt[k]
		if !has {
			if commit {
				// No contents to apply: the leader answered from its
				// summary, and neither it nor this replica holds the
				// option. Replicas that lack the update catch up by
				// anti-entropy.
				continue
			}
			// Abort visibility for a key whose option no replica holds:
			// carry the lineage identity so the settled reject enters
			// summaries and is remembered forever.
			opt = Option{Tx: rec.tx, Update: record.Update{Key: k}, KeySeq: rec.seqs[k]}
		}
		vis := visibilityFor(opt, commit)
		for _, rep := range n.cl.Replicas(k) {
			n.send(rep, vis)
		}
	}
}

// Metrics reports protocol counters for benchmarks and ablations.
type Metrics struct {
	VotesAccept, VotesReject int64
	Forwarded                int64
	Executed, Discarded      int64
	Phase1, Phase2           int64
	EnableFast               int64
	DemarcationRejects       int64
	Sweeps                   int64
	Synced                   int64
	// BatchEnvelopes counts gateway-coalesced transport.Batch
	// envelopes received, BatchItems the messages inside them (the
	// cross-transaction batching fan-in is BatchItems/BatchEnvelopes).
	BatchEnvelopes int64
	BatchItems     int64
	// VoteBatchEnvelopes counts acceptor→coordinator transport.Batch
	// envelopes sent, VoteBatchItems the vote messages inside them
	// (the vote-direction batching fan-in).
	VoteBatchEnvelopes int64
	VoteBatchItems     int64
	// FeedMsgs counts committed-visibility feed messages sent
	// (including keepalives), FeedItems the key states inside them.
	FeedMsgs  int64
	FeedItems int64
	// Lineage counters. Grafted counts commutative applies re-applied
	// onto adopted bases (fork merges); AdoptRefused base adoptions
	// declined because the incoming summary was missing a local
	// physical apply (convergence then flows the other way);
	// DecidedReleased decided-log entries released after all-peer
	// acknowledgement; MixedKindRejects options rejected by the
	// kind-disjoint rule. DecidedEntries and DecidedBytes are gauges:
	// the entries every record's decided log holds now, and its
	// buffers' capacity in bytes, packed summaries included. A record
	// whose class locks physical drops its entries without counting
	// them released.
	Grafted          int64
	AdoptRefused     int64
	DecidedReleased  int64
	MixedKindRejects int64
	DecidedEntries   int64
	DecidedBytes     int64
	// Shard-ring counters. ShardMoves counts completed shard bootstrap
	// walks this node ran as a move destination (AdoptShard); MovedKeys
	// the entries those walks adopted; RingEpoch is a gauge — the
	// cluster ring epoch this node currently routes under (aggregate
	// with max, not sum).
	// WrongGroupRefusals counts proposals this node refused to act on
	// because a shard move re-homed the key away from its group.
	ShardMoves         int64
	MovedKeys          int64
	RingEpoch          int64
	WrongGroupRefusals int64
	// Durable-storage counters. DurabilityFailures counts refused disk
	// writes that degraded the node (any nonzero value means the node
	// halted rather than ack unsynced state); Checkpoints the full-state
	// snapshots this incarnation wrote.
	DurabilityFailures int64
	Checkpoints        int64
}

// Add accumulates another node's snapshot into m: counters sum, the
// RingEpoch gauge takes the max.
func (m *Metrics) Add(o Metrics) {
	m.VotesAccept += o.VotesAccept
	m.VotesReject += o.VotesReject
	m.Forwarded += o.Forwarded
	m.Executed += o.Executed
	m.Discarded += o.Discarded
	m.Phase1 += o.Phase1
	m.Phase2 += o.Phase2
	m.EnableFast += o.EnableFast
	m.DemarcationRejects += o.DemarcationRejects
	m.Sweeps += o.Sweeps
	m.Synced += o.Synced
	m.BatchEnvelopes += o.BatchEnvelopes
	m.BatchItems += o.BatchItems
	m.VoteBatchEnvelopes += o.VoteBatchEnvelopes
	m.VoteBatchItems += o.VoteBatchItems
	m.FeedMsgs += o.FeedMsgs
	m.FeedItems += o.FeedItems
	m.Grafted += o.Grafted
	m.AdoptRefused += o.AdoptRefused
	m.DecidedReleased += o.DecidedReleased
	m.MixedKindRejects += o.MixedKindRejects
	m.DecidedEntries += o.DecidedEntries
	m.DecidedBytes += o.DecidedBytes
	m.ShardMoves += o.ShardMoves
	m.MovedKeys += o.MovedKeys
	m.WrongGroupRefusals += o.WrongGroupRefusals
	m.DurabilityFailures += o.DurabilityFailures
	m.Checkpoints += o.Checkpoints
	m.RingEpoch = max(m.RingEpoch, o.RingEpoch)
}

// Metrics returns a snapshot of this node's counters.
func (n *StorageNode) Metrics() Metrics {
	m := n.m
	m.RingEpoch = int64(n.cl.Ring().Epoch())
	return m
}
