package core

import (
	"slices"
	"time"

	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// leaderRec is the master-role state for one record on the node that
// acts (or is asked to act) as its leader. In Multi mode the
// designated master owns classic ballot 1 implicitly — the
// Multi-Paxos mastership reservation over all instances (§3.1.2) —
// and skips Phase 1. Otherwise leadership is acquired on demand for
// collision/timeout recovery (§3.3.1).
type leaderRec struct {
	ballot paxos.Ballot
	owned  bool
	phase1 *phase1Ctx

	seq   uint64
	props map[uint64]*proposalCtx

	// cstruct mirrors the unresolved options of the owned ballot;
	// every Phase2a ships the full cstruct so replicas stay identical.
	cstruct []VotedOption

	// learned records Paxos decisions this leader made (distinct from
	// the acceptor's decided log, which records execution outcomes),
	// packed against the same node lane table: its summary answers
	// known for every one, its entries keep contents for recovery
	// waiters until trim drops them.
	learned decidedLog

	// classicLeft counts learned instances until fast ballots are
	// re-enabled (the γ fast-policy, §3.3.2). -1 means "classic
	// forever" (Multi mode).
	classicLeft int

	queue   []Option
	waiters map[OptionID][]optWaiter
}

type phase1Ctx struct {
	ballot  paxos.Ballot
	replies map[transport.NodeID]MsgPhase1b
}

type proposalCtx struct {
	ballot   paxos.Ballot
	snapshot []VotedOption
	acks     map[transport.NodeID]bool
	done     bool
}

// optWaiter is a dangling-transaction recovery request awaiting this
// leader's decision on one option. keySeq carries the queried
// option's lineage identity so the waiter can be answered exactly from
// a summary.
type optWaiter struct {
	reqID  uint64
	from   transport.NodeID
	keySeq uint64
}

// lr returns (creating lazily) the leader state for a key.
func (n *StorageNode) lr(key record.Key) *leaderRec {
	l, ok := n.ldrs[key]
	if !ok {
		l = &leaderRec{
			props:       make(map[uint64]*proposalCtx),
			waiters:     make(map[OptionID][]optWaiter),
			classicLeft: n.cfg.Gamma,
		}
		if n.cfg.Mode == ModeMulti {
			if n.leaderFor(key) == n.id {
				l.owned = true
				l.ballot = paxos.Classic(1, string(n.id))
			}
			l.classicLeft = -1
		}
		n.ldrs[key] = l
	}
	return l
}

// onStartRecovery handles a coordinator's collision/timeout recovery
// request: take (or retake) leadership classically and force every
// unresolved option — including the requester's, which it attaches so
// the option cannot be lost even if no acceptor remembers it.
func (n *StorageNode) onStartRecovery(m MsgStartRecovery) {
	if m.HasOpt {
		n.leaderPropose(m.Opt, true)
		return
	}
	l := n.lr(m.Key)
	l.resetGamma(n.cfg)
	if !l.owned && l.phase1 == nil {
		n.startPhase1(m.Key, l)
	}
}

// leaderPropose runs an option through a classic ballot this node
// leads. recovery marks collision recovery, which (re)opens the γ
// classic window. An option that is not well formed is refused here,
// before it touches any state.
func (n *StorageNode) leaderPropose(opt Option, recovery bool) {
	if !opt.wellFormed() {
		return
	}
	key := opt.Update.Key
	id := opt.ID()
	row := n.row(key)
	r := row.r
	l := n.lr(key)

	if recovery {
		l.resetGamma(n.cfg)
	}

	// Already settled? Answer immediately.
	if d, ok := n.known(r, l, id.Tx, opt.KeySeq); ok {
		n.notifyLearned(opt.Coord, id, d, ReasonNone, opt.Update.Kind == record.KindCommutative)
		n.resolveWaiters(l, id, d)
		return
	}
	// Ring fence: a shard move re-homed the key and this node's group
	// no longer owns it. Leading a classic round here — even one the γ
	// window says we still "own" — would decide options against a stale
	// base while the key's new replica group decides independently.
	// Tell the coordinator to re-route under the current ring.
	if !n.owns(key) {
		n.m.WrongGroupRefusals++
		n.send(opt.Coord, MsgVoteBatch{Votes: []MsgVote{{OptID: id, WrongGroup: true}}})
		return
	}

	// Already in flight (duplicate propose / concurrent recovery)?
	if l.inFlight(id) {
		return
	}

	if !l.owned {
		l.queue = append(l.queue, opt)
		if l.phase1 == nil {
			n.startPhase1(key, l)
		}
		return
	}

	dec, reason := n.evalOption(row, l.cstruct, opt, false)
	l.cstruct = append(l.cstruct, VotedOption{Opt: opt, Decision: dec, Reason: reason})
	n.sendPhase2a(key, l)
}

// known is settled plus what this leader learned: the answer to "has
// this option been decided?" on the leader's side, from summaries
// alone.
func (n *StorageNode) known(r *recState, l *leaderRec, tx TxID, keySeq uint64) (Decision, bool) {
	if d, ok := n.settled(r, tx, keySeq); ok {
		return d, true
	}
	return l.learned.decision(&n.lanes, tx, keySeq)
}

// inFlight reports whether id's option is in the leader's cstruct or
// queue.
func (l *leaderRec) inFlight(id OptionID) bool {
	return optIndex(l.cstruct, id) >= 0 || slices.IndexFunc(l.queue, func(q Option) bool { return q.ID() == id }) >= 0
}

// decision answers from the Phase1b replies' summaries, asked in
// froms' order.
func (p1 *phase1Ctx) decision(froms []transport.NodeID, tx TxID, keySeq uint64) (Decision, bool) {
	lane := laneOf(tx)
	for _, from := range froms {
		if d, ok := p1.replies[from].Lineage.Decision(lane, keySeq); ok {
			return d, true
		}
	}
	return DecUnknown, false
}

// resetGamma (re)opens the classic window after a collision.
func (l *leaderRec) resetGamma(cfg Config) {
	if cfg.Mode == ModeMulti {
		return // always classic anyway
	}
	if g := cfg.Gamma; l.classicLeft < g {
		l.classicLeft = g
	}
}

// startPhase1 opens a new classic ballot above everything this node
// has seen for the record.
func (n *StorageNode) startPhase1(key record.Key, l *leaderRec) {
	// Ring fence: never campaign for a key this group no longer owns.
	// Queued options are dropped; their coordinators' option timers
	// recover them through the key's current replica group.
	if !n.owns(key) {
		l.queue = nil
		return
	}
	base := l.ballot
	if promised, _ := n.ballots(key, n.rs(key)); base.Less(promised) {
		base = promised
	}
	ballot := base.Next(string(n.id))
	p1 := &phase1Ctx{ballot: ballot, replies: make(map[transport.NodeID]MsgPhase1b)}
	l.phase1 = p1
	if n.tr != nil {
		// Node-scoped (tx-less) event: the ballot takeover serves every
		// queued option on the record; timelines pick it up by key.
		n.tr.Add(trace.Event{At: n.net.Now().UnixNano(), Key: string(key),
			Stage: trace.StagePhase1, Arg: int64(len(l.queue))})
	}
	n.sendPhase1a(key, p1)
}

// sendPhase1a asks every replica that has not answered p1 yet, and
// asks again while p1 is open: an attempt whose Phase1a or Phase1b
// messages were lost would otherwise hold the record's leadership, and
// every option queued behind it, for good.
func (n *StorageNode) sendPhase1a(key record.Key, p1 *phase1Ctx) {
	for _, rep := range n.cl.Replicas(key) {
		if _, ok := p1.replies[rep]; !ok {
			n.send(rep, MsgPhase1a{Key: key, Ballot: p1.ballot})
		}
	}
	n.after(n.cfg.RecoveryRetry, func() {
		if n.lr(key).phase1 == p1 {
			n.sendPhase1a(key, p1)
		}
	})
}

// onPhase1b collects promises. A higher promise in the reply means
// another leader outranks us: back off briefly and retry higher.
func (n *StorageNode) onPhase1b(from transport.NodeID, m MsgPhase1b) {
	l := n.lr(m.Key)
	p1 := l.phase1
	if p1 == nil {
		return
	}
	if p1.ballot.Less(m.Ballot) {
		// Preempted. Retry above the observed ballot after a beat.
		l.phase1 = nil
		key := m.Key
		seen := m.Ballot
		n.after(50*time.Millisecond, func() {
			l2 := n.lr(key)
			if l2.owned || l2.phase1 != nil {
				return
			}
			n.promise(key, n.rs(key), seen)
			if len(l2.queue) > 0 || len(l2.waiters) > 0 {
				n.startPhase1(key, l2)
			}
		})
		return
	}
	if m.Ballot.Cmp(p1.ballot) != 0 {
		return // stale reply for an older attempt
	}
	p1.replies[from] = m
	if len(p1.replies) < n.q.Classic {
		return
	}
	n.finishPhase1(m.Key, l, p1)
}

// finishPhase1 is the Generalized Paxos ProvedSafe step (algorithm 2
// lines 49-57), adapted to options: adopt the freshest committed
// base, carry forward every decision that may already have been
// chosen by a fast quorum, re-evaluate the rest deterministically,
// and propose the combined cstruct in the new ballot.
func (n *StorageNode) finishPhase1(key record.Key, l *leaderRec, p1 *phase1Ctx) {
	l.phase1 = nil
	l.owned = true
	l.ballot = p1.ballot

	// Adopt the freshest committed state among the quorum (a lagging
	// leader must not re-evaluate against stale data; Phase2a then
	// pushes this base to lagging replicas). Only the single freshest
	// reply is adopted, with its lineage summary: adoptBase merges via
	// summary diff, grafting this replica's own applies the incoming
	// base is missing. Every reply also feeds the peer-ack ledger.
	row := n.row(key)
	r, localVer := row.r, row.ver
	// Deterministic reply order (ties on Version must not depend on
	// map iteration).
	froms := make([]transport.NodeID, 0, len(p1.replies))
	for from := range p1.replies {
		froms = append(froms, from)
	}
	slices.Sort(froms)
	var freshest *MsgPhase1b
	for _, from := range froms {
		rep := p1.replies[from]
		n.notePeerLineage(r, from, rep.Lineage)
		if rep.Version > localVer && (freshest == nil || rep.Version > freshest.Version) {
			freshest = &rep
		}
	}
	if freshest != nil {
		n.adoptBase(key, freshest.Value, freshest.Version, freshest.Lineage)
	}

	// Gather votes.
	type tally struct {
		opt        Option
		accepts    int      // fast-ballot accept votes
		rejects    int      // fast-ballot reject votes
		carried    bool     // present in the highest classic cstruct
		carriedDec Decision // its decision there
	}
	tallies := make(map[OptionID]*tally)
	get := func(opt Option) *tally {
		t, ok := tallies[opt.ID()]
		if !ok {
			t = &tally{opt: opt}
			tallies[opt.ID()] = t
		} else if t.opt.Update.Kind == 0 {
			// Entry was created from a decided log (no contents); a
			// vote carries the full option — backfill so downstream
			// consumers see the contents regardless of reply order.
			t.opt = opt
		}
		return t
	}
	responded := len(p1.replies)
	// Classic Paxos value selection: votes accepted in a classic
	// ballot are a leader-built cstruct replicated verbatim, so the
	// cstruct at the HIGHEST accepted classic ballot among the replies
	// must be adopted as-is — even if only one responder reports it (a
	// competing leader's Phase2a may have reached just one member of
	// our quorum, yet completed a full quorum elsewhere and been
	// learned). Counting classic votes against the fast-quorum
	// threshold instead lets two overlapping classic rounds decide
	// conflicting options — observed as two acknowledged commits
	// sharing one read version. Fast-ballot votes keep the Fast Paxos
	// possibly-chosen analysis below.
	var maxClassic paxos.Ballot
	haveClassic := false
	for _, from := range froms {
		rep := p1.replies[from]
		if !rep.Bal.Fast && (!haveClassic || maxClassic.Less(rep.Bal)) {
			maxClassic, haveClassic = rep.Bal, true
		}
	}
	for _, from := range froms {
		rep := p1.replies[from]
		atMax := haveClassic && !rep.Bal.Fast && rep.Bal.Cmp(maxClassic) == 0
		for _, v := range rep.Votes {
			t := get(v.Opt)
			switch {
			case atMax:
				t.carried, t.carriedDec = true, v.Decision
			case rep.Bal.Fast:
				if v.Decision == DecAccept {
					t.accepts++
				} else {
					t.rejects++
				}
			}
			// A vote of a superseded lower classic ballot was never (and
			// can no longer be) chosen: the option is re-evaluated freshly
			// below so it is not silently lost.
		}
	}
	// settled asks the local record, then every reply's summary, so an
	// option settled long before any retention window still answers
	// exactly.
	settled := func(id OptionID, keySeq uint64) (Decision, bool) {
		if d, ok := n.settled(r, id.Tx, keySeq); ok {
			return d, true
		}
		return p1.decision(froms, id.Tx, keySeq)
	}

	// First pass, in deterministic order: carry possibly-chosen
	// decisions (they may already be learned by some coordinator and
	// must survive).
	newCStruct := make([]VotedOption, 0, len(tallies))
	var free []Option
	for _, id := range sortedIDs(tallies) {
		t := tallies[id]
		if d, ok := settled(id, t.opt.KeySeq); ok {
			// Settled (executed/discarded) at some replica: nothing to
			// carry; make sure recovery requesters hear the outcome.
			n.resolveWaiters(l, id, d)
			l.learned.learn(&n.lanes, key, d, t.opt, t.opt.Update.Kind != 0, n.net.Now())
			if t.opt.Update.Kind != 0 {
				// Some replica still holds an unresolved vote for this
				// settled option — its visibility was lost (e.g. dropped
				// crossing a partition). Re-broadcast it: replicas that
				// executed it skip idempotently, the rest apply/discard.
				// Without this, the Phase2a below wipes those votes and
				// with them the sweep trigger that would eventually have
				// recovered the update, and an acknowledged commit whose
				// effect lives only on soon-to-be-overwritten stale
				// replicas is lost for good.
				vis := visibilityFor(t.opt, d == DecAccept)
				for _, rep := range n.cl.Replicas(key) {
					n.send(rep, vis)
				}
			}
			continue
		}
		switch {
		case t.carried:
			newCStruct = append(newCStruct, VotedOption{Opt: t.opt, Decision: t.carriedDec})
		case n.q.PossiblyChosen(t.accepts, responded):
			newCStruct = append(newCStruct, VotedOption{Opt: t.opt, Decision: DecAccept})
		case n.q.PossiblyChosen(t.rejects, responded):
			newCStruct = append(newCStruct, VotedOption{Opt: t.opt, Decision: DecReject})
		default:
			free = append(free, t.opt)
		}
	}
	// Queued proposals that surfaced nowhere else are free options,
	// unless already decided: one a base adoption settled while it
	// waited, evaluated again against that base, could be decided the
	// other way. Its coordinator hears the decision instead.
	for _, q := range l.queue {
		if _, ok := tallies[q.ID()]; ok {
			continue
		}
		if d, done := n.known(r, l, q.Tx, q.KeySeq); done {
			n.notifyLearned(q.Coord, q.ID(), d, ReasonNone, q.Update.Kind == record.KindCommutative)
		} else {
			free = append(free, q)
		}
	}
	l.queue = nil

	// Second pass: evaluate free options in order against the carried
	// set — deterministic, so every replica adopting this cstruct
	// agrees (the paper's requirement that all storage nodes make the
	// same decision).
	slices.SortFunc(free, func(a, b Option) int { return a.ID().compare(b.ID()) })
	row = n.row(key) // the adoption above may have moved the store
	for _, opt := range free {
		dec, reason := n.evalOption(row, newCStruct, opt, false)
		newCStruct = append(newCStruct, VotedOption{Opt: opt, Decision: dec, Reason: reason})
	}

	l.cstruct = newCStruct
	// Recovery requests for options that vanished entirely: nobody
	// voted for them and the requester had no copy — not chosen up to
	// this ballot. Answering "rejected" out-of-band would be unsafe
	// (a later fast ballot could still choose them; see onRecoverOpt),
	// so the rejection is settled through this round's cstruct and the
	// waiters are answered when it learns. Sorted for determinism.
	for _, id := range sortedIDs(l.waiters) {
		if _, ok := tallies[id]; ok || l.inFlight(id) {
			continue
		}
		// The requester's lineage identity: every waiter on id names
		// the same one.
		keySeq := l.waiters[id][0].keySeq
		// Settled knowledge first: the local log/summary or any reply's
		// summary may know the outcome of an option that has no votes
		// left anywhere (settled and fully pruned). Answering from it
		// is exact; the fiat-reject below is only for options that
		// provably never settled up to this ballot.
		if d, ok := settled(id, keySeq); ok {
			n.resolveWaiters(l, id, d)
			continue
		}
		// Stamp the requester's lineage identity onto the fiat reject
		// so the settled decision enters summaries and outlives every
		// cache (see onRecoverOpt).
		l.cstruct = append(l.cstruct, VotedOption{
			Opt:      Option{Tx: id.Tx, Update: record.Update{Key: id.Key}, KeySeq: keySeq},
			Decision: DecReject,
		})
	}

	if len(l.cstruct) > 0 {
		n.sendPhase2a(key, l)
	} else {
		n.maybeEnableFast(key, l)
	}
}

// sendPhase2a broadcasts the full current cstruct with the leader's
// committed base piggybacked.
func (n *StorageNode) sendPhase2a(key record.Key, l *leaderRec) {
	// Ring fence: a deposed-by-move leader must not push its cstruct at
	// the key's new replica group (Replicas routes by the current ring,
	// so the Phase2a would land there and be adopted verbatim).
	if !n.owns(key) {
		l.owned = false
		l.cstruct = nil
		return
	}
	l.seq++
	snap := append([]VotedOption(nil), l.cstruct...)
	l.props[l.seq] = &proposalCtx{
		ballot:   l.ballot,
		snapshot: snap,
		acks:     make(map[transport.NodeID]bool),
	}
	// Snapshot the leader's lineage summary together with its base:
	// the base contains exactly these options' effects (same handler
	// context, so store and summary are mutually consistent).
	row := n.row(key)
	msg := MsgPhase2a{
		Key: key, Ballot: l.ballot, Seq: l.seq, CStruct: snap,
		HasBase: true, BaseVersion: row.ver, BaseValue: row.val,
		BaseLineage: row.r.decided.summary().unpack(&n.lanes),
	}
	if n.tr != nil {
		// One event per option in the broadcast cstruct, so each
		// transaction's timeline shows its classic-ordering hop.
		at := n.net.Now().UnixNano()
		for _, v := range snap {
			n.tr.Add(trace.Event{At: at, Tx: string(v.Opt.Tx), Key: string(key),
				Stage: trace.StagePhase2a, Arg: int64(len(snap))})
		}
	}
	for _, rep := range n.cl.Replicas(key) {
		n.send(rep, msg)
	}
}

// onPhase2b counts acknowledgements; a classic quorum learns every
// option in the acknowledged snapshot.
func (n *StorageNode) onPhase2b(from transport.NodeID, m MsgPhase2b) {
	l := n.lr(m.Key)
	prop, ok := l.props[m.Seq]
	if !ok || prop.done {
		return
	}
	if !m.OK {
		// Preempted by a higher ballot: drop ownership and retry.
		delete(l.props, m.Seq)
		n.abandonLeadership(m.Key, l, m.Promised)
		return
	}
	if m.Ballot.Cmp(prop.ballot) != 0 {
		return
	}
	prop.acks[from] = true
	if len(prop.acks) < n.q.Classic {
		return
	}
	prop.done = true
	delete(l.props, m.Seq)
	r := n.rs(m.Key)
	for _, v := range prop.snapshot {
		id := v.Opt.ID()
		if _, done := l.learned.decision(&n.lanes, id.Tx, v.Opt.KeySeq); done {
			continue
		}
		// Settled here while the round was in flight (its visibility, or
		// a base adoption carrying it): that decision stands, and is the
		// one this round learns.
		d, reason := v.Decision, v.Reason
		if s, ok := n.settled(r, id.Tx, v.Opt.KeySeq); ok {
			d, reason = s, ReasonNone
		}
		l.learned.learn(&n.lanes, m.Key, d, v.Opt, true, n.net.Now())
		l.learned.trim(n.net.Now(), n.cfg.DecidedRetention)
		n.notifyLearned(v.Opt.Coord, id, d, reason,
			v.Opt.Update.Kind == record.KindCommutative)
		n.resolveWaiters(l, id, d)
		if d == DecReject {
			// Rejected options never execute; drop them from the
			// leader's cstruct now (acceptors prune on the abort
			// visibility from the coordinator).
			n.dropFromCStruct(l, id)
		}
		if l.classicLeft > 0 {
			l.classicLeft--
		}
	}
	n.maybeEnableFast(m.Key, l)
}

// abandonLeadership reacts to preemption: requeue unresolved options
// and retry Phase 1 above the observed ballot.
func (n *StorageNode) abandonLeadership(key record.Key, l *leaderRec, seen paxos.Ballot) {
	l.owned = false
	for _, v := range l.cstruct {
		l.queue = append(l.queue, v.Opt)
	}
	l.cstruct = nil
	for s := range l.props {
		delete(l.props, s)
	}
	n.promise(key, n.rs(key), seen)
	if l.phase1 == nil && (len(l.queue) > 0 || len(l.waiters) > 0) {
		n.after(50*time.Millisecond, func() {
			l2 := n.lr(key)
			if !l2.owned && l2.phase1 == nil && (len(l2.queue) > 0 || len(l2.waiters) > 0) {
				n.startPhase1(key, l2)
			}
		})
	}
}

// maybeEnableFast re-opens fast ballots once the γ classic window has
// drained and nothing is unresolved (the fast-policy probe, §3.3.2).
func (n *StorageNode) maybeEnableFast(key record.Key, l *leaderRec) {
	if n.cfg.Mode == ModeMulti || !l.owned || l.classicLeft != 0 || !n.owns(key) {
		return
	}
	for _, v := range l.cstruct {
		if _, done := l.learned.decision(&n.lanes, v.Opt.Tx, v.Opt.KeySeq); !done {
			return // proposals still in flight
		}
	}
	if len(l.props) > 0 {
		return
	}
	fast := l.ballot.NextFast()
	for _, rep := range n.cl.Replicas(key) {
		n.send(rep, MsgEnableFast{Key: key, Ballot: fast})
	}
	l.owned = false
	l.ballot = fast
	l.classicLeft = n.cfg.Gamma // next collision re-enters classic with a full window
	n.m.EnableFast++
}

// dropFromCStruct removes a settled option from the leader mirror.
func (n *StorageNode) dropFromCStruct(l *leaderRec, id OptionID) {
	if i := optIndex(l.cstruct, id); i >= 0 {
		l.cstruct = append(l.cstruct[:i], l.cstruct[i+1:]...)
	}
}

// leaderObserveVisibility prunes leader state when an option
// executes or aborts on this node.
func (n *StorageNode) leaderObserveVisibility(r *recState, opt Option) {
	key, id := opt.Update.Key, opt.ID()
	l, ok := n.ldrs[key]
	if !ok {
		return
	}
	n.dropFromCStruct(l, id)
	if d, ok := n.settled(r, id.Tx, opt.KeySeq); ok {
		n.resolveWaiters(l, id, d)
	}
	n.maybeEnableFast(key, l)
}

// notifyLearned tells a coordinator an option's decision.
// commutative selects the escrow piggyback: classic-path learns are
// the only freshness channel a record inside a γ window has (it
// produces no fast-path votes), so the leader attaches its own
// demarcation snapshot exactly as acceptors do on Phase2b votes.
func (n *StorageNode) notifyLearned(coord transport.NodeID, id OptionID, d Decision, reason RejectReason, commutative bool) {
	if coord == "" {
		return
	}
	msg := MsgLearned{OptID: id, Decision: d, Reason: reason}
	if commutative && len(n.cfg.Constraints) > 0 {
		row, _ := n.find(id.Key)
		msg.Escrow = n.escrowSnap(row, coord)
	}
	n.send(coord, msg)
}

// resolveWaiters answers dangling-recovery requests for an option.
func (n *StorageNode) resolveWaiters(l *leaderRec, id OptionID, d Decision) {
	ws, ok := l.waiters[id]
	if !ok {
		return
	}
	delete(l.waiters, id)
	opt, hasOpt := Option{}, false
	if e, found := l.learned.entry(&n.lanes, id.Key, id.Tx); found {
		opt, hasOpt = e.option()
	}
	for _, w := range ws {
		n.send(w.from, MsgOptDecided{
			ReqID: w.reqID, Tx: id.Tx, Key: id.Key, Decision: d, Opt: opt, HasOpt: hasOpt,
		})
	}
}
