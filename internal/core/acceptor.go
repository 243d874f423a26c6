package core

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// StorageNode is one replica: the Paxos acceptor for every record it
// stores, plus the leader role for records mastered in its data
// center (masters are placed on storage nodes, §3.1.1). All methods
// run in transport handler context.
type StorageNode struct {
	id    transport.NodeID
	dc    topology.DC
	net   transport.Network
	cl    *topology.Cluster
	cfg   Config
	q     paxos.Quorum
	store *kv.Store
	// slab holds the state of every record the node has touched, and
	// the store is the node's one index of them: each such record's row
	// carries the handle of its state here (see row), a hollow row for
	// a record with nothing committed yet (kv.Store.Bind). A record is
	// never forgotten, so no handle is ever unbound, and the pending
	// sweep and the checkpoint walk the records in key order as the rows
	// lie (eachRecord).
	slab recSlab
	ldrs map[record.Key]*leaderRec
	tr   *trace.Ring // flight-recorder ring, nil when tracing is off
	// freeVotes holds the vote arrays of records whose last unresolved
	// vote settled, for the next record that votes (see takeVoteSlots);
	// freeOpen the open parts of records that went back to rest, for the
	// next record that needs one (see opened).
	freeVotes []voteSlots
	freeOpen  []*recOpen
	// lanes numbers the coordinator lanes of every record's packed
	// lineage summary.
	lanes laneTable

	reqSeq     uint64
	recoveries map[uint64]*txRecovery
	syncCursor record.Key
	halted     bool

	// Durable-storage engine state (restart.go / checkpoint.go):
	// durable is non-nil for nodes built via NewDurableStorageNode;
	// degraded latches the first durability failure (the node halts and
	// never acks unsynced writes — see degrade).
	durable  *DurableState
	degraded error

	// Shard-move bootstrap (see AdoptShard): the in-flight directed
	// pull, and the request ids it has issued so a late or duplicated
	// pull reply can never leak into the background sync path and
	// clobber its cursor.
	pull     *shardPull
	pullReqs map[uint64]bool

	// The shell (see enter/leave): depth counts the open dispatches
	// (a Batch item's nests inside its envelope's), out holds what the
	// outermost one has staged to send, and batch is the scratch slice
	// one destination's coalesced answers are gathered into at flush.
	// Nothing is ever held across dispatches.
	depth int
	out   []staged
	batch []transport.Envelope

	// Committed-visibility feed (see feed.go): per-subscriber stream
	// state and the keys dirtied by the dispatch in progress, flushed
	// behind what it staged.
	feedSubs           map[transport.NodeID]*feedSub
	feedSubOrder       []transport.NodeID
	feedDirty          []record.Key
	feedDirtySet       map[record.Key]bool
	feedKeepAliveArmed bool
	feedFlushArmed     bool
	feedLastFlush      time.Time
	feedBoot           uint64 // publisher incarnation id (see MsgVisibilityFeed.Boot)

	// m holds the counters Metrics snapshots (its RingEpoch gauge is
	// filled in there).
	m Metrics

	// group is this node's replica-group index (its per-DC storage
	// index), -1 when the node is not in the cluster catalogue. The
	// ring fence compares it against the published shard ring's owner
	// for a key (see owns).
	group int
}

// recState is the acceptor's per-record state, 48 bytes. Every record
// the node has touched keeps its rest part, the decided log: one buffer
// holding the decided-option entries (the idempotence/merge cache) and,
// behind them, the record's packed lineage summary, beside the class
// lock (decidedLog.kind). The summary is the record's exact
// applied-option summary: the settled set whose effects the committed
// value contains (or, for physical options, contains-or-supersedes).
// It is what makes "does this base already contain apply X?"
// answerable forever — see lineage.go. The kind is the record's
// established update class (the kind-disjoint rule, DESIGN.md §5):
// locked by the first non-creating update; record-creating inserts are
// class-neutral; 0 = not yet locked. The Paxos state only a record in
// use needs is its open part, nil while each of its fields would read
// as initial (see recOpen).
type recState struct {
	decided decidedLog
	open    *recOpen
}

// recOpen is a record's Paxos state beyond its rest part. The node
// allocates it on the record's first vote or ballot change (opened)
// and takes it back when the record's last vote settles with nothing
// else in it off its initial value (truncateVotes). Absent, both
// ballots read as initialBallot(key) — the implicit fast ballot, or in
// Multi mode the master's classic ballot 1 — and everything else as
// empty.
type recOpen struct {
	promised paxos.Ballot
	accepted paxos.Ballot
	// votes holds the unresolved votes of the accepted ballot (the
	// cstruct), nil with none: the arrays belong to the node between
	// uses (takeVoteSlots, truncateVotes).
	votes []VotedOption
	// votedAt is parallel to votes: when each unresolved vote was cast
	// (UnixNano), for the dangling-transaction sweep.
	votedAt []int64
	// p2aSeq is the highest proposal sequence adopted in the accepted
	// ballot, so duplicated or reordered Phase2a messages cannot
	// regress the cstruct to an older snapshot.
	p2aSeq uint64
}

// recChunk is how many records' states one chunk of a node's recSlab
// holds: 128 × 48 B = 6 144 B, a size class of its own.
const recChunk = 128

// recSlab holds the states of every record the node has touched, in
// chunks that are appended and never move, so a *recState stays good
// for the node's life. A record's handle, bound to its row in the
// store, is its position in the slab plus one (0 names no record).
type recSlab struct {
	chunks []*[recChunk]recState
	n      uint32
}

// at returns the state with handle h, nil for 0.
func (s *recSlab) at(h uint32) *recState {
	if h == 0 {
		return nil
	}
	h--
	return &s.chunks[h/recChunk][h%recChunk]
}

// add returns the handle of a fresh record state.
func (s *recSlab) add() uint32 {
	if s.n%recChunk == 0 {
		s.chunks = append(s.chunks, new([recChunk]recState))
	}
	s.n++
	return s.n
}

// recRow is what one lookup of a key gives a handler: its committed
// value and version (nil and 0 before any commit) and its record.
type recRow struct {
	val record.Encoded
	ver record.Version
	r   *recState
}

// NewStorageNode builds a storage node bound to id and registers its
// handler on the network.
func NewStorageNode(id transport.NodeID, dc topology.DC, net transport.Network,
	cl *topology.Cluster, cfg Config, store *kv.Store) *StorageNode {
	n := &StorageNode{
		id:           id,
		dc:           dc,
		net:          net,
		cl:           cl,
		cfg:          cfg,
		q:            paxos.NewQuorum(cl.ReplicationFactor()),
		tr:           cfg.Tracer.Ring(string(id), int(dc)),
		store:        store,
		ldrs:         make(map[record.Key]*leaderRec),
		recoveries:   make(map[uint64]*txRecovery),
		feedSubs:     make(map[transport.NodeID]*feedSub),
		feedDirtySet: make(map[record.Key]bool),
		group:        -1,
	}
	if n.cfg.DecidedRetention <= 0 {
		n.cfg.DecidedRetention = defaultDecidedRetention
	}
	for _, sn := range cl.Storage {
		if sn.ID == id {
			n.group = sn.Index
			break
		}
	}
	// The feed boot id distinguishes this incarnation's stream from a
	// dead predecessor's. +1 keeps it nonzero at the simulator's zero
	// instant (consumers use 0 as "no stream consumed yet").
	n.feedBoot = transport.Incarnation(net) + 1
	net.Register(id, n.handle)
	if cfg.PendingTimeout > 0 {
		n.scheduleSweep()
	}
	if cfg.SyncInterval > 0 {
		n.scheduleAntiEntropy(rand.New(rand.NewSource(int64(fnvID(string(id))))))
	}
	return n
}

// ID returns the node's transport identity.
func (n *StorageNode) ID() transport.NodeID { return n.id }

// owns reports whether this node's replica group owns key under the
// cluster's currently-published shard ring. After a live shard move
// publishes, the old group's nodes must stop acting as acceptors and
// leaders for re-homed keys — a route minted before the move (a stale
// leader hint, a message in flight across the publish) would otherwise
// fork decision authority between the old group's copy of the record
// and the new one. Nodes outside the catalogue (group < 0) are
// unfenced.
func (n *StorageNode) owns(key record.Key) bool {
	return n.group < 0 || n.cl.Shard(key) == n.group
}

// Store exposes the committed-state store (reads, tests, tools).
func (n *StorageNode) Store() *kv.Store { return n.store }

// staged is one message a dispatch produced, held until the dispatch
// returns. coalesce marks an answer that may share an envelope with the
// dispatch's other answers to the same node (see sendCoalesced).
type staged struct {
	to       transport.NodeID
	msg      transport.Message
	coalesce bool
}

// The shell. Every way into the node — a delivered envelope (handle), a
// fired timer (after), an exported method that can send (AdoptShard) —
// runs between enter and leave, and inside it the node touches the
// network only by staging: nothing leaves the node until the dispatch
// that produced it has returned and every persist it made has
// succeeded. flush is the one function that sends and after the one
// that arms a timer (internal/audit's TestStorageNodeTouchesNetInOneShell
// holds both to that).

// enter opens a dispatch; a halted node admits none.
func (n *StorageNode) enter() bool {
	if n.halted {
		return false
	}
	n.depth++
	return true
}

// leave closes a dispatch. When the outermost one returns, a node that
// degraded or was halted inside it drops everything the dispatch
// staged — messages and dirty feed keys alike: a reply to an envelope
// whose persist the disk refused must not leave. Otherwise the staged
// messages go out, then the feed flush behind them.
func (n *StorageNode) leave() {
	n.depth--
	if n.depth > 0 {
		return
	}
	if n.halted {
		clear(n.out)
		n.out = n.out[:0]
		n.feedDirty = n.feedDirty[:0]
		clear(n.feedDirtySet)
		return
	}
	n.flush()
	n.flushFeeds() // stages one feed message per subscriber
	n.flush()
}

// send stages msg for to.
func (n *StorageNode) send(to transport.NodeID, msg transport.Message) {
	n.out = append(n.out, staged{to: to, msg: msg})
}

// sendCoalesced stages an acceptor's answer to a coordinator. The
// answers one dispatch produces for one coordinator leave as one
// transport.Batch (dispatch recurses for Batch items, so the votes of a
// whole gateway-coalesced envelope share wire messages: the §7 batching
// generalized to the vote direction, at zero added latency).
func (n *StorageNode) sendCoalesced(to transport.NodeID, msg transport.Message) {
	n.out = append(n.out, staged{to: to, msg: msg, coalesce: true})
}

// flush sends what the dispatch staged: plain messages in the order
// they were staged, then the coalesced answers, one group per
// destination in order of its first answer (FIFO within a group, so
// vote order per (acceptor, coordinator) pair is preserved). out and
// batch keep their backing arrays, so the common one-vote dispatch
// sends allocation-free.
func (n *StorageNode) flush() {
	for i := range n.out {
		if s := &n.out[i]; !s.coalesce {
			n.net.Send(n.id, s.to, s.msg)
		}
	}
	for i := range n.out {
		if !n.out[i].coalesce {
			continue
		}
		to := n.out[i].to
		for j := i; j < len(n.out); j++ {
			if s := &n.out[j]; s.coalesce && s.to == to {
				n.batch = append(n.batch, transport.Envelope{From: n.id, To: to, Msg: s.msg})
				s.coalesce = false
			}
		}
		if len(n.batch) > 1 {
			n.m.VoteBatchEnvelopes++
			n.m.VoteBatchItems += int64(len(n.batch))
		}
		n.batch = transport.SendCoalesced(n.net, n.id, to, n.batch)
	}
	clear(n.out)
	n.out = n.out[:0]
}

// after arms fn to run as a dispatch of its own in d; a node halted by
// then never runs it.
func (n *StorageNode) after(d time.Duration, fn func()) {
	n.net.After(n.id, d, func() {
		if n.enter() {
			fn()
			n.leave()
		}
	})
}

// handle dispatches every message addressed to this node.
func (n *StorageNode) handle(env transport.Envelope) {
	if n.enter() {
		n.dispatch(env)
		n.leave()
	}
}

func (n *StorageNode) dispatch(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case transport.Batch:
		// A gateway-coalesced envelope: unpack and dispatch each item
		// with its original sender (cross-transaction batching; the
		// items preserve send order).
		n.m.BatchEnvelopes++
		n.m.BatchItems += int64(len(m.Items))
		for _, item := range m.Items {
			n.handle(item)
		}
	case MsgRead:
		n.onRead(env.From, m)
	case MsgProposeBatch:
		n.onProposeBatch(m)
	case MsgVisibility:
		n.onVisibility(m)
	case MsgVisibilityBatch:
		for _, item := range m.Items {
			n.onVisibility(item)
		}
	case MsgPhase1a:
		n.onPhase1a(env.From, m)
	case MsgPhase2a:
		n.onPhase2a(env.From, m)
	case MsgEnableFast:
		n.onEnableFast(m)
	// Leader-role messages.
	case MsgProposeLeader:
		n.leaderPropose(m.Opt, false)
	case MsgStartRecovery:
		n.onStartRecovery(m)
	case MsgPhase1b:
		n.onPhase1b(env.From, m)
	case MsgPhase2b:
		n.onPhase2b(env.From, m)
	// Dangling-transaction recovery.
	case MsgRecoverOpt:
		n.onRecoverOpt(env.From, m)
	case MsgOptDecided:
		n.onOptDecided(m)
	// Committed-visibility feed (gateway read tier).
	case MsgVisibilitySub:
		n.onVisibilitySub(env.From, m)
	// Anti-entropy catch-up.
	case MsgSyncReq:
		n.onSyncReq(env.From, m)
	case MsgSyncReply:
		n.onSyncReply(env.From, m)
	}
}

// find looks key up once for its committed value and version and its
// record (nil if the node has never touched it); ok reports whether
// the key has a committed value.
func (n *StorageNode) find(key record.Key) (row recRow, ok bool) {
	val, ver, ok, h := n.store.Row(key)
	return recRow{val, ver, n.slab.at(h)}, ok
}

// row is find for a handler that needs the record: it gives the key a
// record at rest (and the store a hollow row for it, see
// kv.Store.Bind) if it has none.
func (n *StorageNode) row(key record.Key) recRow {
	row, _ := n.find(key)
	if row.r == nil {
		h := n.slab.add()
		n.store.Bind(key, h)
		row.r = n.slab.at(h)
	}
	return row
}

// rs returns (creating lazily) the record's acceptor state, at rest.
func (n *StorageNode) rs(key record.Key) *recState { return n.row(key).r }

// eachRecord calls fn for every record the node has touched, in key
// order, until fn returns false. fn must not call the store (see
// kv.Store.AscendHandles).
func (n *StorageNode) eachRecord(fn func(key record.Key, r *recState) bool) {
	n.store.AscendHandles(func(key record.Key, h uint32) bool { return fn(key, n.slab.at(h)) })
}

// ballots returns the record's promised and accepted ballots. Records
// start in the implicit fast ballot, except in Multi mode where every
// record starts owned by its stable master at classic ballot 1 (the
// Multi-Paxos mastership reservation over all instances).
func (n *StorageNode) ballots(key record.Key, r *recState) (promised, accepted paxos.Ballot) {
	if r.open == nil {
		b := n.initialBallot(key)
		return b, b
	}
	return r.open.promised, r.open.accepted
}

// opened returns the record's open part, giving it one at the initial
// ballots if it has none.
func (n *StorageNode) opened(key record.Key, r *recState) *recOpen {
	if r.open != nil {
		return r.open
	}
	var o *recOpen
	if last := len(n.freeOpen) - 1; last >= 0 {
		o, n.freeOpen[last] = n.freeOpen[last], nil
		n.freeOpen = n.freeOpen[:last]
	} else {
		o = new(recOpen)
	}
	o.promised = n.initialBallot(key)
	o.accepted = o.promised
	r.open = o
	return o
}

// promise raises the record's promised ballot to b if b is higher and
// returns the promise it then holds.
func (n *StorageNode) promise(key record.Key, r *recState, b paxos.Ballot) paxos.Ballot {
	if p, _ := n.ballots(key, r); !p.Less(b) {
		return p
	}
	n.opened(key, r).promised = b
	return b
}

// votes returns the record's unresolved votes (nil at rest).
func (r *recState) votes() []VotedOption {
	if r.open == nil {
		return nil
	}
	return r.open.votes
}

// notePeerLineage records a peer replica's summary for ack-gated
// content release on the record's decided log (decidedLog.notePeer;
// summaries are monotone per replica incarnation, so later
// observations only widen the acked set; a non-durable restart resets
// a peer's summary, but then every base that peer ever sends is one it
// adopted from the quorum, which contains everything the acked entries
// cover — release stays safe).
func (n *StorageNode) notePeerLineage(r *recState, from transport.NodeID, s LineageSummary) {
	if from != n.id {
		r.decided.notePeer(&n.lanes, from, s)
	}
}

// compactDecided releases decided-log contents that are provably
// redundant: aged past the retention cache horizon AND contained in
// every peer replica's last-known summary (so no future merge can
// need them; the summary itself keeps their settled knowledge
// forever). force skips the doubling amortization (the periodic
// sweep forces over-limit logs so entries that became releasable
// since the last settle still shrink the log).
func (n *StorageNode) compactDecided(key record.Key, r *recState, force bool) {
	if force {
		if r.decided.len() <= decidedLimit {
			return
		}
	} else if !r.decided.wantsCompact() {
		return
	}
	was := r.decided.footprint()
	n.m.DecidedReleased += int64(r.decided.compact(&n.lanes, key, n.net.Now(), n.cfg.DecidedRetention, n.id, n.cl.Replicas(key)))
	n.meter(r, was)
}

// settleOption records one final decision the caller found to be new:
// lineage summary, the record's kind class, durable decision log, and
// a decided-log entry — except on a record whose class is physical,
// which keeps none (decidedLog.lockPhysical): its summary is all it
// keeps.
func (n *StorageNode) settleOption(key record.Key, r *recState, d Decision, opt Option) {
	was := r.decided.footprint()
	r.decided.note(&n.lanes, d, opt)
	if r.decided.kind != record.KindPhysical {
		r.decided.record(&n.lanes, key, d, opt, true, n.net.Now())
	}
	n.meter(r, was)
	n.logDecision(key, d, opt)
	n.compactDecided(key, r, false)
}

// meter folds the change in a record's decided log since it held was
// into the DecidedEntries and DecidedBytes gauges. Every write to a
// record's log is metered by the one entry point that makes it.
func (n *StorageNode) meter(r *recState, was footprint) {
	now := r.decided.footprint()
	n.m.DecidedEntries += now.entries - was.entries
	n.m.DecidedBytes += now.bytes - was.bytes
}

// settled answers "has the option (tx's lane, keySeq) on this record
// settled, and how?" for every caller — acceptor, leader and recovery
// alike. The record's lineage summary is the answer, exact and forever
// (DESIGN.md §5): every decided-log entry is noted in it before it is
// stored (decidedLog.note), and the log only caches contents.
func (n *StorageNode) settled(r *recState, tx TxID, keySeq uint64) (Decision, bool) {
	return r.decided.decision(&n.lanes, tx, keySeq)
}

func (n *StorageNode) initialBallot(key record.Key) paxos.Ballot {
	if n.cfg.Mode == ModeMulti {
		return paxos.Classic(1, string(n.leaderFor(key)))
	}
	return paxos.DefaultFast
}

// leaderFor returns the record's master: the replica of the key in
// its master data center.
func (n *StorageNode) leaderFor(key record.Key) transport.NodeID {
	return n.cl.ReplicaIn(key, n.cfg.masterDC(key))
}

// onRead serves committed state only (read committed, §4.1). The
// reply piggybacks the replica's escrow snapshot so gateways bootstrap
// exact headroom accounts from any read.
func (n *StorageNode) onRead(from transport.NodeID, m MsgRead) {
	row, ok := n.find(m.Key)
	if n.tr != nil {
		n.tr.Add(trace.Event{At: n.net.Now().UnixNano(), Key: string(m.Key),
			Stage: trace.StageRead, Arg: int64(row.ver)})
	}
	n.send(from, MsgReadReply{
		ReqID: m.ReqID, Key: m.Key, Value: row.val, Version: row.ver,
		Exists: ok && !row.val.Tombstone(), Escrow: n.escrowSnap(row, from),
	})
}

// escrowSnap captures the acceptor's demarcation inputs for row's
// record (row.r nil for one the node has never touched): the
// committed base of every constrained attribute plus the worst-case
// pending movement of the unresolved accepted votes. Snapshots ride
// votes and read replies (the piggyback freshness channel); Version
// lets consumers order snapshots from different replicas. recipient
// is the node the snapshot is destined for: its gateway group is
// counted among the contenders even when it has no pending votes yet,
// so Contenders==1 always reads as "just you" at the consumer. A value
// that holds none of the constrained attributes gets no snapshot: its
// key costs a reader no escrow account, and the reader's admission
// stays conservative on it until a delta commits.
func (n *StorageNode) escrowSnap(row recRow, recipient transport.NodeID) EscrowSnap {
	if !slices.ContainsFunc(n.cfg.Constraints, func(con record.Constraint) bool {
		_, ok := row.val.Attr(con.Attr)
		return ok
	}) {
		return EscrowSnap{}
	}
	var pending []VotedOption
	if row.r != nil {
		pending = row.r.votes()
	}
	snap := EscrowSnap{Valid: true, Version: row.ver, Contenders: contenderGroups(pending, recipient)}
	for _, con := range n.cfg.Constraints {
		down, up := pendingSums(pending, con.Attr)
		base, _ := row.val.Attr(con.Attr)
		snap.Attrs = append(snap.Attrs, AttrEscrow{
			Attr: con.Attr, Base: base, PendDown: down, PendUp: up,
		})
	}
	return snap
}

// GatewayGroup maps a node id to its admission-sharing group: a
// gateway's coordinator ("gw/<dc>/c0") and the gateway itself
// ("gw/<dc>", which feed snapshots are addressed to) are one group;
// private coordinators are their own group.
func GatewayGroup(id transport.NodeID) string {
	s := string(id)
	if strings.HasPrefix(s, "gw/") {
		if i := strings.LastIndexByte(s, '/'); i > 2 {
			return s[:i]
		}
	}
	return s
}

// contenderGroups counts the distinct gateway groups holding pending
// accepted commutative votes, always including the snapshot
// recipient's own group — the live-contention signal gateways use to
// adapt their headroom-share divisor. Counting the recipient is what
// makes the number actionable: without it, a snapshot taken while
// only the OTHER gateway's votes are pending would read as
// "one contender" to both sides and let each claim the full slice.
func contenderGroups(pending []VotedOption, recipient transport.NodeID) int {
	groups := map[string]bool{GatewayGroup(recipient): true}
	for _, v := range pending {
		if v.Decision != DecAccept || v.Opt.Update.Kind != record.KindCommutative {
			continue
		}
		groups[GatewayGroup(v.Opt.Coord)] = true
	}
	return len(groups)
}

// pendingSums splits the accepted pending commutative deltas on attr
// into worst-case downward and upward movement (the escrow pending
// account of §3.4.2).
func pendingSums(pending []VotedOption, attr string) (down, up int64) {
	for _, v := range pending {
		if v.Decision != DecAccept || v.Opt.Update.Kind != record.KindCommutative {
			continue
		}
		d := v.Opt.Update.Deltas[attr]
		if d < 0 {
			down += d
		} else {
			up += d
		}
	}
	return down, up
}

// onProposeBatch votes on every well-formed option of a transaction
// destined for this node and answers with a single vote batch (§7
// batching).
func (n *StorageNode) onProposeBatch(m MsgProposeBatch) {
	batch := MsgVoteBatch{Votes: make([]MsgVote, 0, len(m.Opts))}
	for _, opt := range m.Opts {
		if opt.wellFormed() {
			batch.Votes = append(batch.Votes, n.proposeVote(opt))
		}
	}
	if len(batch.Votes) > 0 {
		n.sendCoalesced(m.Opts[0].Coord, batch)
	}
}

// proposeVote computes this acceptor's Phase2b answer for one
// proposed option and, for commutative options, piggybacks the
// record's escrow snapshot (taken after the vote, so it reflects it).
func (n *StorageNode) proposeVote(opt Option) MsgVote {
	row := n.row(opt.Update.Key)
	vote := n.voteFor(row, opt)
	if opt.Update.Kind == record.KindCommutative && len(n.cfg.Constraints) > 0 {
		vote.Escrow = n.escrowSnap(row, opt.Coord)
	}
	return vote
}

// voteFor votes on one proposed option (voting, resending, or
// forwarding to the leader); row is its key's.
func (n *StorageNode) voteFor(row recRow, opt Option) MsgVote {
	key := opt.Update.Key
	r := row.r
	id := opt.ID()
	promised, accepted := n.ballots(key, r)

	// Idempotence: final decisions and existing votes are resent.
	if d, ok := n.settled(r, opt.Tx, opt.KeySeq); ok {
		return MsgVote{OptID: id, Ballot: promised, Decision: d}
	}
	if i := r.voteIndex(id); i >= 0 {
		v := &r.open.votes[i]
		return MsgVote{OptID: id, Ballot: accepted, Decision: v.Decision, Reason: v.Reason}
	}

	// Ring fence: settled options are answered exactly above, but this
	// group must not vote on (or forward) anything new for a key it no
	// longer owns.
	if !n.owns(key) {
		n.m.WrongGroupRefusals++
		if n.tr != nil {
			n.tr.Add(trace.Event{At: n.net.Now().UnixNano(), Tx: string(opt.Tx),
				Key: string(key), Stage: trace.StageWrongShard})
		}
		return MsgVote{OptID: id, Ballot: promised, WrongGroup: true}
	}

	if !promised.Fast {
		// Classic window: the record's current leader must order this
		// option. That is whoever owns the promised ballot — after a
		// master-DC failure this is a fallback leader in a live DC,
		// not the static master.
		leader := transport.NodeID(promised.Leader)
		if leader == "" {
			leader = n.leaderFor(key)
		}
		n.m.Forwarded++
		if n.tr != nil {
			n.tr.Add(trace.Event{At: n.net.Now().UnixNano(), Tx: string(opt.Tx),
				Key: string(key), Stage: trace.StageForward})
		}
		n.send(leader, MsgProposeLeader{Opt: opt})
		return MsgVote{OptID: id, Ballot: promised, Forwarded: true, Leader: leader}
	}

	demBefore := n.m.DemarcationRejects
	dec, reason := n.evalOption(row, r.votes(), opt, true)
	n.castVote(r, opt, dec, reason)
	if n.tr != nil {
		fl := uint8(trace.FlagFast | trace.FlagBatched) // the reply may share its envelope
		if dec == DecAccept {
			fl |= trace.FlagAccept
		} else {
			fl |= trace.FlagReject
		}
		if n.m.DemarcationRejects > demBefore {
			fl |= trace.FlagDemarcation
		}
		n.tr.Add(trace.Event{At: n.net.Now().UnixNano(), Tx: string(opt.Tx),
			Key: string(key), Stage: trace.StageVote, Flags: fl})
	}
	return MsgVote{OptID: id, Ballot: promised, Decision: dec, Reason: reason}
}

// castVote appends a vote to the record's cstruct.
func (n *StorageNode) castVote(r *recState, opt Option, dec Decision, reason RejectReason) {
	o := n.opened(opt.Update.Key, r)
	if o.votes == nil {
		o.votes, o.votedAt = n.takeVoteSlots(1)
	}
	o.votes = append(o.votes, VotedOption{Opt: opt, Decision: dec, Reason: reason})
	o.votedAt = append(o.votedAt, n.net.Now().UnixNano())
	if dec == DecAccept {
		n.m.VotesAccept++
		was := r.decided.footprint()
		r.decided.noteKind(opt.Update)
		n.meter(r, was)
	} else {
		n.m.VotesReject++
	}
}

// evalOption is the paper's SetCompatible (algorithm 3, lines 83-99):
// an active accept/reject judgment of one option against the record's
// committed state and the outstanding options in `pending`. fast
// selects the quorum demarcation limits instead of the raw bounds for
// commutative updates; row is the option's key's. The same code runs
// on acceptors against their own votes (fast ballots) and on the
// leader against its cstruct (classic ballots) — classic decisions are
// consistent across replicas because they adopt the leader's cstruct
// verbatim. The
// reject reason types the kind-disjoint rule's rejections so clients
// see ErrMixedUpdateKinds instead of a silent abort.
func (n *StorageNode) evalOption(row recRow, pending []VotedOption, opt Option, fast bool) (Decision, RejectReason) {
	switch opt.Update.Kind {
	case record.KindPhysical:
		return n.evalPhysical(row, pending, opt)
	case record.KindCommutative:
		return n.evalCommutative(row, pending, opt, fast)
	case record.KindReadCheck:
		// Read-set validation (§4.4): the record must still be at the
		// version the transaction read, and no outstanding write may
		// be about to change it (a pending accepted write is a
		// read-write conflict that could commit; rejecting here is
		// what makes the validation conflict-serializable rather than
		// merely version-checked). Read checks commute with each
		// other.
		if opt.Update.ReadVersion != row.ver {
			return DecReject, ReasonNone
		}
		for _, v := range pending {
			if v.Decision == DecAccept && v.Opt.Update.Kind != record.KindReadCheck {
				return DecReject, ReasonNone
			}
		}
		return DecAccept, ReasonNone
	default:
		return DecReject, ReasonNone
	}
}

func (n *StorageNode) evalPhysical(row recRow, pending []VotedOption, opt Option) (Decision, RejectReason) {
	// Kind-disjoint rule (DESIGN.md §5): a non-creating physical
	// rewrite of a key with commutative history is rejected with a
	// typed reason — a physical rewrite absorbs concurrent deltas'
	// effects without carrying their lineage identities, which is
	// exactly what makes mixed-kind forks unmergeable. Inserts
	// (ReadVersion 0) create the record and are class-neutral.
	if opt.Update.ReadVersion > 0 && row.r.decided.kind == record.KindCommutative {
		n.m.MixedKindRejects++
		return DecReject, ReasonMixedKinds
	}
	// validRead: vread must match the current version; an insert
	// (ReadVersion 0) requires the record to be new (§3.2.1).
	if opt.Update.ReadVersion != row.ver {
		return DecReject, ReasonNone
	}
	// validSingle: only one outstanding option per record — this is
	// also the pessimistic deadlock-avoidance policy (§3.2.2): a
	// concurrent option is rejected, never queued, so waits-for
	// cycles cannot form. Outstanding read checks block writes too
	// (the write-read conflict side of §4.4's serializability
	// extension); they only exist when an application asks for
	// serializable transactions.
	for _, v := range pending {
		if v.Decision == DecAccept {
			return DecReject, ReasonNone
		}
	}
	// Value constraints hold trivially under version serialization;
	// still enforce them so "Fast"-mode read-modify-writes abort
	// instead of violating stock >= 0.
	for _, con := range n.cfg.Constraints {
		if x, ok := opt.Update.NewValue.Attr(con.Attr); ok && !con.Satisfied(x) {
			return DecReject, ReasonNone
		}
	}
	return DecAccept, ReasonNone
}

func (n *StorageNode) evalCommutative(row recRow, pending []VotedOption, opt Option, fast bool) (Decision, RejectReason) {
	if n.cfg.Mode == ModeFast || n.cfg.Mode == ModeMulti {
		// Commutative support is the MDCC configuration's feature.
		// Fast/Multi callers should have converted to physical
		// updates; reject rather than guess.
		return DecReject, ReasonNone
	}
	// Kind-disjoint rule, other direction: deltas on a physically
	// rewritten key would fork unmergeably against the next rewrite.
	if row.r.decided.kind == record.KindPhysical {
		n.m.MixedKindRejects++
		return DecReject, ReasonMixedKinds
	}
	// Commutative options do not commute with an outstanding
	// physical rewrite of the same record, nor with an outstanding
	// read check (whose transaction's validity depends on the record
	// not changing).
	for _, v := range pending {
		if v.Decision == DecAccept && v.Opt.Update.Kind != record.KindCommutative {
			return DecReject, ReasonNone
		}
	}
	for attr, delta := range opt.Update.Deltas {
		con, ok := n.cfg.ConstraintFor(attr)
		if !ok {
			continue // unconstrained attributes always commute
		}
		if !n.deltaSafe(pending, row.val, attr, delta, con, fast) {
			if fast {
				n.m.DemarcationRejects++
			}
			return DecReject, ReasonNone
		}
	}
	return DecAccept, ReasonNone
}

// deltaSafe decides whether accepting one more delta on attr keeps
// the constraint safe under every commit/abort permutation of the
// outstanding options (escrow, §3.4.2). In fast ballots the bound is
// tightened to the quorum demarcation limit
//
//	L = min + (N-Q_F)/N · (X - min)
//
// because each storage node only sees its own copy of the X "resources"
// and a fast quorum consumes Q_F of the N·X total per committed unit;
// the (N-Q_F)/N headroom can be stranded on other replicas. Classic
// ballots are serialized by the leader, so the raw bound applies.
func (n *StorageNode) deltaSafe(pending []VotedOption, val record.Encoded, attr string, delta int64, con record.Constraint, fast bool) bool {
	pendDown, pendUp := pendingSums(pending, attr)
	base, _ := val.Attr(attr)
	return DeltaSafe(base, pendDown, pendUp, delta, con, n.q, fast)
}

// DeltaSafe is the escrow admission predicate shared by acceptors and
// their mirrors (the gateway tier's headroom accounting, parity fuzz
// oracles): would accepting one more delta on top of the worst-case
// pending movement keep the constraint safe under every commit/abort
// permutation? fast selects the quorum demarcation limits instead of
// the raw bounds.
func DeltaSafe(base, pendDown, pendUp, delta int64, con record.Constraint, q paxos.Quorum, fast bool) bool {
	// Worst-case pending movement: for the lower bound, every
	// outstanding decrement commits and every increment aborts;
	// symmetric for the upper bound.
	if delta < 0 {
		pendDown += delta
	} else {
		pendUp += delta
	}
	if con.Min != nil {
		lim := *con.Min
		if fast {
			lim = DemarcationLow(*con.Min, base, q)
		}
		if base+pendDown < lim {
			return false
		}
	}
	if con.Max != nil {
		lim := *con.Max
		if fast {
			lim = DemarcationHigh(*con.Max, base, q)
		}
		if base+pendUp > lim {
			return false
		}
	}
	return true
}

// DemarcationLow computes the lower demarcation limit. With min = 0
// this is the paper's L = (N-Q_F)/N · X, rounded up (conservative).
func DemarcationLow(min, base int64, q paxos.Quorum) int64 {
	head := base - min
	if head <= 0 {
		return min
	}
	slack := int64(q.N - q.Fast)
	return min + ceilDiv(head*slack, int64(q.N))
}

// DemarcationHigh mirrors DemarcationLow for upper bounds.
func DemarcationHigh(max, base int64, q paxos.Quorum) int64 {
	head := max - base
	if head <= 0 {
		return max
	}
	slack := int64(q.N - q.Fast)
	return max - ceilDiv(head*slack, int64(q.N))
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// onVisibility executes or discards an option (§3.2.1 "Learned"
// messages). Commit applies the update and bumps the version; abort
// discards. Both record the outcome for idempotence and recovery.
func (n *StorageNode) onVisibility(m MsgVisibility) {
	key := m.Opt.Update.Key
	row := n.row(key)
	r := row.r
	id := m.Opt.ID()
	if _, ok := n.settled(r, id.Tx, m.Opt.KeySeq); ok {
		// Already executed or discarded; still release any lingering
		// vote, here and in the leader's cstruct (the settle may have
		// arrived via a base adoption that never saw either).
		n.pruneVote(r, id)
		n.leaderObserveVisibility(r, m.Opt)
		return
	}
	if n.tr != nil {
		now := n.net.Now()
		fl := uint8(trace.FlagCommit)
		if !m.Commit {
			fl = trace.FlagAbort
		}
		n.tr.Add(trace.Event{At: now.UnixNano(), Tx: string(m.Opt.Tx),
			Key: string(key), Stage: trace.StageVisibility, Flags: fl})
		// Vote → execution lag: how long the learned option waited
		// before its side effects became readable here.
		if i := r.voteIndex(id); i >= 0 {
			n.cfg.Tracer.ObservePhase(trace.PhaseVisibility, int(n.dc),
				time.Duration(now.UnixNano()-r.open.votedAt[i]))
		}
	}
	if m.Commit {
		n.settleOption(key, r, DecAccept, m.Opt)
		n.applyUpdate(row, m.Opt.Update)
		n.m.Executed++
	} else {
		n.settleOption(key, r, DecReject, m.Opt)
		n.m.Discarded++
	}
	// Both outcomes feed the visibility stream: a commit changed the
	// committed value, and even an abort freed pending escrow (the
	// post-pruneVote snapshot reflects it).
	n.pruneVote(r, id)
	n.markFeedDirty(key)
	n.leaderObserveVisibility(r, m.Opt)
}

// adoptBase reconciles a fresher (or equal-version but possibly
// diverged) committed base for key received from a peer — via
// anti-entropy, a Phase2a base, or a Phase1b reply. Commutative
// records can fork: replicas apply the same committed deltas in
// different orders, so two replicas at the same version may each hold
// deltas the other lacks, and blind version-max overwrite silently
// destroys the overwritten branch's unique applies.
//
// The base carries its exact LineageSummary — the options whose
// outcomes it reflects — and adoption re-applies on top of it every
// commutative delta this replica executed that the summary is
// missing. Contents for those grafts are always local (the decided
// log retains an apply until every peer's summary contains it, and an
// incoming base can only come from a peer), so no option contents
// ever cross replicas and the merge is exact regardless of how long
// ago the fork happened: retention is a cache knob, not a correctness
// input. The resulting summary is the union of both branches, which
// is sound because the merged value contains (or, for physical
// options, supersedes) every settled effect either branch reports.
//
// Physical-containment rule: if this replica holds a settled physical
// apply the incoming summary is missing AND the incoming branch
// contains commutative applies, adoption is refused — delta-inflated
// version counts do not prove supersession of a physical write (the
// insert-vs-early-deltas race), so convergence must flow the other
// way: the peer adopts our base (grafting its own extras), and we
// adopt the union later. Pure-physical branches need no such check:
// a committed physical write's vread proves its value derived through
// every lower version, so a higher pure-physical base supersedes by
// construction. Returns whether local state changed.
func (n *StorageNode) adoptBase(key record.Key, base record.Encoded, baseVer record.Version,
	lineage LineageSummary) bool {
	row := n.row(key)
	r, localVer := row.r, row.ver
	if baseVer < localVer {
		return false
	}
	if baseVer == localVer && r.decided.summary().containsAll(&n.lanes, lineage) {
		// Nothing to learn: the incoming branch is a subset of ours at
		// the same version (equal sets when the peer is converged).
		// Equal version and value alone would NOT prove this — two
		// forks can coincidentally sum equal — but summary containment
		// does, exactly.
		return false
	}
	if lineage.Deltas {
		var refused bool
		if r.decided.kind == record.KindPhysical {
			// The record keeps no entries, and every option it accepted
			// is a physical one (its class lock refuses deltas) or a
			// read check, which the summary cannot tell apart: refuse a
			// base lacking any of them.
			refused = r.decided.summary().acceptedOutside(&n.lanes, lineage)
		} else {
			r.decided.each(&n.lanes, key, func(e decidedEntry) bool {
				refused = e.Decision == DecAccept && e.kind() == record.KindPhysical &&
					!lineage.Contains(e.lane(), e.KeySeq)
				return !refused
			})
		}
		if refused {
			n.m.AdoptRefused++
			return false
		}
	}
	val, ver := base, baseVer
	merged := 0
	r.decided.each(&n.lanes, key, func(e decidedEntry) bool {
		switch {
		case e.Decision != DecAccept || e.kind() != record.KindCommutative:
			// Physical applies are never grafted: either the incoming
			// summary contains them, or (pure-physical branch) the
			// higher base version proves supersession, or the refusal
			// above already bailed.
		case lineage.Contains(e.lane(), e.KeySeq):
		default:
			// The graft: the one place a settled entry's contents are
			// decoded on the merge path.
			up := e.update()
			val = up.Apply(val)
			ver += up.Span()
			merged++
		}
		return true
	})
	n.m.Grafted += int64(merged)
	if ver == localVer && merged == 0 {
		if cur, _, ok := n.store.GetEncoded(key); ok && bytes.Equal(cur, val) {
			// Same value and version, but the incoming summary knows
			// settles we don't (e.g. rejects, which bump no version):
			// absorb the knowledge without rewriting the store.
			n.absorbLineage(key, r, lineage)
			return true
		}
	}
	n.storePut(key, val, ver)
	n.absorbLineage(key, r, lineage)
	n.markFeedDirty(key)
	return true
}

// absorbLineage unions an adopted base's summary into the record's,
// takes the class lock its bits imply, and persists the result.
func (n *StorageNode) absorbLineage(key record.Key, r *recState, lineage LineageSummary) {
	was := r.decided.footprint()
	r.decided.tail().union(&n.lanes, lineage)
	r.decided.noteKindFromSummary()
	n.meter(r, was)
	n.logLineage(key, r)
}

// applyUpdate makes a committed update visible in the store; row is
// its key's, as it stood before the update. A read check is validation
// only and changes nothing.
func (n *StorageNode) applyUpdate(row recRow, up record.Update) {
	switch up.Kind {
	case record.KindPhysical:
		newVer := up.ReadVersion + 1
		if newVer <= row.ver {
			return // already superseded by a later committed write
		}
		n.storePut(up.Key, up.NewValue, newVer)
	case record.KindCommutative:
		// Merged (gateway-coalesced) updates advance the version by the
		// number of client updates they carry, keeping per-client-update
		// version accounting exact.
		n.storePut(up.Key, up.Apply(row.val), row.ver+up.Span())
	}
}

// voteIndex returns the position of id's unresolved vote, -1 if none.
func (r *recState) voteIndex(id OptionID) int { return optIndex(r.votes(), id) }

// voteSlots is one record's pair of vote arrays, empty and zeroed,
// between two records that use it.
type voteSlots struct {
	votes []VotedOption
	at    []int64
}

// maxFreeVoteSlots bounds the free lists. A list is as long as the
// drop from the most records that had a vote open at once since the
// last sweep to the number that have one now, so steady traffic needs
// about as many entries as it has options in flight: a few hundred
// under the benchmark's heaviest closed loop (256 callers). The bound
// is for the burst that opens a vote on every record at once (a
// recovery storm, a shard pull, a preload): past it a released pair or
// open part is left to the collector, so within one sweep interval —
// or for good on a node whose sweep is off — such a burst pins at most
// about 390 KB per node: both lists at the bound with their single-vote
// pairs and open parts measured 394 320 B (go1.24, amd64). Each sweep
// gives both lists back (sweepPending).
const maxFreeVoteSlots = 1024

// takeVoteSlots returns empty vote arrays with room for that many
// votes: the pair on top of the free list when it is large enough,
// fresh ones otherwise. In the steady state every vote is cast into a pair some
// settled record gave back, so voting allocates nothing.
func (n *StorageNode) takeVoteSlots(room int) ([]VotedOption, []int64) {
	if last := len(n.freeVotes) - 1; last >= 0 && cap(n.freeVotes[last].votes) >= room {
		s := n.freeVotes[last]
		n.freeVotes[last] = voteSlots{}
		n.freeVotes = n.freeVotes[:last]
		return s.votes, s.at
	}
	return make([]VotedOption, 0, room), make([]int64, 0, room)
}

// releaseVoteSlots zeroes a pair of vote arrays no record uses any
// more and puts it on the free list, if there is room.
func (n *StorageNode) releaseVoteSlots(votes []VotedOption, at []int64) {
	if cap(votes) == 0 || len(n.freeVotes) == maxFreeVoteSlots {
		return
	}
	clear(votes)
	n.freeVotes = append(n.freeVotes, voteSlots{votes: votes[:0], at: at[:0]})
}

// truncateVotes cuts the votes and votedAt of key's open record to
// their first k elements, zeroing the vacated slots so that no settled
// option's value and write-set stay reachable from an array
// that is still in use. When the last vote goes the arrays go with it,
// back to the node: a vote slot does not outlive its vote. So does the
// open part, if nothing else in it is off its initial value — a record
// whose fast-path votes have all settled is at rest again.
func (n *StorageNode) truncateVotes(key record.Key, r *recState, k int) {
	o := r.open
	clear(o.votes[k:])
	o.votes = o.votes[:k]
	o.votedAt = o.votedAt[:k]
	if k > 0 {
		return
	}
	n.releaseVoteSlots(o.votes, o.votedAt)
	o.votes, o.votedAt = nil, nil
	if init := n.initialBallot(key); o.promised != init || o.accepted != init || o.p2aSeq != 0 {
		return
	}
	r.open = nil
	if len(n.freeOpen) < maxFreeVoteSlots {
		*o = recOpen{}
		n.freeOpen = append(n.freeOpen, o)
	}
}

// pruneVote drops an unresolved vote once its option is settled.
func (n *StorageNode) pruneVote(r *recState, id OptionID) {
	i := r.voteIndex(id)
	if i < 0 {
		return
	}
	o := r.open
	last := len(o.votes) - 1
	copy(o.votes[i:], o.votes[i+1:])
	copy(o.votedAt[i:], o.votedAt[i+1:])
	n.truncateVotes(id.Key, r, last)
}

// onPhase1a promises a classic ballot and reports state (§3.1.1).
func (n *StorageNode) onPhase1a(from transport.NodeID, m MsgPhase1a) {
	row := n.row(m.Key)
	r := row.r
	promised := n.promise(m.Key, r, m.Ballot)
	_, accepted := n.ballots(m.Key, r)
	n.m.Phase1++
	reply := MsgPhase1b{
		Key:     m.Key,
		Ballot:  promised, // echoes m.Ballot, or a higher promise (nack)
		Bal:     accepted,
		Votes:   append([]VotedOption(nil), r.votes()...),
		Version: row.ver,
		Value:   row.val,
		Lineage: r.decided.summary().unpack(&n.lanes),
	}
	n.send(from, reply)
}

// onPhase2a adopts the leader's cstruct (classic Phase2b, algorithm 3
// lines 72-77). Decisions were fixed by the leader, so all replicas
// store identical votes. A fresher committed base piggybacked by the
// leader catches up lagging replicas.
func (n *StorageNode) onPhase2a(from transport.NodeID, m MsgPhase2a) {
	r := n.rs(m.Key)
	if promised, _ := n.ballots(m.Key, r); m.Ballot.Less(promised) {
		n.send(from, MsgPhase2b{
			Key: m.Key, Ballot: m.Ballot, Seq: m.Seq, OK: false, Promised: promised,
		})
		return
	}
	o := n.opened(m.Key, r)
	if m.Ballot.Cmp(o.accepted) == 0 && m.Seq <= o.p2aSeq {
		// Duplicated or reordered proposal of the current ballot: this
		// snapshot (or a newer one) was already adopted. Re-ack without
		// touching state — re-adopting an older cstruct would silently
		// drop votes the leader has since added.
		n.send(from, MsgPhase2b{Key: m.Key, Ballot: m.Ballot, Seq: m.Seq, OK: true})
		return
	}
	if m.Ballot.Cmp(o.accepted) != 0 {
		o.p2aSeq = 0 // new ballot: its proposal sequence starts over
	}
	o.promised = m.Ballot
	o.accepted = m.Ballot
	o.p2aSeq = m.Seq
	if m.HasBase {
		// A fresher committed base piggybacked by the leader catches up
		// (and merges with) lagging replicas. The leader's summary also
		// feeds the peer-ack ledger gating content release.
		n.notePeerLineage(r, from, m.BaseLineage)
		n.adoptBase(m.Key, m.BaseValue, m.BaseVersion, m.BaseLineage)
	}
	now := n.net.Now().UnixNano()
	// The adopted cstruct replaces the votes wholesale, in other arrays:
	// the previous ones are read below and then released, so no dropped
	// vote stays reachable.
	prev, prevAt := o.votes, o.votedAt
	o.votes, o.votedAt = n.takeVoteSlots(len(m.CStruct))
	next := 0 // cursor into prev: successive cstructs keep their order
	for _, v := range m.CStruct {
		if v.Decision == DecAccept && !v.Opt.wellFormed() {
			continue // no leader takes such an option in (leaderPropose)
		}
		if _, ok := n.settled(r, v.Opt.Tx, v.Opt.KeySeq); ok {
			continue // already settled locally (e.g. visibility raced ahead)
		}
		// votedAt measures how long the option has been unresolved, so
		// a re-adopted vote keeps its original timestamp. Resetting it
		// here would let a hot record's steady classic traffic refresh
		// the clock faster than PendingTimeout elapses, permanently
		// disarming the dangling-option sweep for an option whose
		// coordinator has already moved on — its visibility would
		// never be recovered. The search starts at the cursor, so a
		// cstruct that extends the previous one costs one comparison
		// per carried vote.
		at := now
		id := v.Opt.ID()
		for k := range prev {
			p := (next + k) % len(prev)
			if prev[p].Opt.ID() == id {
				at, next = prevAt[p], p+1
				break
			}
		}
		o.votes = append(o.votes, v)
		o.votedAt = append(o.votedAt, at)
	}
	n.releaseVoteSlots(prev, prevAt)
	if len(o.votes) == 0 {
		n.truncateVotes(m.Key, r, 0) // nothing adopted: no vote arrays
	}
	n.m.Phase2++
	n.send(from, MsgPhase2b{Key: m.Key, Ballot: m.Ballot, Seq: m.Seq, OK: true})
}

// onEnableFast re-opens the record for master-bypassing proposals.
func (n *StorageNode) onEnableFast(m MsgEnableFast) {
	r := n.rs(m.Key)
	if promised, _ := n.ballots(m.Key, r); promised.Less(m.Ballot) {
		o := n.opened(m.Key, r)
		o.promised = m.Ballot
		o.accepted = m.Ballot
		n.m.EnableFast++
	}
}

// LineageFingerprint renders the record's canonical lineage
// fingerprint (see LineageSummary.String): equal fingerprints mean
// identical settled sets. Packages that must not import core's types
// (internal/check) compare these strings.
func (n *StorageNode) LineageFingerprint(key record.Key) string {
	if row, _ := n.find(key); row.r != nil {
		return row.r.decided.summary().unpack(&n.lanes).String()
	}
	return LineageSummary{}.String()
}

// fnvID hashes a node id into an anti-entropy RNG seed so each node
// walks a different peer order deterministically.
func fnvID(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
