package core

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mdcc/internal/btree"
	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// hintTTL bounds how long a coordinator keeps routing proposals for a
// record through its leader after learning the record is in a classic
// window; afterwards it probes the fast path again (complements the
// leader-side γ policy).
const hintTTL = 2 * time.Second

// CommitResult reports a transaction outcome to the application. Err
// types the cause of a rejection when the protocol knows one (today:
// ErrMixedUpdateKinds, the kind-disjoint rule); it is nil for plain
// conflicts/constraint aborts and for commits.
type CommitResult struct {
	Tx        TxID
	Committed bool
	Err       error
	// Recovered reports that at least one option took a recovery hop
	// (timeout/collision re-propose); Rerouted that at least one was
	// re-dispatched after a wrong-group refusal. The gateway's flight
	// recorder folds both into its completion record.
	Recovered bool
	Rerouted  bool
}

// Coordinator is the stateless DB-library side of MDCC: it executes
// reads against the nearest replica, proposes options for the
// write-set at commit, learns their decisions (acting as the Paxos
// learner on the fast path), derives the transaction outcome, and
// makes it visible at every replica, riding the next message it sends
// there (see vis). One Coordinator serves one app-server node;
// all methods must be called from that node's handler context (or
// before the network starts).
type Coordinator struct {
	id  transport.NodeID
	dc  topology.DC
	net transport.Network
	cl  *topology.Cluster
	cfg Config
	q   paxos.Quorum
	tr  *trace.Ring // flight-recorder ring, nil when tracing is off

	inc    uint64 // transport.Incarnation at construction
	era    uint64 // lane era (see rotateLane)
	lane   string // TxID prefix of every option minted now (see setLane)
	txSeq  uint64
	reqSeq uint64
	reads  map[uint64]*readCtx
	txs    map[TxID]*txCtx
	hints  map[record.Key]leaderHint
	// keySeqs mints per-key lineage identities: the count of options
	// this lane (coordinator incarnation + era) has proposed on each
	// key. Together with the lane (this coordinator's TxID prefix) it
	// names every option in LineageSummaries, which is what makes
	// per-record summaries compact — a lane's sequences on one key are
	// contiguous by construction. A counter word can never be evicted
	// individually (reuse would alias identities, a gap would fragment
	// the lane's interval set forever), so the bound works by lane
	// rotation: once the tree holds keySeqWords words the whole lane
	// retires and a fresh era starts minting from scratch (see
	// rotateLane). Since no word leaves but with its lane, an ordered
	// tree, which has no delete, holds them in fewer bytes than a map.
	keySeqs *btree.Tree[uint64]

	// escrowObs, when set, receives every escrow snapshot piggybacked
	// on votes and read replies (the gateway tier's freshness channel).
	escrowObs func(from transport.NodeID, key record.Key, snap EscrowSnap)

	// vis is the one outbound queue, per replica: every message this
	// coordinator sends joins it, and it leaves as one transport.Batch (or
	// its lone message). With a window (see SetBatchWindow; a gateway's
	// coordinator), a queue leaves when the window its first message
	// opened closes. With none (a private coordinator), a message that
	// must go (propose, read, recovery, reroute) leaves at once, taking
	// its replica's queue along, so the queue only ever holds visibility:
	// it leaves with the next send there, or when visTimer, the one
	// linger timer (nil when nothing lingers), fires BatchWindow after
	// the oldest was queued and every queue leaves. Either way a queue
	// that reaches batchMax leaves at once. visOrder lists the
	// replicas in the order their queues began, which is the order
	// FlushVisibility sends them in.
	vis      map[transport.NodeID]visQueue
	visOrder []transport.NodeID
	visTimer transport.Timer
	window   time.Duration // see SetBatchWindow

	m    CoordMetrics // counters, snapshotted by Metrics
	sent sendCounters // what left the queue, read live by Batches
}

// visQueue is one replica's queue in the order it was queued: head, then
// rest (allocated only once a second message queues). at is the queue's
// index in visOrder.
type visQueue struct {
	head transport.Message
	rest []transport.Envelope
	at   int
}

// sendCounters count what left the queue. They are atomic because a
// gateway's Metrics reads them while the coordinator runs.
type sendCounters struct {
	envelopes atomic.Int64 // Batch envelopes sent
	batched   atomic.Int64 // messages carried inside them
	singles   atomic.Int64 // queued messages that left alone
}

type leaderHint struct {
	leader transport.NodeID
	expiry time.Time
}

type readCtx struct {
	key record.Key
	// cb takes the reply's bytes; Read and ReadQuorum decode them for
	// an API caller.
	cb      func(record.Encoded, record.Version, bool)
	attempt int
	timer   transport.Timer

	// Quorum-read state (§4.2 up-to-date reads): nil for local reads.
	quorum  int
	replies map[transport.NodeID]MsgReadReply
	best    *MsgReadReply
}

type txCtx struct {
	id        TxID
	opts      map[OptionID]*optCtx
	remaining int
	done      func(CommitResult)
	rejErr    error // typed rejection cause, if any option reported one
	startAt   int64 // propose time (UnixNano), for the flight recorder
}

type optCtx struct {
	opt      Option
	votes    map[transport.NodeID]Decision
	accepts  int
	rejects  int
	reason   RejectReason // typed cause from reject votes/learns
	learned  Decision
	timer    transport.Timer
	attempts int
	rerouted bool // re-dispatched once after a wrong-group refusal
}

// NewCoordinator builds a coordinator on node id (located in dc) and
// registers its handler. A process that died and came back calls it
// again with the same id and nothing else: the coordinator names its own
// incarnation (transport.Incarnation), so its transaction ids, lineage
// lanes and read-request ids are ones its predecessor never minted.
// Acceptors answer a settled (lane, KeySeq) with the settled decision
// forever, and replies to the predecessor may still be in flight; a
// re-minted identifier would have the new incarnation's unrelated
// operation answered by either — an acknowledged commit that is never
// applied.
func NewCoordinator(id transport.NodeID, dc topology.DC, net transport.Network,
	cl *topology.Cluster, cfg Config) *Coordinator {
	c := &Coordinator{
		id:      id,
		dc:      dc,
		net:     net,
		cl:      cl,
		cfg:     cfg,
		q:       paxos.NewQuorum(cl.ReplicationFactor()),
		tr:      cfg.Tracer.Ring(string(id), int(dc)),
		inc:     transport.Incarnation(net),
		reads:   make(map[uint64]*readCtx),
		txs:     make(map[TxID]*txCtx),
		hints:   make(map[record.Key]leaderHint),
		keySeqs: btree.New[uint64](),
		vis:     make(map[transport.NodeID]visQueue),
	}
	// Read request ids count up from the construction instant: a
	// predecessor's ids all lie below it.
	c.reqSeq = c.inc
	c.setLane()
	net.Register(id, c.handle)
	return c
}

// setLane derives the current lineage lane, "<id>[~<token>][~e<era>]":
// the token is the incarnation in milliseconds, base 36 in capitals (an
// era's marker is a lower-case e, so the two never read alike) — eight
// characters on a real clock until 2059, omitted at the simulator's zero
// instant. Its resolution is the one limit of the rule: two incarnations
// of one node id built within the same millisecond share a token, which
// no process restart can manage.
func (c *Coordinator) setLane() {
	c.lane = string(c.id)
	if c.inc != 0 {
		c.lane += "~" + strings.ToUpper(strconv.FormatUint(c.inc/uint64(time.Millisecond), 36))
	}
	if c.era != 0 {
		c.lane += "~e" + strconv.FormatUint(c.era, 10)
	}
}

// txID mints the next transaction id: the lane, '#', and a sequence
// scoped to this incarnation.
func (c *Coordinator) txID() TxID {
	c.txSeq++
	return TxID(c.lane + "#" + strconv.FormatUint(c.txSeq, 10))
}

// keySeqWords bounds the per-(lane, key) sequence counters: a
// coordinator that has minted sequences for this many distinct keys
// retires its lane (see rotateLane), keeping lineage bookkeeping O(live
// keys) instead of O(keys ever written).
const keySeqWords = 4096

// rotateLane retires the current lineage lane when its counter tree is
// full: the era bumps (changing the TxID prefix, i.e. the lane) and a
// fresh tree starts minting per-key sequences from 1 again. The retired
// lane never mints again, so its counter words are dead the moment it
// retires and the whole tree is dropped at once — coordinator lineage
// state is O(keys live in the current lane), not O(keys ever written).
// Acceptor-side summaries stay exact and compact: each retired lane's
// intervals are frozen (at quiescence a single [1..W] range per key),
// and the new lane cannot alias them because its TxID prefix differs.
func (c *Coordinator) rotateLane() {
	if c.keySeqs.Len() < keySeqWords {
		return
	}
	c.era++
	c.setLane()
	c.keySeqs = btree.New[uint64]()
}

// send is how every message this coordinator sends reaches a replica:
// it joins the replica's queue behind what is owed there (see vis), so a
// replica applies an outcome this coordinator learned before it handles
// anything the coordinator sends it afterwards, on whatever per-pair
// order the transport keeps.
func (c *Coordinator) send(to transport.NodeID, msg transport.Message) {
	if c.window > 0 {
		c.enqueue(to, msg)
		return
	}
	q, ok := c.vis[to]
	if !ok {
		c.net.Send(c.id, to, msg)
		return
	}
	delete(c.vis, to)
	c.leave(to, q, msg)
}

// queueVisibility owes msg to replica `to` (see vis).
func (c *Coordinator) queueVisibility(to transport.NodeID, msg transport.Message) {
	if c.enqueue(to, msg) && c.window <= 0 && c.visTimer == nil {
		c.visTimer = c.net.After(c.id, BatchWindow, c.FlushVisibility)
	}
}

// enqueue appends msg to replica to's queue; with a window, a queue's
// first message opens it. It reports whether msg is still queued: a
// queue that reaches batchMax leaves at once.
func (c *Coordinator) enqueue(to transport.NodeID, msg transport.Message) bool {
	q, ok := c.vis[to]
	if ok {
		q.rest = append(q.rest, transport.Envelope{From: c.id, To: to, Msg: msg})
	} else {
		if len(c.visOrder) == cap(c.visOrder) {
			c.compactOrder()
		}
		q = visQueue{head: msg, at: len(c.visOrder)}
		c.visOrder = append(c.visOrder, to)
		if c.window > 0 {
			c.net.After(c.id, c.window, func() { c.closeWindow(to) })
		}
	}
	if 1+len(q.rest) >= batchMax {
		delete(c.vis, to)
		c.leave(to, q, nil)
		return false
	}
	c.vis[to] = q
	return true
}

// closeWindow sends replica to's queue when its window's timer fires. A
// queue that left early and began again leaves early too, which only
// shortens that window.
func (c *Coordinator) closeWindow(to transport.NodeID) {
	if q, ok := c.vis[to]; ok {
		delete(c.vis, to)
		c.leave(to, q, nil)
	}
}

// compactOrder drops the visOrder entries of queues that left early, so
// that visOrder stays as long as the queues it lists. With a window
// nothing else clears it: the linger, which does, never runs.
func (c *Coordinator) compactOrder() {
	live := c.visOrder[:0]
	for i, to := range c.visOrder {
		if q, ok := c.vis[to]; ok && q.at == i {
			q.at = len(live)
			c.vis[to] = q
			live = append(live, to)
		}
	}
	clear(c.visOrder[len(live):])
	c.visOrder = live
}

// leave sends a queue taken out of vis, with msg (when not nil) behind
// it, by the one coalescing rule (transport.SendCoalesced), and counts
// what left.
func (c *Coordinator) leave(to transport.NodeID, q visQueue, msg transport.Message) {
	if len(q.rest) == 0 && msg == nil {
		c.sent.singles.Add(1)
		c.net.Send(c.id, to, q.head)
		return
	}
	items := make([]transport.Envelope, 0, len(q.rest)+2)
	items = append(items, transport.Envelope{From: c.id, To: to, Msg: q.head})
	items = append(items, q.rest...)
	if msg != nil {
		items = append(items, transport.Envelope{From: c.id, To: to, Msg: msg})
	}
	c.sent.envelopes.Add(1)
	c.sent.batched.Add(int64(len(items)))
	transport.SendCoalesced(c.net, c.id, to, items)
}

// FlushVisibility sends every queue now — the visibility it mostly holds,
// and open windows with it — replica by replica in the order the queues
// began, and disarms the linger timer. The linger calls it; a process
// about to exit has it run through PostFlush, so no outcome is left for
// the replicas' dangling-option sweep.
func (c *Coordinator) FlushVisibility() {
	if c.visTimer != nil {
		c.visTimer.Stop()
		c.visTimer = nil
	}
	for i, to := range c.visOrder {
		// A queue that left early has no entry or, begun again, a later index.
		if q, ok := c.vis[to]; ok && q.at == i {
			c.leave(to, q, nil)
		}
	}
	clear(c.vis)
	clear(c.visOrder)
	c.visOrder = c.visOrder[:0]
}

// PostFlush runs FlushVisibility on the coordinator's own node and
// returns a channel closed once it has: what the coordinator owed the
// replicas is then with the transport. A process about to exit waits on
// it, with a bound; on the simulator nothing runs until the caller
// returns, so no caller there waits.
func (c *Coordinator) PostFlush() <-chan struct{} {
	done := make(chan struct{})
	c.net.After(c.id, 0, func() {
		c.FlushVisibility()
		close(done)
	})
	return done
}

// Batches reports what left the queue: Batch envelopes, the messages they
// carried, and queued messages that left alone. Safe from any goroutine.
func (c *Coordinator) Batches() (envelopes, batched, singles int64) {
	return c.sent.envelopes.Load(), c.sent.batched.Load(), c.sent.singles.Load()
}

// ID returns the coordinator's node identity.
func (c *Coordinator) ID() transport.NodeID { return c.id }

// SetEscrowObserver installs a callback for the escrow snapshots
// acceptors piggyback on votes and read replies. Call before the
// network starts delivering to this coordinator; the callback fires
// on the coordinator's handler goroutine for every snapshot, including
// ones on late or duplicate votes (freshness is the point).
func (c *Coordinator) SetEscrowObserver(obs func(from transport.NodeID, key record.Key, snap EscrowSnap)) {
	c.escrowObs = obs
}

// SetBatchWindow gives this coordinator's queue a window of d (see vis):
// every message it sends waits up to d for company bound to the same
// replica, so the messages of different transactions share one
// transport.Batch (§7's batching, across transactions; a gateway's
// coordinator). d <= 0, the default, sends what must go at once. Call
// before the network starts delivering to this coordinator.
func (c *Coordinator) SetBatchWindow(d time.Duration) { c.window = d }

func (c *Coordinator) observeEscrow(from transport.NodeID, key record.Key, snap EscrowSnap) {
	if c.escrowObs != nil && snap.Valid {
		c.escrowObs(from, key, snap)
	}
}

func (c *Coordinator) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case transport.Batch:
		for _, item := range m.Items {
			c.handle(item)
		}
	case MsgReadReply:
		c.onReadReply(env.From, m)
	case MsgVoteBatch:
		for _, v := range m.Votes {
			c.onVote(env.From, v)
		}
	case MsgLearned:
		c.onLearned(m)
	}
}

// Read fetches committed state from the nearest replica (read
// committed, §4.1: uncommitted options are never visible). On
// timeout it retries the next data center; after a full rotation the
// callback reports absence. The value is the caller's own.
func (c *Coordinator) Read(key record.Key, cb func(val record.Value, ver record.Version, exists bool)) {
	c.ReadEncoded(key, func(val record.Encoded, ver record.Version, exists bool) { cb(val.Decode(), ver, exists) })
}

// ReadEncoded is Read answering with the replica's bytes, which are
// shared and must not be written into.
func (c *Coordinator) ReadEncoded(key record.Key, cb func(val record.Encoded, ver record.Version, exists bool)) {
	c.read(&readCtx{key: key, cb: cb})
}

func (c *Coordinator) read(rc *readCtx) {
	c.reqSeq++
	req := c.reqSeq
	c.reads[req] = rc
	c.sendRead(req, rc)
}

func (c *Coordinator) sendRead(req uint64, rc *readCtx) {
	dc := topology.DC((int(c.dc) + rc.attempt) % topology.NumDCs)
	c.send(c.cl.ReplicaIn(rc.key, dc), MsgRead{ReqID: req, Key: rc.key})
	rc.timer = c.net.After(c.id, c.cfg.ReadTimeout, func() {
		cur, ok := c.reads[req]
		if !ok || cur != rc {
			return
		}
		rc.attempt++
		if rc.attempt >= topology.NumDCs {
			delete(c.reads, req)
			c.m.ReadFails++
			rc.cb(nil, 0, false)
			return
		}
		c.m.ReadRetries++
		c.sendRead(req, rc)
	})
}

func (c *Coordinator) onReadReply(from transport.NodeID, m MsgReadReply) {
	c.observeEscrow(from, m.Key, m.Escrow)
	rc, ok := c.reads[m.ReqID]
	if !ok {
		return
	}
	if rc.quorum > 0 {
		if _, dup := rc.replies[from]; dup {
			return
		}
		rc.replies[from] = m
		if rc.best == nil || m.Version > rc.best.Version {
			cp := m
			rc.best = &cp
		}
		if len(rc.replies) < rc.quorum {
			return
		}
		delete(c.reads, m.ReqID)
		if rc.timer != nil {
			rc.timer.Stop()
		}
		rc.cb(rc.best.Value, rc.best.Version, rc.best.Exists)
		return
	}
	delete(c.reads, m.ReqID)
	if rc.timer != nil {
		rc.timer.Stop()
	}
	rc.cb(m.Value, m.Version, m.Exists)
}

// ReadQuorum performs an up-to-date read (§4.2): it contacts every
// replica, waits for a majority, and returns the freshest committed
// state among them. Any committed version is newer-or-equal to what a
// majority read can miss, because visibility reaches a majority
// before a later version can be chosen by a classic quorum — and a
// fast-quorum commit intersects every majority.
func (c *Coordinator) ReadQuorum(key record.Key, cb func(val record.Value, ver record.Version, exists bool)) {
	c.ReadQuorumEncoded(key, func(val record.Encoded, ver record.Version, exists bool) { cb(val.Decode(), ver, exists) })
}

// ReadQuorumEncoded is ReadQuorum answering with the bytes, shared as
// ReadEncoded's are.
func (c *Coordinator) ReadQuorumEncoded(key record.Key, cb func(val record.Encoded, ver record.Version, exists bool)) {
	c.readQuorum(&readCtx{key: key, cb: cb})
}

func (c *Coordinator) readQuorum(rc *readCtx) {
	c.reqSeq++
	req := c.reqSeq
	rc.quorum = c.q.Classic
	rc.replies = make(map[transport.NodeID]MsgReadReply, c.q.N)
	c.reads[req] = rc
	for _, rep := range c.cl.Replicas(rc.key) {
		c.send(rep, MsgRead{ReqID: req, Key: rc.key})
	}
	// One generous deadline: answer with the best seen, or absent.
	rc.timer = c.net.After(c.id, 4*c.cfg.ReadTimeout, func() {
		cur, ok := c.reads[req]
		if !ok || cur != rc {
			return
		}
		delete(c.reads, req)
		c.m.ReadFails++
		if rc.best != nil {
			rc.cb(rc.best.Value, rc.best.Version, rc.best.Exists)
			return
		}
		rc.cb(nil, 0, false)
	})
}

// Commit runs the MDCC commit protocol over a write-set (§3.2.1):
// propose an option per update, learn them all, commit iff every
// option is accepted, then make the outcome visible asynchronously.
// The transaction cannot be aborted unilaterally once proposed — the
// outcome is a deterministic function of the learned options.
func (c *Coordinator) Commit(updates []record.Update, done func(CommitResult)) {
	c.rotateLane()
	tx := c.txID()
	if len(updates) == 0 {
		c.m.Commits++
		done(CommitResult{Tx: tx, Committed: true})
		return
	}
	writeSet := make([]record.Key, 0, len(updates))
	writeSeqs := make([]uint64, 0, len(updates))
	for _, up := range updates {
		writeSet = append(writeSet, up.Key)
		// Mint the option's lineage identity: the per-(coordinator
		// incarnation, key) proposal sequence (see LineageSummary).
		seq, _ := c.keySeqs.Get(string(up.Key))
		seq++
		c.keySeqs.Put(string(up.Key), seq)
		writeSeqs = append(writeSeqs, seq)
	}
	t := &txCtx{
		id:        tx,
		opts:      make(map[OptionID]*optCtx, len(updates)),
		remaining: len(updates),
		done:      done,
	}
	if c.tr != nil {
		t.startAt = c.net.Now().UnixNano()
	}
	c.txs[tx] = t
	// Fast-path proposals for the whole write-set are grouped per
	// destination node (§7's batching optimization; see toReplicas).
	var fast []Option
	for i, up := range updates {
		opt := Option{Tx: tx, Coord: c.id, Update: up, WriteSet: writeSet,
			KeySeq: writeSeqs[i], WriteSeqs: writeSeqs}
		oc := &optCtx{opt: opt, votes: make(map[transport.NodeID]Decision)}
		t.opts[opt.ID()] = oc
		dest, viaLeader := c.route(up.Key)
		if c.tr != nil {
			var fl uint8
			if !viaLeader {
				fl = trace.FlagFast | trace.FlagBatched
			}
			c.tr.Add(trace.Event{At: t.startAt, Tx: string(tx), Key: string(up.Key),
				Stage: trace.StagePropose, Flags: fl, Arg: int64(c.q.N)})
		}
		if viaLeader {
			c.send(dest, MsgProposeLeader{Opt: opt})
		} else {
			if fast == nil {
				fast = make([]Option, 0, len(updates))
			}
			fast = append(fast, opt)
		}
		c.armOptionTimer(t, oc)
	}
	toReplicas(c.cl, fast, func(o Option) record.Key { return o.Update.Key }, proposeMsg, c.send)
}

// toReplicas hands every replica of the items' keys its share of the
// items, boxed by box, to out. While every key has the same replicas (one
// shard), all of them get one message, built and boxed once; receivers
// only read it. Otherwise each replica gets its own, replicas in the
// order the items first name them (a deterministic send order for the
// simulator).
func toReplicas[T any](cl *topology.Cluster, items []T, key func(T) record.Key,
	box func([]T) transport.Message, out func(transport.NodeID, transport.Message)) {
	if len(items) == 0 {
		return
	}
	reps := cl.Replicas(key(items[0]))
	spans := false
	for _, it := range items[1:] {
		if !sameReplicas(reps, cl.Replicas(key(it))) {
			spans = true
			break
		}
	}
	if !spans {
		msg := box(items)
		for _, rep := range reps {
			out(rep, msg)
		}
		return
	}
	byNode := make(map[transport.NodeID][]T)
	var order []transport.NodeID
	for _, it := range items {
		for _, rep := range cl.Replicas(key(it)) {
			if _, seen := byNode[rep]; !seen {
				order = append(order, rep)
			}
			byNode[rep] = append(byNode[rep], it)
		}
	}
	for _, rep := range order {
		out(rep, box(byNode[rep]))
	}
}

// sameReplicas reports whether two Cluster.Replicas answers are one
// shard's slice.
func sameReplicas(a, b []transport.NodeID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// route decides where a key's proposal goes: (leader, true) for the
// master path (Multi mode or a fresh classic-window hint), or
// (_, false) for the fast path.
func (c *Coordinator) route(key record.Key) (transport.NodeID, bool) {
	if c.cfg.Mode == ModeMulti {
		return c.leaderFor(key), true
	}
	if h, ok := c.hints[key]; ok && c.net.Now().Before(h.expiry) {
		return h.leader, true
	}
	return "", false
}

func (c *Coordinator) leaderFor(key record.Key) transport.NodeID {
	return c.cl.ReplicaIn(key, c.cfg.masterDC(key))
}

// armOptionTimer schedules recovery if the option is not learned in
// time. Repeated attempts rotate the leader DC so a failed master
// data center cannot stall the transaction.
func (c *Coordinator) armOptionTimer(t *txCtx, oc *optCtx) {
	delay := c.cfg.OptionTimeout
	if oc.attempts > 0 {
		delay = c.cfg.RecoveryRetry
	}
	oc.timer = c.net.After(c.id, delay, func() {
		cur, ok := c.txs[t.id]
		if !ok || cur != t || oc.learned != DecUnknown {
			return
		}
		c.startRecovery(t, oc)
	})
}

func (c *Coordinator) startRecovery(t *txCtx, oc *optCtx) {
	key := oc.opt.Update.Key
	masterDC := c.cfg.masterDC(key)
	dc := topology.DC((int(masterDC) + oc.attempts) % topology.NumDCs)
	oc.attempts++
	c.m.Recoveries++
	if c.tr != nil {
		c.tr.Add(trace.Event{At: c.net.Now().UnixNano(), Tx: string(t.id), Key: string(key),
			Stage: trace.StageRecovery, Arg: int64(oc.attempts)})
	}
	c.send(c.cl.ReplicaIn(key, dc), MsgStartRecovery{Key: key, Opt: oc.opt, HasOpt: true})
	c.armOptionTimer(t, oc)
}

// onVote tallies fast-path Phase2b votes. An option is learned
// accepted/rejected at a fast quorum of identical votes; if every
// replica has voted and neither decision can reach the fast quorum,
// that is a collision and the master must resolve it classically.
func (c *Coordinator) onVote(from transport.NodeID, m MsgVote) {
	// Escrow snapshots are folded in even when the vote itself is late
	// or duplicated — every vote is a freshness sample.
	c.observeEscrow(from, m.OptID.Key, m.Escrow)
	t, ok := c.txs[m.OptID.Tx]
	if !ok {
		return
	}
	oc, ok := t.opts[m.OptID]
	if !ok || oc.learned != DecUnknown {
		return
	}
	if m.WrongGroup {
		// A shard move re-homed the key: the node we routed to no
		// longer owns it. Drop the stale leader hint and re-dispatch
		// the option under the current ring — once; if the refusal
		// recurs the option timer's recovery path takes over.
		key := m.OptID.Key
		if c.tr != nil {
			c.tr.Add(trace.Event{At: c.net.Now().UnixNano(), Tx: string(t.id), Key: string(key),
				Stage: trace.StageWrongShard})
		}
		delete(c.hints, key)
		if !oc.rerouted {
			oc.rerouted = true
			c.m.WrongGroupReroutes++
			if dest, viaLeader := c.route(key); viaLeader {
				c.send(dest, MsgProposeLeader{Opt: oc.opt})
			} else {
				for _, rep := range c.cl.Replicas(key) {
					c.send(rep, proposeMsg([]Option{oc.opt}))
				}
			}
		}
		return
	}
	if m.Forwarded {
		// Record is in a classic window; remember its leader so the
		// next transactions skip the wasted fast round.
		c.hints[m.OptID.Key] = leaderHint{leader: m.Leader, expiry: c.net.Now().Add(hintTTL)}
		return
	}
	if _, dup := oc.votes[from]; dup {
		return
	}
	oc.votes[from] = m.Decision
	if c.tr != nil {
		// Per-DC vote round trip: propose time → this voter's reply.
		if vdc, ok := c.cl.NodeDC(from); ok {
			c.cfg.Tracer.ObservePhase(trace.PhaseVote, int(vdc),
				time.Duration(c.net.Now().UnixNano()-t.startAt))
		}
	}
	if m.Decision == DecAccept {
		oc.accepts++
	} else {
		oc.rejects++
		if oc.reason == ReasonNone {
			oc.reason = m.Reason
		}
	}
	switch {
	case c.q.FastLearned(oc.accepts):
		c.m.FastLearns++
		c.learnEvent(t, oc, DecAccept, true)
		c.learn(t, oc, DecAccept)
	case c.q.FastLearned(oc.rejects):
		c.m.FastLearns++
		// Algorithm 1 lines 24-26: a commutative option rejected in a
		// fast ballot signals the quorum demarcation limit was hit, so
		// the master must run a classic round to write a fresh base
		// value (and recalculate the limit). The transaction still
		// aborts; the recovery is for the record's sake.
		if oc.opt.Update.Kind == record.KindCommutative {
			key := oc.opt.Update.Key
			c.send(c.leaderFor(key), MsgStartRecovery{Key: key})
		}
		c.learnEvent(t, oc, DecReject, true)
		c.learn(t, oc, DecReject)
	case len(oc.votes) == c.q.N:
		// Collision: no fast quorum is possible in this ballot.
		c.m.Collisions++
		c.startRecovery(t, oc)
	}
}

// onLearned applies a leader's authoritative decision.
func (c *Coordinator) onLearned(m MsgLearned) {
	// Classic-path learns carry the leader replica's escrow snapshot —
	// the only freshness channel for records inside a γ window.
	c.observeEscrow("", m.OptID.Key, m.Escrow)
	t, ok := c.txs[m.OptID.Tx]
	if !ok {
		return
	}
	oc, ok := t.opts[m.OptID]
	if !ok || oc.learned != DecUnknown {
		return
	}
	if m.Decision == DecReject && oc.reason == ReasonNone {
		oc.reason = m.Reason
	}
	c.m.LeaderLearns++
	c.learnEvent(t, oc, m.Decision, false)
	c.learn(t, oc, m.Decision)
}

// learnEvent records an option's learned decision in the flight
// recorder, labeled fast (quorum of identical votes) or classic
// (leader's authoritative MsgLearned).
func (c *Coordinator) learnEvent(t *txCtx, oc *optCtx, d Decision, fast bool) {
	if c.tr == nil {
		return
	}
	var fl uint8
	if fast {
		fl = trace.FlagFast
	}
	if d == DecAccept {
		fl |= trace.FlagAccept
	} else {
		fl |= trace.FlagReject
	}
	c.tr.Add(trace.Event{At: c.net.Now().UnixNano(), Tx: string(t.id),
		Key: string(oc.opt.Update.Key), Stage: trace.StageLearn, Flags: fl,
		Arg: int64(len(oc.votes))})
}

// learn finalizes one option and, once the outcome is determined,
// the transaction: commit iff all options accepted (just as in 2PC's
// decision rule, but evaluated over quorum-learned options).
func (c *Coordinator) learn(t *txCtx, oc *optCtx, d Decision) {
	oc.learned = d
	if oc.timer != nil {
		oc.timer.Stop()
	}
	t.remaining--
	if d == DecReject {
		if oc.reason == ReasonMixedKinds && t.rejErr == nil {
			t.rejErr = ErrMixedUpdateKinds
		}
		c.finish(t, false)
		return
	}
	if t.remaining == 0 {
		c.finish(t, true)
	}
}

// finish settles the transaction: visibility to every replica of
// every written record (asynchronous — it does not gate the commit
// response, §3.2.1), then the application callback. Visibility for
// the whole write-set is batched per destination node — one message for
// all replicas when the write set lies in one shard — and queued to
// ride the coordinator's next send to each replica (see vis).
func (c *Coordinator) finish(t *txCtx, commit bool) {
	delete(c.txs, t.id)
	// Deterministic option order (map iteration would randomize the
	// simulator's jitter stream).
	ids := make([]OptionID, 0, len(t.opts))
	for id := range t.opts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Key < ids[j].Key })
	vis := make([]MsgVisibility, 0, len(ids))
	for _, id := range ids {
		oc := t.opts[id]
		if oc.timer != nil {
			oc.timer.Stop()
		}
		vis = append(vis, visibilityFor(oc.opt, commit))
	}
	toReplicas(c.cl, vis, func(v MsgVisibility) record.Key { return v.Opt.Update.Key },
		visibilityMsg, c.queueVisibility)
	if commit {
		c.m.Commits++
	} else {
		c.m.Aborts++
	}
	res := CommitResult{Tx: t.id, Committed: commit}
	if !commit {
		res.Err = t.rejErr
	}
	for _, id := range ids {
		oc := t.opts[id]
		if oc.attempts > 0 {
			res.Recovered = true
		}
		if oc.rerouted {
			res.Rerouted = true
		}
	}
	if c.tr != nil {
		now := c.net.Now().UnixNano()
		outcome, fl := uint8(trace.FlagCommit), uint8(trace.FlagCommit)
		if !commit {
			outcome, fl = trace.FlagAbort, trace.FlagAbort
		}
		keys := make([]string, 0, len(ids))
		for _, id := range ids {
			keys = append(keys, string(id.Key))
		}
		c.tr.Add(trace.Event{At: now, Tx: string(t.id), Stage: trace.StageCommit,
			Flags: fl, Arg: int64(len(ids))})
		c.cfg.Tracer.ObservePhase(trace.PhaseQuorum, -1, time.Duration(now-t.startAt))
		c.cfg.Tracer.Complete(string(t.id), keys, t.startAt, now, outcome, res.Recovered, res.Rerouted, false)
	}
	t.done(res)
}

// proposeMsg boxes one replica's fast-path proposals.
func proposeMsg(opts []Option) transport.Message { return MsgProposeBatch{Opts: opts} }

// visibilityMsg boxes one replica's visibility for a transaction: a lone
// item bare, more as one MsgVisibilityBatch.
func visibilityMsg(items []MsgVisibility) transport.Message {
	if len(items) == 1 {
		return items[0]
	}
	return MsgVisibilityBatch{Items: items}
}

// CoordMetrics reports coordinator-side counters.
type CoordMetrics struct {
	Commits, Aborts        int64
	FastLearns             int64
	LeaderLearns           int64
	Recoveries, Collisions int64
	ReadRetries, ReadFails int64
	// WrongGroupReroutes counts proposals re-dispatched after a node
	// refused them because a shard move re-homed the key.
	WrongGroupReroutes int64
}

// Add accumulates another snapshot into m (harnesses sum many
// coordinators into one report).
func (m *CoordMetrics) Add(o CoordMetrics) {
	m.Commits += o.Commits
	m.Aborts += o.Aborts
	m.FastLearns += o.FastLearns
	m.LeaderLearns += o.LeaderLearns
	m.Recoveries += o.Recoveries
	m.Collisions += o.Collisions
	m.ReadRetries += o.ReadRetries
	m.ReadFails += o.ReadFails
	m.WrongGroupReroutes += o.WrongGroupReroutes
}

// Metrics returns a snapshot of this coordinator's counters.
func (c *Coordinator) Metrics() CoordMetrics { return c.m }

// Client is the coordinator behind the harnesses' uniform client
// interface (mtx.Client, whose unnamed signatures it matches without
// importing it): Commit reports just the outcome, and commutative
// updates run natively exactly when the mode is full MDCC.
type Client struct{ c *Coordinator }

// Client returns the coordinator's mtx.Client view.
func (c *Coordinator) Client() Client { return Client{c} }

func (cl Client) Read(key record.Key, cb func(val record.Value, ver record.Version, exists bool)) {
	cl.c.Read(key, cb)
}
func (cl Client) Commit(updates []record.Update, done func(committed bool)) {
	cl.c.Commit(updates, func(r CommitResult) { done(r.Committed) })
}
func (cl Client) SupportsCommutative() bool { return cl.c.cfg.Mode == ModeMDCC }
