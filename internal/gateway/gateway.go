// Package gateway implements a data-center-local transaction gateway
// tier for MDCC. The paper places a coordinator library in every
// application server; at "millions of users" scale that means a
// per-session coordinator and per-transaction messages melting the
// acceptors. A Gateway instead:
//
//   - runs one core.Coordinator and multiplexes all attached client
//     sessions onto it (sessions are stateless with respect to the
//     protocol, so one coordinator can carry every transaction);
//   - gives that coordinator a batch window, so its outbound protocol
//     messages bound for the same acceptor within a small time/size
//     window leave as one transport.Batch envelope (cross-transaction
//     batching — the §7 optimization generalized beyond one
//     transaction; core.Coordinator.SetBatchWindow);
//   - merges *commutative* updates to the same hot key from
//     concurrent transactions into one merged option per coalescing
//     window, so a stock-decrement stampede costs O(windows) Paxos
//     work instead of O(transactions). Each client delta is still
//     individually accounted: admission into a window is checked
//     delta-by-delta against an exact headroom account fed by the
//     escrow snapshots acceptors piggyback on every vote and read
//     reply (base value + pending escrow sums per constrained
//     attribute — the same inputs the acceptor's own demarcation
//     check uses, so the gateway is never looser than the acceptor).
//     The merged update carries the number of client updates it
//     represents (record.Update.Merged) so version accounting stays
//     exact, and a rejected merge is split and re-run per transaction
//     so over-aggregation can never abort a transaction that would
//     have committed alone. Because the piggybacked pending sums
//     include every gateway's in-flight deltas, the per-DC gateways
//     share demarcation headroom through the same channel (each
//     additionally caps its locally-unconfirmed outstanding deltas at
//     a slice of the snapshot headroom, one share per contending
//     gateway, instead of assuming the full local slice);
//   - applies admission control: a bounded in-flight window plus a
//     bounded FIFO backlog, beyond which transactions fail fast with
//     ErrOverloaded instead of stacking unbounded queues onto the
//     acceptors;
//   - serves reads from memory its DC's visibility feeds keep fresh,
//     falling back to one shared RPC of the local replica (readtier.go).
//     It never re-reads for a session floor: mtx.ReadAtFloor does.
//
// Correctness envelope: coalescing is an optimization only. Merged
// options travel the unmodified MDCC commit path (fast ballots,
// demarcation, recovery), acceptors remain the arbiter of every
// constraint, and the gateway's demarcation accounting merely decides
// how much to merge. Atomicity is preserved because only
// single-update commutative transactions are merged; multi-update
// transactions pass through untouched.
package gateway

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/ring"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// ErrOverloaded is reported when admission control sheds a
// transaction: the in-flight window and the backlog are both full.
var ErrOverloaded = errors.New("gateway: overloaded, transaction shed")

// ErrClosed is reported for transactions submitted to (or queued in)
// a gateway that has shut down.
var ErrClosed = errors.New("gateway: closed")

// ErrOutcomeUnknown is reported for transactions a killed gateway had
// already dispatched into the protocol: their options may have been
// proposed (and may still commit via the dangling-option sweep), but
// the acknowledgement died with the process. See Kill. The public
// mdcc.ErrOutcomeUnknown (like mdcc.ErrOverloaded and mdcc.ErrClosed)
// is this value.
var ErrOutcomeUnknown = errors.New("gateway: transaction outcome unknown (gateway crashed before acknowledgement)")

// Tuning shapes one gateway. The zero value means defaults.
type Tuning struct {
	// BatchWindow is how long an outbound message may wait for
	// same-destination company (core.Coordinator.SetBatchWindow). 0 means
	// core.BatchWindow; a negative window disables cross-transaction
	// batching.
	BatchWindow time.Duration
	// CoalesceWindow is how long a hot-key commutative update may wait
	// to be merged with others. 0 means the 5ms default; a negative
	// window disables coalescing.
	CoalesceWindow time.Duration
	// MaxInflight bounds concurrently executing transactions
	// (default 4096).
	MaxInflight int
	// MaxQueue bounds the backlog beyond MaxInflight; overflow is shed
	// with ErrOverloaded (default 16384).
	MaxQueue int
	// DisableReadTier turns the learned-replica read tier off: reads
	// go through the gateway's coordinator as one RPC each (the pre-tier
	// behavior; also the read benchmark's baseline arm).
	DisableReadTier bool
}

// coalesceMax caps client updates merged into one option.
const coalesceMax = 64

func (t Tuning) withDefaults() Tuning {
	if t.BatchWindow == 0 {
		t.BatchWindow = core.BatchWindow
	}
	if t.CoalesceWindow == 0 {
		t.CoalesceWindow = 5 * time.Millisecond
	}
	if t.MaxInflight <= 0 {
		t.MaxInflight = 4096
	}
	if t.MaxQueue <= 0 {
		t.MaxQueue = 16384
	}
	return t
}

// snapTTL bounds how long a headroom account may go without a fresh
// piggybacked escrow snapshot before a read is issued to refresh it
// (hot keys refresh for free on every vote; this is the idle-key
// fallback).
const snapTTL = time.Second

// GatewayID names the gateway node of a data center.
func GatewayID(dc topology.DC) transport.NodeID {
	return transport.NodeID("gw/" + dc.String())
}

// coordID names the gateway's coordinator; core.GatewayGroup maps it
// to the gateway's own admission-sharing group.
func coordID(dc topology.DC) transport.NodeID {
	return transport.NodeID("gw/" + dc.String() + "/c0")
}

// NodeIDs lists both transport nodes a gateway for dc registers (the
// gateway itself and its coordinator). The Tuning is not read. Only the
// benchmark module still calls it; in-repo deployments place gateways
// with server.GatewayPlacement.
func NodeIDs(dc topology.DC, _ Tuning) []transport.NodeID {
	return RouteIDs(dc)
}

// RouteIDs lists every transport id a *peer* process must be able to
// route back to a gateway possibly hosted in dc: acceptor votes,
// leader decisions and read replies flow directly to the gateway's
// coordinator, feed messages to the gateway itself, and both live on
// the gateway DC's server.
func RouteIDs(dc topology.DC) []transport.NodeID {
	return []transport.NodeID{GatewayID(dc), coordID(dc)}
}

// Metrics is a gateway's operational snapshot.
type Metrics struct {
	// Commits / Aborts count settled client transactions (aborts
	// include admission sheds).
	Commits int64 `json:"commits"`
	Aborts  int64 `json:"aborts"`

	// Submitted counts client transactions entering the gateway;
	// Passthrough those dispatched unmodified; Coalesced the client
	// updates that joined a hot-key merge window; CoalesceBypass the
	// coalescible updates sent individually because the gateway's
	// demarcation view had no headroom for a merge.
	Submitted      int64 `json:"submitted"`
	Passthrough    int64 `json:"passthrough"`
	Coalesced      int64 `json:"coalesced"`
	CoalesceBypass int64 `json:"coalesceBypass"`
	// MergedOptions counts merged proposals issued (windows flushed
	// with >= 2 waiters), MergedUpdates the client updates inside
	// them, MergeSplits merged proposals that were rejected and re-run
	// per transaction.
	MergedOptions int64 `json:"mergedOptions"`
	MergedUpdates int64 `json:"mergedUpdates"`
	MergeSplits   int64 `json:"mergeSplits"`
	// CoalesceRatio is MergedUpdates / Submitted.
	CoalesceRatio float64 `json:"coalesceRatio"`

	// Exact escrow accounting (acceptor-piggybacked). EscrowUpdates
	// counts snapshots folded into headroom accounts, EscrowStale
	// snapshots ignored because a fresher version was already held.
	EscrowUpdates int64 `json:"escrowUpdates"`
	EscrowStale   int64 `json:"escrowStale"`
	// TrackedKeys (gauge) is the number of keys with a live headroom
	// account; MinHeadroom (gauge) is the tightest remaining shared
	// demarcation headroom across them (-1 = no constrained key
	// tracked). MinHeadroom at 0 with traffic flowing means admission
	// is bypassing merges and letting acceptors arbitrate.
	TrackedKeys int64 `json:"trackedKeys"`
	MinHeadroom int64 `json:"minHeadroom"`

	// Learned-replica read tier. LocalReads counts reads served from
	// the materialized store with zero RPCs; ReadRPCs single-flight
	// fallback reads dispatched (cold keys, dead feeds, floor
	// outruns); ReadCoalesced callers who shared an already-in-flight
	// fallback; ReadQuorums up-to-date quorum reads served (ReadQuorum
	// and MsgRead.Quorum, which is how a session re-reads a key whose
	// answer lagged its floor). LocalReadFrac is LocalReads over all
	// reads served.
	LocalReads    int64   `json:"localReads"`
	ReadRPCs      int64   `json:"readRPCs"`
	ReadCoalesced int64   `json:"readCoalesced"`
	ReadQuorums   int64   `json:"readQuorums"`
	LocalReadFrac float64 `json:"localReadFrac"`
	// Feed stream health. FeedMsgs/FeedItems count consumed in-order
	// feed messages and the key states inside them; FeedGaps sequence
	// holes detected (each triggers a resync); FeedDrops feeds marked
	// dead after feedTTL of silence; FeedResubs subscriptions sent
	// (initial + resyncs); FeedStaleMsgs duplicates and dead-epoch
	// messages discarded. MaterializedKeys (gauge) is how many keys
	// hold a served value; FeedsLive (gauge) how many local shard
	// streams currently bound staleness.
	FeedMsgs         int64 `json:"feedMsgs"`
	FeedItems        int64 `json:"feedItems"`
	FeedGaps         int64 `json:"feedGaps"`
	FeedDrops        int64 `json:"feedDrops"`
	FeedResubs       int64 `json:"feedResubs"`
	FeedStaleMsgs    int64 `json:"feedStaleMsgs"`
	MaterializedKeys int64 `json:"materializedKeys"`
	FeedsLive        int64 `json:"feedsLive"`

	// Admission control.
	AdmissionRejects int64 `json:"admissionRejects"`
	Inflight         int64 `json:"inflight"`
	QueueDepth       int64 `json:"queueDepth"`
	QueuePeak        int64 `json:"queuePeak"`

	// Cross-transaction batching (outbound, from the coordinator).
	// BatchFanIn is BatchedMsgs / BatchEnvelopes.
	BatchEnvelopes int64   `json:"batchEnvelopes"`
	BatchedMsgs    int64   `json:"batchedMsgs"`
	BatchSingles   int64   `json:"batchSingles"`
	BatchFanIn     float64 `json:"batchFanIn"`

	// Shard ring. WrongShardRetries counts commits refused with
	// ring.ErrWrongShard (admission frozen for a live move) — each
	// refusal is a client retry, never a duplicated transaction. RingEpoch (gauge) is the ring epoch this
	// gateway routes under; Add keeps the max.
	WrongShardRetries int64 `json:"wrongShardRetries"`
	RingEpoch         int64 `json:"ringEpoch"`
}

// Add accumulates another gateway's counters into m (QueuePeak takes
// the max, gauges sum); call Finalize after the last Add to recompute
// the derived ratios.
func (m *Metrics) Add(o Metrics) {
	m.Commits += o.Commits
	m.Aborts += o.Aborts
	m.Submitted += o.Submitted
	m.Passthrough += o.Passthrough
	m.Coalesced += o.Coalesced
	m.CoalesceBypass += o.CoalesceBypass
	m.MergedOptions += o.MergedOptions
	m.MergedUpdates += o.MergedUpdates
	m.MergeSplits += o.MergeSplits
	m.EscrowUpdates += o.EscrowUpdates
	m.EscrowStale += o.EscrowStale
	switch {
	case m.TrackedKeys == 0:
		m.MinHeadroom = o.MinHeadroom // m had no accounts; take o's gauge verbatim
	case o.TrackedKeys > 0 && o.MinHeadroom >= 0 &&
		(m.MinHeadroom < 0 || o.MinHeadroom < m.MinHeadroom):
		m.MinHeadroom = o.MinHeadroom
	}
	m.TrackedKeys += o.TrackedKeys
	m.LocalReads += o.LocalReads
	m.ReadRPCs += o.ReadRPCs
	m.ReadCoalesced += o.ReadCoalesced
	m.ReadQuorums += o.ReadQuorums
	m.FeedMsgs += o.FeedMsgs
	m.FeedItems += o.FeedItems
	m.FeedGaps += o.FeedGaps
	m.FeedDrops += o.FeedDrops
	m.FeedResubs += o.FeedResubs
	m.FeedStaleMsgs += o.FeedStaleMsgs
	m.MaterializedKeys += o.MaterializedKeys
	m.FeedsLive += o.FeedsLive
	m.AdmissionRejects += o.AdmissionRejects
	m.Inflight += o.Inflight
	m.QueueDepth += o.QueueDepth
	if o.QueuePeak > m.QueuePeak {
		m.QueuePeak = o.QueuePeak
	}
	m.BatchEnvelopes += o.BatchEnvelopes
	m.BatchedMsgs += o.BatchedMsgs
	m.BatchSingles += o.BatchSingles
	m.WrongShardRetries += o.WrongShardRetries
	if o.RingEpoch > m.RingEpoch {
		m.RingEpoch = o.RingEpoch
	}
}

// Finalize recomputes the derived ratios from the summed counters.
func (m *Metrics) Finalize() {
	m.CoalesceRatio = 0
	if m.Submitted > 0 {
		m.CoalesceRatio = float64(m.MergedUpdates) / float64(m.Submitted)
	}
	m.BatchFanIn = 0
	if m.BatchEnvelopes > 0 {
		m.BatchFanIn = float64(m.BatchedMsgs) / float64(m.BatchEnvelopes)
	}
	m.LocalReadFrac = 0
	if served := m.LocalReads + m.ReadRPCs + m.ReadCoalesced; served > 0 {
		m.LocalReadFrac = float64(m.LocalReads) / float64(served)
	}
}

// clientTx is one client transaction the gateway holds, in the backlog,
// parked in a merge window or dispatched: its write-set, its completion
// callback and flight-recorder context, and, once its deltas are in the
// outstanding account, the tracks that retire them (trackOutLocked).
type clientTx struct {
	updates []record.Update
	track   []outTrack
	done    func(committed bool, err error)
	span    *gwSpan
}

// mergeWindow accumulates commutative deltas for one hot key.
type mergeWindow struct {
	sum     map[string]int64
	waiters []clientTx
	timer   transport.Timer
}

// attrAccount is the gateway's mirror of one constrained attribute's
// escrow state at the last adopted snapshot: committed base plus the
// acceptor-side worst-case pending sums (which include every
// gateway's in-flight deltas — the shared-headroom channel).
type attrAccount struct {
	base     int64
	pendDown int64 // <= 0
	pendUp   int64 // >= 0
}

// keyState is the gateway's per-key state. Every tracked key keeps its
// read part, 64 bytes: the materialized committed state of the
// learned-replica read tier — the freshest (value, version) observed
// for the key via the visibility feed or fallback read replies — and
// its two clocks. confirmed reports the key is registered in the
// shard's interest set — proven by the stream echoing the key back —
// which is what licenses serving it from memory: an RPC-installed
// value whose interest-add was lost would otherwise go stale silently
// under a live feed that simply never carries the key. val is the
// bytes the feed item or read reply carried, shared and never written
// into: an install replaces the slice, a remote read's reply carries
// it as is, and a local caller's read decodes a Value of its own.
//
// A key this gateway coalesces or accounts escrow on also has an
// escrow part (esc). Where no constraint is declared a physical key
// never does: no snapshot is valid, and physical writes carry no
// delta.
type keyState struct {
	val     record.Encoded
	valVer  record.Version
	readAt  int64 // last served read, UnixNano (the eviction clock)
	askedAt int64 // last interest-add sent, UnixNano (resend throttle); 0 = none
	// esc is the escrow part, nil until the key's first valid escrow
	// snapshot, outstanding delta or merge window (see escrow).
	esc       *escrowState
	askTries  int32 // unanswered interest-adds (backoff exponent)
	hasVal    bool
	confirmed bool
	valExists bool
}

// escrowState is a key's escrow part: the current merge window plus
// the exact headroom account — the freshest piggybacked escrow
// snapshot and the deltas this gateway admitted on top of it that are
// not yet resolved. Until the first valid snapshot arrives (seen)
// admission is conservative: no merging, acceptors arbitrate.
type escrowState struct {
	win        *mergeWindow
	seen       bool
	ver        record.Version // version of the adopted snapshot
	acc        map[string]attrAccount
	fetched    time.Time // when the snapshot arrived (snapTTL refresh)
	pendSetAt  time.Time // when the pending sums were last set wholesale
	refreshing bool
	// contenders is the freshest observed count of distinct gateway
	// groups with pending votes on the key (piggybacked on escrow
	// snapshots). It adapts fitsLocked's headroom-share divisor: a
	// lone gateway takes the whole slice instead of 1/NumDCs, and the
	// divisor grows back as contention is observed.
	contenders int
	// outDown/outUp are this gateway's admitted-but-unresolved deltas,
	// split by direction (worst-case accounting mirrors the acceptor).
	// They may double-count deltas already visible in acc's pending
	// sums — conservative by construction, never loose.
	outDown map[string]int64 // <= 0
	outUp   map[string]int64 // >= 0
}

// escrow returns the key's escrow part, giving it one if it has none.
func (ks *keyState) escrow() *escrowState {
	if ks.esc == nil {
		ks.esc = &escrowState{outDown: make(map[string]int64), outUp: make(map[string]int64)}
	}
	return ks.esc
}

// gwSpan carries one admitted transaction's flight-recorder context
// from submission to settlement. nil whenever tracing is off, so every
// site pays one nil check.
type gwSpan struct {
	subAt int64    // submit wall time (transport clock, UnixNano)
	loSeq uint64   // recorder seq of the first gateway event for this tx
	keys  []string // write-set keys
}

// Gateway is one data center's transaction gateway. Entry points
// (Commit, Read, ReadQuorum, Metrics) are safe to call from any
// goroutine; completion callbacks fire on the coordinator's handler
// goroutine.
type Gateway struct {
	id  transport.NodeID
	dc  topology.DC
	net transport.Network // RPC replies, feed subscriptions, timers
	co  *core.Coordinator // carries every transaction and fallback read
	cl  *topology.Cluster
	cfg core.Config
	tun Tuning
	q   paxos.Quorum
	tr  *trace.Ring // flight-recorder ring (nil when tracing is off)

	mu       sync.Mutex
	inflight int
	queue    []clientTx
	keys     map[record.Key]*keyState
	m        Metrics
	closed   bool
	flushed  <-chan struct{} // see Flushed

	// pending registers everything the gateway owes an answer: every
	// admitted transaction's completion callback (plus its write-set
	// keys, for the shard mover's drain probe) until it settles, and
	// every read callback that left the memory rung until its reply
	// lands — so Kill can fail the transactions with ErrOutcomeUnknown
	// (the in-process analogue of the RPC client's settle deadline) and
	// Kill and Close can answer the reads absent. Exactly-once delivery
	// is the map's job: a wrapper only fires a callback it can still
	// remove.
	pendSeq uint64
	pending map[uint64]pendingOp

	// Shard-move admission freeze (see FreezeShards): while a live
	// move drains, commits touching a moving key are refused with
	// ring.ErrWrongShard{frozenNext} before admission.
	frozen     func(record.Key) bool
	frozenNext ring.Epoch

	// Learned-replica read tier (see readtier.go).
	shards   []transport.NodeID // this DC's storage nodes
	feeds    map[transport.NodeID]*feedState
	flights  map[record.Key]*readFlight
	subEpoch uint64
}

// New builds a gateway for dc on net and registers its node's (and its
// coordinator's) handlers. coreCfg is the same protocol config the
// deployment's storage nodes run. A restarted process calls it again
// on the same node ids: the coordinator names its own incarnation
// (core.NewCoordinator), and so do the feed subscriptions below.
func New(dc topology.DC, net transport.Network, cl *topology.Cluster, coreCfg core.Config, tun Tuning) *Gateway {
	tun = tun.withDefaults()
	g := &Gateway{
		id:      GatewayID(dc),
		dc:      dc,
		net:     net,
		cl:      cl,
		cfg:     coreCfg,
		tun:     tun,
		q:       paxos.NewQuorum(cl.ReplicationFactor()),
		keys:    make(map[record.Key]*keyState),
		pending: make(map[uint64]pendingOp),
	}
	if coreCfg.Tracer != nil {
		g.tr = coreCfg.Tracer.Ring(string(g.id), int(dc))
		// The gateway sees the whole admit→ack life of a transaction
		// (queueing and coalescing included), so it — not the
		// coordinator — owns flight-recorder completion.
		coreCfg.Tracer.ClaimTop()
	}
	g.co = core.NewCoordinator(coordID(dc), dc, net, cl, coreCfg)
	g.co.SetBatchWindow(tun.BatchWindow)
	// The coordinator feeds the piggybacked escrow snapshots on its
	// votes and read replies into the headroom accounts.
	g.co.SetEscrowObserver(g.observeEscrow)
	net.Register(g.id, g.handle)
	g.scheduleSweep()
	if !tun.DisableReadTier {
		// Subscribe to every local shard's committed-visibility feed.
		// Epochs must outrank every epoch a dead predecessor left in
		// the shards' subscriber tables — otherwise the stale-epoch
		// guard drops the fresh incarnation's subscriptions until its
		// counter catches up — so they count up from the incarnation.
		g.subEpoch = transport.Incarnation(net)
		g.feeds = make(map[transport.NodeID]*feedState)
		g.flights = make(map[record.Key]*readFlight)
		for _, n := range cl.StorageIn(dc) {
			g.shards = append(g.shards, n.ID)
			g.feeds[n.ID] = &feedState{}
		}
		g.mu.Lock()
		g.subscribeFeedsLocked()
		g.mu.Unlock()
		g.scheduleFeedCheck()
	}
	return g
}

// ID returns the gateway's transport node identity.
func (g *Gateway) ID() transport.NodeID { return g.id }

// Tuning returns the gateway's resolved tuning (defaults applied), so
// operators log what actually runs instead of re-deriving defaults.
func (g *Gateway) Tuning() Tuning { return g.tun }

// ReadFunc receives a read's answer. A gateway that cannot answer —
// no replica reachable, or the gateway itself killed or closed —
// answers absent: the zero value, version 0, exists false.
type ReadFunc = func(val record.Value, ver record.Version, exists bool)

// encodedRead receives a read's answer as the value's bytes, shared
// (see keyState.val): the gateway's own read paths pass these, and
// only a ReadFunc's wrapper (decoding) turns them into a Value.
type encodedRead = func(val record.Encoded, ver record.Version, exists bool)

// decoding is cb behind the decode of the API edge: each call hands cb
// a Value of its own, which it may edit.
func decoding(cb ReadFunc) encodedRead {
	return func(val record.Encoded, ver record.Version, exists bool) { cb(val.Decode(), ver, exists) }
}

// Read serves a committed read with no version floor; see ReadFloor.
// Only the benchmark module still calls it.
func (g *Gateway) Read(key record.Key, cb ReadFunc) { g.ReadFloor(key, 0, cb) }

// ReadQuorum serves an up-to-date quorum read through the gateway's
// coordinator.
func (g *Gateway) ReadQuorum(key record.Key, cb ReadFunc) { g.readQuorum(key, decoding(cb)) }

func (g *Gateway) readQuorum(key record.Key, cb encodedRead) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		cb(nil, 0, false)
		return
	}
	held := g.holdReadLocked(cb)
	g.m.ReadQuorums++
	g.mu.Unlock()
	g.net.After(g.co.ID(), 0, func() { g.co.ReadQuorumEncoded(key, held) })
}

// Commit submits a client transaction. done fires exactly once.
// committed reports the protocol outcome; a protocol abort (a conflict
// or a constraint) is committed=false with a nil err. err is non-nil
// when the transaction was refused or lost:
//
//   - ErrOverloaded: admission control shed it, never submitted;
//   - ErrClosed: the gateway was closed, or Close or Kill dropped it
//     from the backlog (Close also from a merge window);
//   - ring.ErrWrongShard: it touches a slice frozen for a shard move;
//   - ErrOutcomeUnknown: Kill took it after admission;
//   - core.ErrMixedUpdateKinds, or core.ErrRepeatedKey wrapped with the
//     key: the protocol refused it for good.
//
// The refusals a client over the RPC can tell apart are the table
// behind RefusalError; any other error reaches it as a plain abort.
func (g *Gateway) Commit(updates []record.Update, done func(committed bool, err error)) {
	g.mu.Lock()
	if !g.closed {
		g.m.Submitted++
	}
	if err := g.refuseLocked(updates); err != nil {
		g.mu.Unlock()
		done(false, err)
		return
	}
	var span *gwSpan
	if g.tr != nil {
		span = &gwSpan{subAt: g.net.Now().UnixNano(), keys: make([]string, len(updates))}
		for i, up := range updates {
			span.keys[i] = string(up.Key)
		}
	}
	if g.inflight >= g.tun.MaxInflight {
		if len(g.queue) >= g.tun.MaxQueue {
			g.m.AdmissionRejects++
			g.m.Aborts++
			g.mu.Unlock()
			done(false, ErrOverloaded)
			return
		}
		if span != nil {
			span.loSeq = g.tr.Add(trace.Event{At: span.subAt, Key: firstKey(span.keys),
				Stage: trace.StageQueue, Arg: int64(len(g.queue) + 1)})
		}
		g.queue = append(g.queue, clientTx{updates: updates, done: done, span: span})
		if d := int64(len(g.queue)); d > g.m.QueuePeak {
			g.m.QueuePeak = d
		}
		g.mu.Unlock()
		return
	}
	g.startLocked(clientTx{updates: updates, done: done, span: span})
	g.mu.Unlock()
}

// refuseLocked is the check a write-set passes on entry and again as it
// leaves the backlog: a closed gateway refuses it with ErrClosed, and
// one touching a slice frozen for a shard move refuses it with
// ring.ErrWrongShard, counted and traced.
func (g *Gateway) refuseLocked(updates []record.Update) error {
	if g.closed {
		return ErrClosed
	}
	if g.frozen == nil || !slices.ContainsFunc(updates, func(up record.Update) bool { return g.frozen(up.Key) }) {
		return nil
	}
	g.m.WrongShardRetries++
	if g.tr != nil {
		g.tr.Add(trace.Event{At: g.net.Now().UnixNano(), Key: string(updates[0].Key),
			Stage: trace.StageWrongShard, Arg: int64(g.frozenNext)})
	}
	return ring.ErrWrongShard{Epoch: g.frozenNext}
}

// firstKey is the representative key for tx-less gateway trace events
// (multi-key write-sets get their full key list on the completion
// record instead).
func firstKey(keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

// startLocked admits one transaction into the in-flight window and
// routes it: into its key's merge window, or dispatched alone. The
// client callback is registered in the pending map until it settles,
// so a Kill can fail every in-flight transaction with ErrOutcomeUnknown.
func (g *Gateway) startLocked(tx clientTx) {
	g.inflight++
	if tx.span != nil {
		seq := g.tr.Add(trace.Event{At: g.net.Now().UnixNano(), Key: firstKey(tx.span.keys),
			Stage: trace.StageAdmit, Arg: int64(len(tx.updates))})
		if tx.span.loSeq == 0 {
			tx.span.loSeq = seq
		}
	}
	tx.done = g.registerPendingLocked(tx.updates, tx.done, tx.span)
	if g.coalescible(tx.updates) && g.coalesceLocked(tx) {
		return
	}
	g.m.Passthrough++
	// Passthrough commutative deltas still consume escrow headroom:
	// account them so window admission on the same keys stays exact.
	tx.track = g.trackOutLocked(tx.updates)
	g.runLocked(tx)
}

// runLocked dispatches one client transaction on its own (a
// passthrough, a window of one, a rider of a split merge) and, on its
// outcome, retires its tracked deltas, frees its slot, closes its flight
// record and answers the client. A merged window's settle (flushLocked)
// is the only other.
func (g *Gateway) runLocked(tx clientTx) {
	g.dispatchLocked(tx.updates, tx.span, func(r core.CommitResult) {
		g.resolveTracks(tx.track, r.Committed)
		g.settle(1, r.Committed)
		g.traceSettle(tx.span, r, 1)
		tx.done(r.Committed, r.Err)
	})
}

// pendingOp is one operation the gateway holds an answer for: an
// admitted-but-unsettled transaction (its completion callback plus the
// keys it touches — the shard mover's drain probe scans these), or a
// read that left the memory rung (read set, the rest zero).
type pendingOp struct {
	keys []record.Key
	done func(bool, error)
	span *gwSpan
	read encodedRead
}

// registerPendingLocked wraps a client completion callback with
// exactly-once semantics keyed by the pending map: whichever of
// normal settlement and Kill claims the entry first delivers.
func (g *Gateway) registerPendingLocked(updates []record.Update, done func(bool, error), span *gwSpan) func(bool, error) {
	g.pendSeq++
	id := g.pendSeq
	keys := make([]record.Key, len(updates))
	for i, up := range updates {
		keys[i] = up.Key
	}
	g.pending[id] = pendingOp{keys: keys, done: done, span: span}
	return func(ok bool, err error) {
		if p, live := g.claimPending(id); live {
			p.done(ok, err)
		}
	}
}

// holdReadLocked registers a read the gateway cannot answer on the
// spot (a single-flight fill or waiter, a tier-less RPC read, a quorum
// read) in the pending map, under the same sequence as the
// transactions, and returns the callback to answer it through:
// whichever of the reply and Kill/Close claims the entry first
// delivers. Callers have checked the gateway is open (a closed one
// answers absent at once).
func (g *Gateway) holdReadLocked(cb encodedRead) encodedRead {
	g.pendSeq++
	id := g.pendSeq
	g.pending[id] = pendingOp{read: cb}
	return func(val record.Encoded, ver record.Version, exists bool) {
		if _, live := g.claimPending(id); live {
			cb(val, ver, exists)
		}
	}
}

func (g *Gateway) claimPending(id uint64) (pendingOp, bool) {
	g.mu.Lock()
	p, live := g.pending[id]
	delete(g.pending, id)
	g.mu.Unlock()
	return p, live
}

// takePendingLocked empties the pending map in registration order:
// the transactions' entries (left in place when reads only — Close
// lets dispatched transactions drain) and the held reads' callbacks.
func (g *Gateway) takePendingLocked(readsOnly bool) (txs []pendingOp, reads []encodedRead) {
	ids := make([]uint64, 0, len(g.pending))
	for id, p := range g.pending {
		if p.read != nil || !readsOnly {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if p := g.pending[id]; p.read != nil {
			reads = append(reads, p.read)
		} else {
			txs = append(txs, p)
		}
		delete(g.pending, id)
	}
	return txs, reads
}

// outTrack is one key's share of a dispatched write-set in the
// outstanding account, remembering which snapshot the account held
// when the deltas were admitted (see resolveTracks).
type outTrack struct {
	key    record.Key
	deltas map[string]int64
	seen   bool
	ver    record.Version
}

// trackOutLocked adds every *constrained* commutative delta of a
// write-set to its key's outstanding account and returns the tracks
// to resolve with. Unconstrained attributes are skipped — admission
// never consults them, so accounting them would only churn keyStates
// and fabricate junk attrAccount entries.
func (g *Gateway) trackOutLocked(updates []record.Update) []outTrack {
	var tracks []outTrack
	for _, up := range updates {
		if up.Kind != record.KindCommutative {
			continue
		}
		var deltas map[string]int64
		for attr, d := range up.Deltas {
			if _, ok := g.cfg.ConstraintFor(attr); !ok {
				continue
			}
			if deltas == nil {
				deltas = make(map[string]int64, len(up.Deltas))
			}
			deltas[attr] = d
		}
		if deltas == nil {
			continue
		}
		es := g.ks(up.Key).escrow()
		for attr, d := range deltas {
			if d < 0 {
				es.outDown[attr] += d
			} else {
				es.outUp[attr] += d
			}
		}
		tracks = append(tracks, outTrack{key: up.Key, deltas: deltas, seen: es.seen, ver: es.ver})
	}
	return tracks
}

// coalescible: only single-update commutative transactions merge —
// anything else would break atomicity or read-set semantics.
func (g *Gateway) coalescible(updates []record.Update) bool {
	return g.tun.CoalesceWindow > 0 &&
		len(updates) == 1 &&
		updates[0].Kind == record.KindCommutative &&
		updates[0].Merged <= 1
}

// dispatchLocked hands a write-set to the coordinator in its handler
// context; done(ok, rerr) fires on the coordinator's goroutine without
// the gateway lock held (rerr is the protocol's typed rejection cause,
// e.g. core.ErrMixedUpdateKinds, nil for commits and plain aborts).
func (g *Gateway) dispatchLocked(updates []record.Update, span *gwSpan, done func(r core.CommitResult)) {
	if span != nil {
		now := g.net.Now().UnixNano()
		g.tr.Add(trace.Event{At: now, Key: firstKey(span.keys),
			Stage: trace.StageDispatch, Arg: int64(len(updates))})
		g.cfg.Tracer.ObservePhase(trace.PhaseGatewayQueue, int(g.dc),
			time.Duration(now-span.subAt))
	}
	g.net.After(g.co.ID(), 0, func() { g.co.Commit(updates, done) })
}

// traceSettle records the client-ack event, the end-to-end latency,
// and closes the transaction's flight record (the gateway owns
// completion — see ClaimTop in New). n > 1 reports a merged window
// settling n client transactions under one protocol transaction.
func (g *Gateway) traceSettle(span *gwSpan, r core.CommitResult, n int) {
	if span == nil {
		return
	}
	now := g.net.Now().UnixNano()
	outcome := uint8(trace.FlagCommit)
	if !r.Committed {
		outcome = trace.FlagAbort
	}
	g.tr.Add(trace.Event{At: now, Tx: string(r.Tx), Stage: trace.StageAck,
		Flags: outcome, Arg: int64(n)})
	g.cfg.Tracer.ObservePhase(trace.PhaseEndToEnd, int(g.dc), time.Duration(now-span.subAt))
	g.cfg.Tracer.CompleteFrom(string(r.Tx), span.keys, span.loSeq,
		span.subAt, now, outcome, r.Recovered, r.Rerouted)
}

// settle returns n in-flight slots, records outcomes, and drains the
// backlog into freed slots.
func (g *Gateway) settle(n int, committed bool) {
	g.mu.Lock()
	g.inflight -= n
	if committed {
		g.m.Commits += int64(n)
	} else {
		g.m.Aborts += int64(n)
	}
	// The backlog passes Commit's check again as it drains (a freeze
	// may have landed since); refusals fire after unlock (the callback
	// may re-enter Commit).
	var refused []func()
	for g.inflight < g.tun.MaxInflight && len(g.queue) > 0 {
		next := g.queue[0]
		g.queue = g.queue[1:]
		if err := g.refuseLocked(next.updates); err != nil {
			refused = append(refused, func() { next.done(false, err) })
			continue
		}
		g.startLocked(next)
	}
	g.m.QueueDepth = int64(len(g.queue))
	g.mu.Unlock()
	for _, answer := range refused {
		answer()
	}
}

// ---- hot-key delta coalescing ----------------------------------------

func (g *Gateway) ks(key record.Key) *keyState {
	s, ok := g.keys[key]
	if !ok {
		s = &keyState{}
		g.keys[key] = s
	}
	return s
}

// observeEscrow folds a piggybacked acceptor snapshot into the key's
// headroom account. Snapshots are ordered by committed version: a
// fresher version replaces the account wholesale; an equal version
// (two replicas, different vote sets) merges conservatively by
// widening the pending sums — except that pendings older than snapTTL
// are replaced instead of widened, since aborts free escrow without
// bumping the committed version and a widen-only account would hold
// worst-case pendings forever on a key that stopped committing. An
// older version is dropped. Fires on the coordinator's goroutine.
func (g *Gateway) observeEscrow(_ transport.NodeID, key record.Key, snap core.EscrowSnap) {
	if !snap.Valid {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.foldEscrowLocked(g.ks(key), snap, g.net.Now())
}

// foldEscrowLocked merges one escrow snapshot into a headroom account
// (shared by the vote/read-reply observer and the visibility feed, so
// escrow freshness rides whichever channel is fresher).
func (g *Gateway) foldEscrowLocked(ks *keyState, snap core.EscrowSnap, now time.Time) {
	if !snap.Valid {
		return
	}
	es := ks.escrow()
	switch {
	case !es.seen || snap.Version > es.ver:
		es.acc = make(map[string]attrAccount, len(snap.Attrs))
		for _, a := range snap.Attrs {
			es.acc[a.Attr] = attrAccount{base: a.Base, pendDown: a.PendDown, pendUp: a.PendUp}
		}
		es.seen = true
		es.ver = snap.Version
		es.fetched = now
		es.pendSetAt = now
		es.contenders = snap.Contenders
		g.m.EscrowUpdates++
	case snap.Version == es.ver:
		replace := now.Sub(es.pendSetAt) >= snapTTL
		for _, a := range snap.Attrs {
			cur := es.acc[a.Attr]
			// Same committed version, possibly different vote sets:
			// keep the held base, and widen the pendings (worst case
			// wins) while they are fresh, replace them once stale.
			if replace {
				cur.pendDown, cur.pendUp = a.PendDown, a.PendUp
			} else {
				if a.PendDown < cur.pendDown {
					cur.pendDown = a.PendDown
				}
				if a.PendUp > cur.pendUp {
					cur.pendUp = a.PendUp
				}
			}
			es.acc[a.Attr] = cur
		}
		if replace {
			es.pendSetAt = now
			es.contenders = snap.Contenders
		} else if snap.Contenders > es.contenders {
			// Widen like the pendings: more observed contention wins
			// while fresh, and the TTL replacement above lets the
			// divisor relax once contention actually recedes.
			es.contenders = snap.Contenders
		}
		es.fetched = now
		g.m.EscrowUpdates++
	default:
		g.m.EscrowStale++
	}
}

// coalesceLocked parks a single-update commutative transaction in its
// key's merge window, or reports false when the gateway has no merge
// headroom for it: either no escrow snapshot has arrived yet
// (bootstrap: admit conservatively, never merge blind) or the shared
// headroom slice is exhausted. The caller then ships it alone: the
// acceptors, not the account, decide, and the vote's piggybacked
// snapshot refreshes the account for free.
func (g *Gateway) coalesceLocked(tx clientTx) bool {
	up := tx.updates[0]
	key := up.Key
	es := g.ks(key).escrow()
	if es.win != nil && (len(es.win.waiters) >= coalesceMax || !g.fitsLocked(es, up)) {
		g.flushLocked(key, es)
	}
	if es.win == nil {
		g.maybeRefreshLocked(key, es)
		if !g.fitsLocked(es, up) {
			g.m.CoalesceBypass++
			return false
		}
		win := &mergeWindow{sum: make(map[string]int64)}
		es.win = win
		win.timer = g.net.After(g.id, g.tun.CoalesceWindow, func() {
			g.mu.Lock()
			if cur, ok := g.keys[key]; ok && cur.esc != nil && cur.esc.win == win {
				g.flushLocked(key, cur.esc)
			}
			g.mu.Unlock()
		})
	}
	g.m.Coalesced++
	for attr, d := range up.Deltas {
		es.win.sum[attr] += d
	}
	if tx.span != nil {
		g.tr.Add(trace.Event{At: g.net.Now().UnixNano(), Key: string(key),
			Stage: trace.StageCoalesceJoin, Arg: int64(len(es.win.waiters) + 1)})
	}
	tx.track = g.trackOutLocked(tx.updates)
	es.win.waiters = append(es.win.waiters, tx)
	return true
}

// fitsLocked is the exact headroom admission: may this gateway hold
// one more unresolved delta without ever being looser than the
// acceptor's demarcation check evaluated on the held snapshot?
//
// For a decrement d against min, the snapshot headroom is
//
//	H = (base + pendDown) − L,  L = min + ⌈head·(N−Q_F)/N⌉
//
// — how much worst-case downward movement the acceptors would still
// accept on top of everything already pending there (including other
// gateways' in-flight deltas). This gateway admits unresolved local
// deltas only up to ⌊H / share⌋, so gateways sharing the same key
// cannot collectively over-admit between snapshots. Before the first
// snapshot arrives the answer is no — conservative bootstrap, the
// acceptors arbitrate individual sends.
//
// The share divisor adapts to observed contention: acceptors
// piggyback how many distinct gateway groups actually hold pending
// votes on the key (EscrowSnap.Contenders), so a lone gateway takes
// the full slice instead of one share per data center, and the
// divisor grows back as other gateways' deltas appear. When
// unobserved, one share per data center applies. Safety never depends
// on this: the DeltaSafe mirror above the cap is what the parity fuzz
// pins, and over-admission in the observation lag is arbitrated by
// the acceptors (split-and-rerun, never a manufactured abort).
func (g *Gateway) fitsLocked(es *escrowState, up record.Update) bool {
	share := g.shareLocked(es)
	for attr, d := range up.Deltas {
		con, ok := g.cfg.ConstraintFor(attr)
		if !ok {
			continue // unconstrained attributes have no escrow to account
		}
		if !es.seen {
			return false // constrained delta before the first snapshot
		}
		a := es.acc[attr]
		// Exact mirror: the acceptor's own predicate, evaluated on the
		// snapshot pendings plus everything this gateway holds
		// unresolved. This checks BOTH bounds for every delta — an
		// acceptor rejects even a decrement while pending increments
		// overdraw the upper limit — so merge admission can never be
		// looser than the acceptor on what the gateway knows.
		if !core.DeltaSafe(a.base,
			a.pendDown+es.outDown[attr], a.pendUp+es.outUp[attr],
			d, con, g.q, true) {
			return false
		}
		// Shared-headroom cap: of the headroom the snapshot shows, this
		// gateway may hold at most a 1/share slice in locally-admitted
		// unresolved deltas, so the per-DC gateways cannot collectively
		// over-admit between snapshots.
		low, high := snapHeadroom(a, con, g.q)
		if d < 0 && low >= 0 && -(es.outDown[attr]+d) > low/share {
			return false
		}
		if d > 0 && high >= 0 && es.outUp[attr]+d > high/share {
			return false
		}
	}
	return true
}

// shareLocked resolves the headroom-share divisor for a key: the
// observed contender count clamped to topology.NumDCs (one share per
// data center's gateway), or that ceiling when unobserved. Acceptors
// count the snapshot RECIPIENT's gateway group among the contenders even
// before its votes land (core.contenderGroups), so an observation of
// 1 really means "just you" — without that, two alternating gateways
// would each read the other's solo snapshot as their own and both
// take the full slice. Contenders==0 means the snapshot predates the
// contention signal: fall back to the ceiling.
func (g *Gateway) shareLocked(es *escrowState) int64 {
	share := int64(topology.NumDCs)
	if !es.seen || es.contenders <= 0 {
		return share
	}
	if obs := int64(es.contenders); obs < share {
		return obs
	}
	return share
}

// snapHeadroom returns the demarcation headroom a snapshot account
// shows on the Min and Max side of con (clamped at >= 0; -1 for an
// absent bound). Shared by admission (fitsLocked) and the gauges so
// the two can never drift apart.
func snapHeadroom(a attrAccount, con record.Constraint, q paxos.Quorum) (low, high int64) {
	low, high = -1, -1
	if con.Min != nil {
		low = a.base + a.pendDown - core.DemarcationLow(*con.Min, a.base, q)
		if low < 0 {
			low = 0
		}
	}
	if con.Max != nil {
		high = core.DemarcationHigh(*con.Max, a.base, q) - (a.base + a.pendUp)
		if high < 0 {
			high = 0
		}
	}
	return low, high
}

// maybeRefreshLocked issues a read when the headroom account is
// missing or its snapshot has aged past snapTTL without vote traffic
// refreshing it; the read's piggybacked snapshot lands via
// observeEscrow. One read per key at a time.
func (g *Gateway) maybeRefreshLocked(key record.Key, es *escrowState) {
	if es.refreshing {
		return
	}
	if es.seen && g.net.Now().Sub(es.fetched) < snapTTL {
		return
	}
	es.refreshing = true
	g.net.After(g.co.ID(), 0, func() {
		g.co.ReadEncoded(key, func(record.Encoded, record.Version, bool) {
			// The escrow snapshot (if any) already arrived through the
			// observer; here we only release the refresh slot.
			g.mu.Lock()
			g.ks(key).escrow().refreshing = false
			g.mu.Unlock()
		})
	})
}

// flushLocked closes the key's window and dispatches it: one client
// update passes through unchanged; several become a single merged
// option. A rejected merge is split and re-run per transaction, so
// merging can only ever batch work, never manufacture aborts.
func (g *Gateway) flushLocked(key record.Key, es *escrowState) {
	win := es.win
	if win == nil {
		return
	}
	es.win = nil
	if win.timer != nil {
		win.timer.Stop()
	}
	if len(win.waiters) == 1 {
		g.runLocked(win.waiters[0])
		return
	}
	waiters := win.waiters
	g.m.MergedOptions++
	g.m.MergedUpdates += int64(len(waiters))
	// The merged option's flight record is anchored at the oldest
	// waiter's submission — the worst client-perceived latency the
	// window produced.
	anchor := waiters[0].span
	if anchor != nil {
		g.tr.Add(trace.Event{At: g.net.Now().UnixNano(), Key: string(key),
			Stage: trace.StageCoalesceFlush, Arg: int64(len(waiters))})
	}
	merged := record.MergedCommutative(key, win.sum, len(waiters))
	g.dispatchLocked([]record.Update{merged}, anchor, func(r core.CommitResult) {
		if r.Committed {
			// Resolve per waiter, not by the window's net sum: the
			// outstanding account is sign-split, and a mixed window
			// (restock + purchase) nets to a sum that would leave
			// phantom residue in both directions forever.
			for _, w := range waiters {
				g.resolveTracks(w.track, true)
			}
			g.settle(len(waiters), true)
			if anchor != nil {
				// One completion for the merged protocol transaction;
				// every rider still contributes its own end-to-end
				// latency observation.
				now := g.net.Now().UnixNano()
				for _, w := range waiters[1:] {
					if w.span != nil {
						g.cfg.Tracer.ObservePhase(trace.PhaseEndToEnd, int(g.dc),
							time.Duration(now-w.span.subAt))
					}
				}
				g.traceSettle(anchor, r, len(waiters))
			}
			for _, w := range waiters {
				w.done(true, nil)
			}
			return
		}
		// Merged option rejected (demarcation exhausted, or an
		// outstanding physical write blocked the key): split and re-run
		// each client update alone so transactions that fit on their
		// own still commit. Their in-flight slots are still held, and
		// their deltas stay outstanding across the re-run — each
		// individual outcome resolves its own. The rejecting votes
		// carried fresh escrow snapshots, so the account that
		// over-admitted has already been corrected.
		g.mu.Lock()
		g.m.MergeSplits++
		if anchor != nil {
			g.tr.Add(trace.Event{At: g.net.Now().UnixNano(), Key: string(key),
				Stage: trace.StageCoalesceSplit, Arg: int64(len(waiters))})
		}
		for _, w := range waiters {
			g.runLocked(w)
		}
		g.mu.Unlock()
	})
}

// resolveTracks retires settled deltas from the outstanding account.
// A committed delta is folded into the snapshot base — mirroring the
// acceptor, which applies the update and prunes the vote on
// visibility — but ONLY while the account still holds the snapshot it
// held at admission (same seen/version): any snapshot adopted after
// the proposal already represents the delta, either in its pending
// sums (vote not yet pruned) or in its base (visibility executed), so
// folding again would double-count a committed increment and leave
// the account looser than the acceptor.
func (g *Gateway) resolveTracks(tracks []outTrack, committed bool) {
	g.mu.Lock()
	for _, tr := range tracks {
		ks := g.ks(tr.key)
		es := ks.escrow()
		for attr, d := range tr.deltas {
			if d < 0 {
				es.outDown[attr] -= d
			} else {
				es.outUp[attr] -= d
			}
			if committed && es.seen && tr.seen && es.ver == tr.ver {
				a := es.acc[attr]
				a.base += d
				es.acc[attr] = a
			}
		}
		g.maybeEvictLocked(tr.key, ks)
	}
	g.mu.Unlock()
}

// evictAfter is how long an idle key (no window, nothing outstanding)
// keeps its headroom account before it is retired; hot keys refresh
// their snapshot on every vote and never age out.
const evictAfter = 10 * snapTTL

// idleLocked reports whether a keyState holds nothing live: no open
// window, no refresh in flight, no outstanding deltas. A key without an
// escrow part has none of these.
func idleLocked(ks *keyState) bool {
	es := ks.esc
	if es == nil {
		return true
	}
	if es.win != nil || es.refreshing {
		return false
	}
	for _, d := range es.outDown {
		if d != 0 {
			return false
		}
	}
	for _, d := range es.outUp {
		if d != 0 {
			return false
		}
	}
	return true
}

// maybeEvictLocked retires a keyState once it is fully idle, its
// snapshot has gone stale, and nobody has read its materialized value
// lately — without this, g.keys grows by one entry per key ever
// touched and the Metrics gauge scan walks them all under the gateway
// lock forever. Eviction also bounds the read tier's memory: feed
// items refresh only tracked keys, so an evicted key stays gone until
// a read re-materializes it.
func (g *Gateway) maybeEvictLocked(key record.Key, ks *keyState) {
	if !idleLocked(ks) {
		return
	}
	now := g.net.Now()
	if es := ks.esc; es != nil && es.seen && now.Sub(es.fetched) < evictAfter {
		return
	}
	if ks.hasVal && now.UnixNano()-ks.readAt < int64(evictAfter) {
		return
	}
	delete(g.keys, key)
}

// scheduleSweep arms the periodic idle-key sweep. Snapshot-only keys
// (created by read-reply piggybacks) have no resolve path to evict
// them, so GC cannot depend on traffic or on anyone polling Metrics.
func (g *Gateway) scheduleSweep() {
	g.net.After(g.id, evictAfter, func() {
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			return
		}
		for key, ks := range g.keys {
			g.maybeEvictLocked(key, ks)
		}
		g.mu.Unlock()
		g.scheduleSweep()
	})
}

// headroomGaugesLocked computes the headroom gauges: how many keys
// have live escrow accounts, and the tightest remaining shared
// headroom among their constrained attributes after this gateway's
// outstanding deltas (-1 when no constrained account is tracked).
func (g *Gateway) headroomGaugesLocked() (tracked, minHeadroom int64) {
	minHeadroom = -1
	for _, ks := range g.keys {
		es := ks.esc
		if es == nil || !es.seen {
			continue
		}
		share := g.shareLocked(es)
		tracked++
		for _, con := range g.cfg.Constraints {
			a, ok := es.acc[con.Attr]
			if !ok {
				continue
			}
			note := func(rem int64) {
				if rem < 0 {
					rem = 0
				}
				if minHeadroom < 0 || rem < minHeadroom {
					minHeadroom = rem
				}
			}
			low, high := snapHeadroom(a, con, g.q)
			if low >= 0 {
				note(low/share + es.outDown[con.Attr]) // outDown <= 0
			}
			if high >= 0 {
				note(high/share - es.outUp[con.Attr])
			}
		}
	}
	return tracked, minHeadroom
}

// ---- shard-ring fencing and live moves --------------------------------

// FreezeShards fences admission for a pending shard move: while
// frozen, any commit touching a key moving selects is refused with
// ring.ErrWrongShard{next}. Idempotent — the mover re-applies the
// freeze on every poll tick so a restarted gateway incarnation is
// re-fenced before it can admit a moving-key write mid-bootstrap.
func (g *Gateway) FreezeShards(moving func(record.Key) bool, next ring.Epoch) {
	g.mu.Lock()
	g.frozen = moving
	g.frozenNext = next
	g.mu.Unlock()
}

// InflightMoving counts admitted-but-unsettled transactions touching
// the frozen slice — the gateway half of the mover's drain gate (the
// acceptor half is core.StorageNode.Unsettled). Zero with the freeze
// applied means this gateway can no longer produce new options on
// moving keys.
func (g *Gateway) InflightMoving() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.frozen == nil {
		return 0
	}
	count := 0
	for _, p := range g.pending {
		for _, k := range p.keys {
			if g.frozen(k) {
				count++
				break
			}
		}
	}
	return count
}

// RingPublished tells the gateway a new ring epoch is live: the
// admission freeze lifts, and every key whose owner changed drops its
// interest confirmation so the read tier re-homes it — the next read
// re-asks interest on the new owner shard's feed instead of trusting
// the old shard's echo. Headroom accounts, coalescing windows and
// materialized values are already per-key, so they carry over
// unchanged; only the feed binding is owner-shaped.
func (g *Gateway) RingPublished() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.frozen = nil
	g.frozenNext = 0
	r := g.cl.Ring()
	for key, ks := range g.keys {
		if ks.confirmed && r.Moved(string(key)) {
			ks.confirmed = false
			ks.askTries = 0
			ks.askedAt = 0
		}
	}
}

// CoordMetrics returns the coordinator's protocol counters. They live
// on the coordinator's goroutine; call this from a quiesced deployment
// (after a run, or from the simulator's thread).
func (g *Gateway) CoordMetrics() core.CoordMetrics { return g.co.Metrics() }

// Metrics snapshots the gateway's counters.
func (g *Gateway) Metrics() Metrics {
	g.mu.Lock()
	m := g.m
	m.Inflight = int64(g.inflight)
	m.QueueDepth = int64(len(g.queue))
	m.RingEpoch = int64(g.cl.Ring().Epoch())
	m.TrackedKeys, m.MinHeadroom = g.headroomGaugesLocked()
	if !g.tun.DisableReadTier {
		m.MaterializedKeys, m.FeedsLive = g.readTierGaugesLocked()
	}
	g.mu.Unlock()
	m.BatchEnvelopes, m.BatchedMsgs, m.BatchSingles = g.co.Batches()
	m.Finalize()
	return m
}

// Kill models a gateway process crash for in-process deployments and
// harnesses: the backlog (never admitted — outcome known) fails with
// ErrClosed, every admitted in-flight transaction fails with
// ErrOutcomeUnknown — its options may already be proposed and the
// protocol will still settle them (dangling-option sweep), but the
// acknowledgement died with the process — and every held read is
// answered absent. Callbacks fire synchronously on the caller's
// goroutine, the transactions' before the reads', each cohort in
// registration order; pair with crashing the gateway's transport nodes
// so no late coordinator callback races (stragglers are absorbed by
// the pending map's exactly-once claim anyway). What the process held
// in memory goes with it, so the dead incarnation's Metrics are its
// counters with every gauge at rest.
func (g *Gateway) Kill() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	queued := g.queue
	g.queue = nil
	// Window waiters were admitted and registered; they fail with the
	// in-flight cohort below (outcome-unknown is conservative for a
	// never-proposed waiter, and matches what the crashed process's
	// clients could actually know).
	g.dropWindowsLocked()
	txs, reads := g.takePendingLocked(false)
	g.inflight = 0
	g.keys = make(map[record.Key]*keyState) // headroom accounts, materialized values
	g.feeds = nil
	g.m.Aborts += int64(len(queued) + len(txs))
	g.mu.Unlock()
	// The killed incarnation's clients never learn these outcomes —
	// exactly the traces worth keeping. The protocol TxID is unknown
	// here (the option may or may not have been proposed), so the
	// assembled timeline rides on the admit seq and the write-set keys.
	for _, p := range txs {
		sp := p.span
		if sp == nil {
			continue
		}
		now := g.net.Now().UnixNano()
		g.tr.Add(trace.Event{At: now, Key: firstKey(sp.keys), Stage: trace.StageAck,
			Flags: trace.FlagUnknown})
		g.cfg.Tracer.CompleteFrom("?", sp.keys, sp.loSeq, sp.subAt, now,
			trace.FlagUnknown, false, false)
	}
	for _, q := range queued {
		q.done(false, ErrClosed)
	}
	for _, p := range txs {
		p.done(false, ErrOutcomeUnknown)
	}
	for _, cb := range reads {
		cb(nil, 0, false)
	}
}

// dropWindowsLocked stops every open merge window and returns the
// client transactions parked in them.
func (g *Gateway) dropWindowsLocked() (parked []clientTx) {
	for _, ks := range g.keys {
		es := ks.esc
		if es == nil || es.win == nil {
			continue
		}
		if es.win.timer != nil {
			es.win.timer.Stop()
		}
		parked = append(parked, es.win.waiters...)
		es.win = nil
	}
	return parked
}

// Close rejects the backlog and every parked window with ErrClosed and
// answers every held read absent. It posts the coordinator's flush of
// what it still owes the replicas to the coordinator's node without
// waiting for it (see Flushed). The coordinator keeps draining what was
// already dispatched (its lifecycle belongs to the network).
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	queued := g.queue
	g.queue = nil
	parked := g.dropWindowsLocked()
	_, reads := g.takePendingLocked(true)
	g.inflight -= len(parked) // queued never held inflight slots
	g.m.Aborts += int64(len(queued) + len(parked))
	g.flushed = g.co.PostFlush()
	g.mu.Unlock()
	for _, q := range queued {
		q.done(false, ErrClosed)
	}
	for _, w := range parked {
		w.done(false, ErrClosed)
	}
	for _, cb := range reads {
		cb(nil, 0, false)
	}
}

// Flushed returns a channel closed once the flush Close posted has run:
// what the coordinator owed the replicas is then with the network. A
// process about to exit waits on it (server.Close). It is nil before
// Close and after Kill.
func (g *Gateway) Flushed() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flushed
}
