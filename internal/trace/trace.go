// Package trace is the transaction flight recorder: a low-overhead
// event log threaded through the whole MDCC stack (gateway admit →
// coalesce → dispatch → acceptor votes per DC → leader/recovery hops →
// quorum learn → visibility → client ack). Components append fixed-size
// Events into per-node ring buffers; the hot path allocates nothing
// (Event is a flat struct of small fields and string headers), appends
// reserve their slot with one atomic fetch-add and serialize only on a
// striped per-slot lock whose uncontended cost is a single CAS, and
// every entry point is a no-op on a nil receiver — a run without a
// Recorder pays one nil check per site, and that nil Recorder is the
// off switch.
//
// Retention is tail-based: most transactions complete fast and their
// events simply age out of the rings. Transactions that are slow
// (> Config.SlowThreshold), aborted, recovered, wrong-shard-retried or
// outcome-unknown are assembled — gathered from every ring into one
// causally ordered Trace — at completion time and kept in a bounded
// retained set, plus a separate always-kept list of the N slowest.
// One append counter per Recorder (shared by all rings) numbers every
// event in the order it was recorded. Each process assembles its
// timelines from its own Recorder, so that order is the whole story:
// on the single-threaded simulator it is deterministic, and the same
// seed always assembles the same timeline.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies where in the pipeline an event was recorded.
type Stage uint8

// Pipeline stages, in rough causal order.
const (
	StageAdmit         Stage = iota + 1 // gateway admitted the transaction
	StageQueue                          // gateway queued it behind the inflight cap
	StageCoalesceJoin                   // update joined a hot-key coalesce window
	StageCoalesceFlush                  // merged window flushed as one option
	StageCoalesceSplit                  // rejected merge split and re-run singly
	StageDispatch                       // handed to the gateway's coordinator
	StagePropose                        // coordinator proposed the option
	StageForward                        // acceptor forwarded to the record leader (classic window)
	StageVote                           // acceptor cast a vote
	StageLearn                          // coordinator learned the option's decision
	StagePhase1                         // leader opened a classic ballot (takeover)
	StagePhase2a                        // leader broadcast its cstruct
	StageRecovery                       // coordinator recovery hop (option timeout/collision)
	StageTxRecover                      // storage node reconstructed a dangling transaction
	StageWrongShard                     // wrong-group refusal / reroute under a new ring
	StageCommit                         // coordinator settled the transaction outcome
	StageVisibility                     // acceptor executed/discarded the option
	StageFeedPub                        // visibility feed published the key
	StageRead                           // (floored) read served
	StageAck                            // gateway acknowledged the client
)

var stageNames = [...]string{
	StageAdmit:         "admit",
	StageQueue:         "queue",
	StageCoalesceJoin:  "coalesce-join",
	StageCoalesceFlush: "coalesce-flush",
	StageCoalesceSplit: "coalesce-split",
	StageDispatch:      "dispatch",
	StagePropose:       "propose",
	StageForward:       "forward",
	StageVote:          "vote",
	StageLearn:         "learn",
	StagePhase1:        "phase1",
	StagePhase2a:       "phase2a",
	StageRecovery:      "recovery",
	StageTxRecover:     "tx-recover",
	StageWrongShard:    "wrong-shard",
	StageCommit:        "outcome",
	StageVisibility:    "visibility",
	StageFeedPub:       "feed-pub",
	StageRead:          "read",
	StageAck:           "ack",
}

// String names the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return "stage?"
}

// Event flag bits. Stages reuse bits where meanings cannot collide.
const (
	FlagFast        uint8 = 1 << iota // fast ballot (vs classic/leader path)
	FlagAccept                        // accept vote / learned accept
	FlagReject                        // reject vote / learned reject
	FlagDemarcation                   // demarcation (escrow) verdict involved
	FlagBatched                       // rode a batch envelope (vote-batch / propose-batch)
	FlagCommit                        // transaction committed
	FlagAbort                         // transaction aborted
	FlagUnknown                       // outcome unknown (client-side process died)
)

// Event is one span record. All fields are fixed-size or string
// headers, so appending one allocates nothing.
type Event struct {
	Seq   uint64 // the Recorder's append order, shared by all its rings
	At    int64  // transport clock, nanoseconds since the Unix epoch
	Node  string // emitting node
	Tx    string // transaction id; "" for node-scoped events (feed, phase1)
	Key   string // record key, when the event concerns one
	Stage Stage
	DC    int8 // emitting node's data center, -1 when unknown
	Flags uint8
	Arg   int64 // stage-specific detail (attempt count, fan-out, headroom, ...)
}

// ringStripes is the slot-lock stripe count (power of two).
const ringStripes = 64

// Ring is one node's event buffer. Appends from the owning node are
// effectively single-writer (transport handlers are serialized per
// node), but the ring stays race-free under arbitrary concurrent
// appenders: slots are reserved with an atomic fetch-add and written
// under a striped lock, so two appenders contend only if they lap onto
// the same stripe.
type Ring struct {
	rec  *Recorder
	node string
	dc   int8
	mask uint64
	widx atomic.Uint64
	lock [ringStripes]sync.Mutex
	buf  []Event
}

// Add records one event, stamping its append sequence, node and DC,
// and returns the assigned sequence (0 when recording is disabled).
// The gateway pins its admit event's sequence as the assembly lower
// bound for tx-less events. Safe on a nil ring (disabled recording).
func (r *Ring) Add(ev Event) uint64 {
	if r == nil {
		return 0
	}
	ev.Seq = r.rec.clk.Add(1)
	ev.Node = r.node
	ev.DC = r.dc
	i := r.widx.Add(1) - 1
	idx := i & r.mask
	l := &r.lock[idx%ringStripes]
	l.Lock()
	r.buf[idx] = ev
	l.Unlock()
	if r.rec.watchN.Load() != 0 {
		r.rec.observe(ev)
	}
	return ev.Seq
}

// Len reports how many events were ever appended (not the retained
// window size).
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.widx.Load()
}

// Snapshot copies the ring's currently retained events (oldest first
// by append order; callers merge-sort by Seq across rings). Events
// appended concurrently with the snapshot may or may not appear.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	n := r.widx.Load()
	size := uint64(len(r.buf))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		idx := i & r.mask
		l := &r.lock[idx%ringStripes]
		l.Lock()
		ev := r.buf[idx]
		l.Unlock()
		if ev.Seq != 0 {
			out = append(out, ev)
		}
	}
	return out
}

// Config shapes a Recorder. The zero value is usable.
type Config struct {
	// SlowThreshold is the completion latency above which a committed,
	// unremarkable transaction is still retained (0 means 1s).
	SlowThreshold time.Duration
}

// The recorder's sizes.
const (
	ringSize    = 4096 // per-node event capacity, a power of two for mask indexing
	retainLimit = 64   // bound of the retained-trace set
	slowestN    = 5    // slowest transactions always kept, independent of the retained set

	// At most assemblyBudget retain-worthy completions are assembled per
	// window of budgetWindow appends (Event.Seq / budgetWindow), so an
	// abort storm costs at most one full assembly per 1024 appends; the
	// rest are counted in Dropped. Counted in appends, never wall-clock,
	// so a traced simulation stays deterministic.
	assemblyBudget = 4 * retainLimit
	budgetWindow   = 1024 * assemblyBudget
)

// Recorder is one deployment's (or one process's) flight recorder: it
// owns the per-node rings, the shared append counter, the tail-based
// retained set and the phase-latency histograms. A nil *Recorder is a
// valid, fully disabled recorder.
type Recorder struct {
	cfg Config

	clk     atomic.Uint64 // append counter, shared by all rings (Event.Seq)
	watchN  atomic.Int32  // live watch entries (hot-path guard)
	slowBar atomic.Int64  // slowest-N admission bar in ns; -1 while the list isn't full
	gwTop   atomic.Bool   // a gateway tier owns transaction completion

	mu       sync.Mutex
	rings    []*Ring
	byNode   map[string]*Ring
	watch    []watchEnt // retained traces still absorbing trailing events
	retained []*Trace   // bounded, oldest first
	slowest  []*Trace   // sorted by duration descending, ≤ slowestN
	window   uint64     // the budget window spent counts in (clk / budgetWindow)
	spent    int        // full assemblies for retention in that window
	dropped  int        // retain-worthy completions lost to budget exhaustion

	phases phaseSet
}

// New builds a recorder.
func New(cfg Config) *Recorder {
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = time.Second
	}
	rec := &Recorder{
		cfg:    cfg,
		byNode: make(map[string]*Ring),
	}
	rec.slowBar.Store(-1)
	return rec
}

// Ring returns (creating on first use) the event ring for a node in
// data center dc (-1 when the node has none). Nil-safe: a nil recorder
// returns a nil ring, and every Ring method is nil-safe in turn.
func (rec *Recorder) Ring(node string, dc int) *Ring {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if r, ok := rec.byNode[node]; ok {
		return r
	}
	r := &Ring{
		rec:  rec,
		node: node,
		dc:   int8(dc),
		mask: ringSize - 1,
		buf:  make([]Event, ringSize),
	}
	rec.byNode[node] = r
	rec.rings = append(rec.rings, r)
	return r
}

// Events reports the total events recorded across all rings.
func (rec *Recorder) Events() uint64 {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	rings := append([]*Ring(nil), rec.rings...)
	rec.mu.Unlock()
	var n uint64
	for _, r := range rings {
		n += r.Len()
	}
	return n
}

// SlowThreshold reports the configured slow-transaction bound.
func (rec *Recorder) SlowThreshold() time.Duration {
	if rec == nil {
		return 0
	}
	return rec.cfg.SlowThreshold
}

// ClaimTop marks that a gateway tier sits above the coordinators:
// coordinator-level completions then only feed histograms, and the
// gateway's completion (which sees admit→ack, including queueing)
// drives retention and the slowest-N list.
func (rec *Recorder) ClaimTop() {
	if rec == nil {
		return
	}
	rec.gwTop.Store(true)
}
