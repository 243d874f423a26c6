// Package simnet is a deterministic discrete-event network simulator
// implementing transport.Network on a virtual clock. It stands in for
// the paper's five-data-center EC2 deployment (netem-style WAN
// emulation): messages experience a configurable one-way latency
// matrix with seeded jitter, nodes process messages serially with a
// per-message service time (so queueing effects emerge naturally),
// and whole nodes or data centers can be failed and recovered at
// chosen virtual times.
//
// Concurrency contract: the simulator is single-threaded. Everything
// — handlers, timer callbacks, workload logic — runs on the event
// loop via Run*/Step. Calling Send/After from inside handlers is the
// intended usage; calling them from other goroutines while the loop
// runs is a data race.
//
// Scale: the event queue is sharded per node (see engine.go) so a
// thousand-node cluster pays O(log N_nodes) per push/pop instead of
// O(log E_total) on one global heap, and per-node state (service
// slot, drift, incarnation epoch) lives on a node struct instead of
// global maps. The per-node queues are internal/minheap, the binary
// heap transport.Local's delivery clock also uses. The sharded engine
// is the only one outside the tests: the legacy global heap lives in
// engine_test.go as the oracle the differential tests and benchmarks
// compare against, and both replay the exact same event order for a
// seed.
package simnet

import (
	"math/rand"
	"time"

	"mdcc/internal/transport"
)

// Options configures a simulated network.
type Options struct {
	// Latency returns the base one-way delay between nodes
	// (typically topology.Cluster.LatencyWith). Nil means 1ms uniform.
	Latency transport.LatencyFunc
	// JitterFrac adds ±frac multiplicative uniform jitter to each
	// message's latency (paper-world WAN variance). 0 disables.
	JitterFrac float64
	// ServiceTime is how long a node is busy per handled message
	// (models storage-node CPU; creates queueing under load).
	ServiceTime time.Duration
	// DropProb uniformly drops messages (0 disables).
	DropProb float64
	// DupProb delivers a message a second time after an extra
	// ReorderWindow-bounded delay (0 disables). Models retransmitting
	// WANs; protocols must stay idempotent.
	DupProb float64
	// ReorderProb holds a message back by a uniform extra delay in
	// (0, ReorderWindow], letting later sends overtake it (0 disables).
	ReorderProb float64
	// ReorderWindow bounds the extra delay of duplicated and reordered
	// deliveries. Zero means 50ms.
	ReorderWindow time.Duration
	// Seed makes runs reproducible.
	Seed int64
	// OnDeliver, when set, observes every delivered envelope (after
	// drop/partition filtering, before the handler runs). Pure
	// observation for tests and benchmarks that inspect traffic (e.g.
	// that every delivered message survives the wire codec); it must
	// not mutate the envelope or touch the simulator.
	OnDeliver func(e transport.Envelope)
}

// Stats counts network-level events.
type Stats struct {
	Delivered int64
	Dropped   int64 // total of the three drop causes below
	// DroppedProb counts uniform DropProb losses, DroppedEndpoint
	// drops at failed/crashed/unregistered endpoints, and
	// DroppedPartition drops on partitioned links — kept separate so
	// chaos tests can assert on the cause, not just the count.
	DroppedProb      int64
	DroppedEndpoint  int64
	DroppedPartition int64
	Duplicated       int64
	Reordered        int64
	Timers           int64
}

// linkKey identifies one directed link.
type linkKey struct{ from, to transport.NodeID }

// simNode is the per-node simulator state: incarnation epoch, failure
// flags, the service-time slot, clock drift, delivery counters, and
// (under the sharded engine) the node's own event queue. One struct
// replaces what used to be six global maps, and churned-out nodes are
// reaped wholesale once nothing references them (see maybeReap).
type simNode struct {
	id      transport.NodeID
	handler transport.Handler
	// epoch pins queued events to an incarnation; Crash bumps it.
	epoch  int64
	failed bool
	// crashed marks a dead incarnation whose state may be reaped once
	// its queue drains; Register (a restart) clears it.
	crashed bool
	// Service-time slot: the node is busy until freeAtN.
	hasFree bool
	freeAtN int64
	// Clock drift (SetDrift); a drifting node is never reaped so the
	// skew survives crash/restart cycles like the old global map did.
	hasDrift bool
	drift    float64
	// delivered counts envelopes handled by this incarnation chain
	// (folded into deadDelivered on reap).
	delivered int64
	// pending counts events queued for this node across the whole
	// engine — including cancelled timers not yet popped. The struct
	// may only be reaped at zero: queued events hold closures over it.
	pending int
	// q / run / ready belong to the sharded engine: q is the node's
	// future-heap ordered by (atN, seq); run is the ready queue —
	// events already blocked behind the service slot, ordered by seq
	// alone because they all run at freeAtN; ready is the index of the
	// node's entry in the engine's top-level heap (-1 when both are
	// empty).
	q     []nodeEvent
	run   []nodeEvent
	ready int
}

// Net is the simulated network.
type Net struct {
	opts Options
	// Virtual time is kept as nanoseconds since epoch (nowN);
	// now caches the equivalent time.Time for Now() callers.
	nowN     int64
	now      time.Time
	serviceN int64
	eng      engine
	seq      int64
	nodes    map[transport.NodeID]*simNode
	// deadFailed / deadDelivered preserve the only observable bits of
	// a reaped node (isFailed and DeliveredTo) so reaping is
	// invisible to the schedule. Both are bounded by the id catalogue,
	// not by churn count.
	deadFailed    map[transport.NodeID]bool
	deadDelivered map[transport.NodeID]int64
	blocked       map[linkKey]bool // links cut by Partition
	latScale      float64
	rng           *rand.Rand
	stats         Stats
	// free is the event freelist: the steady-state message path
	// recycles event structs instead of allocating per send.
	free []*event
}

func (n *Net) newEvent() *event {
	if k := len(n.free); k > 0 {
		e := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return e
	}
	return &event{}
}

func (n *Net) recycle(e *event) {
	*e = event{}
	n.free = append(n.free, e)
}

// event is one queued occurrence. Events are pooled (Net.free): the
// delivery path allocates nothing per message, which matters as much
// as queue asymptotics at thousand-node scale. Exactly one of
// run/timerF/env is meaningful, keyed off msg and timerF.
type event struct {
	// atN is the scheduled virtual time in nanoseconds since
	// epoch. For a ready event on a busy node the engine normalizes
	// atN to the node's free instant at peek, so by the time the step
	// loop sees a peeked head, atN is always the event's run time.
	atN  int64
	seq  int64
	node *simNode // nil for scheduler-level events (At)
	// run is the scheduler-level callback (At events).
	run func()
	// timerF is the timer callback (After events).
	timerF func()
	// env is the message being delivered (msg events).
	env transport.Envelope
	// cancel is non-nil for timers.
	cancel *bool
	// serialize: message/timer events occupy the node's service
	// slot; pure scheduler events (failures) do not.
	serialize bool
	// epoch pins the event to the target node's incarnation; Crash
	// bumps the incarnation so everything queued for the old process
	// (in-flight deliveries, its timers) silently dies with it.
	epoch int64
	// msg marks message deliveries (for drop accounting when an
	// incarnation dies with deliveries queued).
	msg bool
}

// epoch is where every run's virtual clock starts.
var epoch = time.Unix(0, 0)

// New builds a simulated network.
func New(opts Options) *Net {
	if opts.Latency == nil {
		opts.Latency = func(from, to transport.NodeID) time.Duration { return time.Millisecond }
	}
	if opts.ReorderWindow <= 0 {
		opts.ReorderWindow = 50 * time.Millisecond
	}
	n := &Net{
		opts:          opts,
		now:           epoch,
		serviceN:      int64(opts.ServiceTime),
		nodes:         make(map[transport.NodeID]*simNode),
		deadFailed:    make(map[transport.NodeID]bool),
		deadDelivered: make(map[transport.NodeID]int64),
		blocked:       make(map[linkKey]bool),
		latScale:      1,
		rng:           rand.New(rand.NewSource(opts.Seed)),
	}
	n.eng = newShardedEngine(n.serviceN)
	return n
}

// nodeFor returns the state struct for id, creating it on first
// reference. Recreation after a reap restores the preserved failed
// bit so the reap is invisible.
func (n *Net) nodeFor(id transport.NodeID) *simNode {
	nd := n.nodes[id]
	if nd == nil {
		nd = &simNode{id: id, ready: -1}
		if n.deadFailed[id] {
			nd.failed = true
			delete(n.deadFailed, id)
		}
		n.nodes[id] = nd
	}
	return nd
}

// maybeReap frees a dead incarnation's state once nothing can touch
// it again: the node crashed, its queue fully drained (pending spans
// in-flight deliveries, its timers, and cancelled-but-queued timers),
// and no drift override pins it. The observable remnants — Failed()
// and DeliveredTo() — move to bounded side maps; everything else
// (epoch, handler, service slot) is unreachable once the queue is
// empty, because only queued events compare epochs or occupy the
// slot. A restart (Register) simply recreates the struct.
func (n *Net) maybeReap(nd *simNode) {
	if nd == nil || !nd.crashed || nd.pending != 0 || nd.hasDrift {
		return
	}
	if nd.failed {
		n.deadFailed[nd.id] = true
	}
	if nd.delivered != 0 {
		n.deadDelivered[nd.id] += nd.delivered
	}
	delete(n.nodes, nd.id)
}

// Register installs a node handler. Registering is also how a
// restarted incarnation comes back after Crash.
func (n *Net) Register(id transport.NodeID, h transport.Handler) {
	nd := n.nodeFor(id)
	nd.handler = h
	nd.crashed = false
}

// Rand exposes the simulator's seeded RNG so workloads share the
// deterministic stream.
func (n *Net) Rand() *rand.Rand { return n.rng }

// Now returns current virtual time.
func (n *Net) Now() time.Time { return n.now }

func (n *Net) setNow(atN int64) {
	n.nowN = atN
	n.now = epoch.Add(time.Duration(atN))
}

// Stats returns delivery counters.
func (n *Net) Stats() Stats { return n.stats }

func (n *Net) isFailed(id transport.NodeID) bool {
	if nd := n.nodes[id]; nd != nil {
		return nd.failed
	}
	return n.deadFailed[id]
}

// Send schedules delivery of msg after matrix latency + jitter.
// Messages from or to failed nodes are dropped; so are random drops,
// and messages crossing a partitioned link.
func (n *Net) Send(from, to transport.NodeID, msg transport.Message) {
	if n.isFailed(from) {
		n.dropEndpoint()
		return
	}
	if len(n.blocked) > 0 && n.blocked[linkKey{from, to}] {
		n.stats.Dropped++
		n.stats.DroppedPartition++
		return
	}
	d := n.opts.Latency(from, to)
	if n.latScale != 1 {
		d = time.Duration(float64(d) * n.latScale)
	}
	if n.opts.JitterFrac > 0 {
		d = time.Duration(float64(d) * (1 + n.opts.JitterFrac*(2*n.rng.Float64()-1)))
	}
	if n.opts.DropProb > 0 && n.rng.Float64() < n.opts.DropProb {
		n.stats.Dropped++
		n.stats.DroppedProb++
		return
	}
	if n.opts.ReorderProb > 0 && n.rng.Float64() < n.opts.ReorderProb {
		n.stats.Reordered++
		d += time.Duration(n.rng.Int63n(int64(n.opts.ReorderWindow))) + 1
	}
	n.deliverAfter(from, to, msg, d)
	if n.opts.DupProb > 0 && n.rng.Float64() < n.opts.DupProb {
		n.stats.Duplicated++
		extra := time.Duration(n.rng.Int63n(int64(n.opts.ReorderWindow))) + 1
		n.deliverAfter(from, to, msg, d+extra)
	}
}

func (n *Net) dropEndpoint() {
	n.stats.Dropped++
	n.stats.DroppedEndpoint++
}

func (n *Net) deliverAfter(from, to transport.NodeID, msg transport.Message, d time.Duration) {
	nd := n.nodeFor(to)
	e := n.newEvent()
	e.atN = n.nowN + int64(d)
	e.node = nd
	e.serialize = true
	e.epoch = nd.epoch
	e.msg = true
	e.env = transport.Envelope{From: from, To: to, Msg: msg}
	n.push(e)
}

// deliver runs a message event: the delivery-time endpoint checks,
// counters, and the handler call.
func (n *Net) deliver(e *event) {
	nd := e.node
	if nd.failed {
		n.dropEndpoint()
		return
	}
	if nd.handler == nil {
		n.dropEndpoint()
		return
	}
	n.stats.Delivered++
	nd.delivered++
	if n.opts.OnDeliver != nil {
		n.opts.OnDeliver(e.env)
	}
	nd.handler(e.env)
}

// DeliveredTo returns how many messages were delivered to one node —
// the physical envelope count, so a batch envelope counts once
// (benchmarks use this to measure per-acceptor message load).
func (n *Net) DeliveredTo(id transport.NodeID) int64 {
	total := n.deadDelivered[id]
	if nd := n.nodes[id]; nd != nil {
		total += nd.delivered
	}
	return total
}

// After schedules f on node `on` after d of virtual time, serialized
// with its handler. Timers keep firing on failed nodes: Fail models a
// network partition (the paper's outage "prevented the data center
// from receiving any messages"), not a crash — the isolated node's
// local processing continues but everything it sends is dropped.
func (n *Net) After(on transport.NodeID, d time.Duration, f func()) transport.Timer {
	if d < 0 {
		d = 0
	}
	nd := n.nodeFor(on)
	if nd.hasDrift {
		d = time.Duration(float64(d) * (1 + nd.drift))
		if d < 0 {
			d = 0
		}
	}
	cancelled := false
	e := n.newEvent()
	e.atN = n.nowN + int64(d)
	e.node = nd
	e.cancel = &cancelled
	e.serialize = true
	e.epoch = nd.epoch
	e.timerF = f
	n.push(e)
	return simTimer{&cancelled}
}

type simTimer struct{ cancelled *bool }

func (t simTimer) Stop() bool {
	if *t.cancelled {
		return false
	}
	*t.cancelled = true
	return true
}

// At schedules a scheduler-level callback (failure injection, workload
// phase changes) at an absolute offset from the epoch, not serialized
// with any node.
func (n *Net) At(offset time.Duration, f func()) {
	atN := int64(offset)
	if atN < n.nowN {
		atN = n.nowN
	}
	e := n.newEvent()
	e.atN = atN
	e.run = f
	n.push(e)
}

// Fail makes a node unreachable: messages from and to it are dropped
// and its timers are suppressed until Recover.
func (n *Net) Fail(id transport.NodeID) { n.nodeFor(id).failed = true }

// Recover brings a failed node back (its state is whatever it was;
// storage recovery is the protocol's job).
func (n *Net) Recover(id transport.NodeID) {
	if nd := n.nodes[id]; nd != nil {
		nd.failed = false
	}
	delete(n.deadFailed, id)
}

// Crash kills a node's process: unlike Fail (a partition — the node
// keeps computing), Crash discards every queued event bound to the
// node, in-flight deliveries and its own timers alike, by bumping the
// node's incarnation. The node stays unreachable until Recover; a
// restarted incarnation must Register a fresh handler and re-arm its
// own timers (internal/core's restart hooks do both).
func (n *Net) Crash(id transport.NodeID) {
	nd := n.nodeFor(id)
	nd.epoch++
	nd.failed = true
	nd.crashed = true
	n.maybeReap(nd)
}

// Partition cuts every link between the two node sets, both
// directions (the paper's data-center outage "prevented the data
// center from receiving any messages"). Nodes keep running; messages
// crossing the cut are dropped and counted as DroppedPartition.
// Cuts accumulate until HealAll.
func (n *Net) Partition(a, b []transport.NodeID) {
	for _, x := range a {
		for _, y := range b {
			n.blocked[linkKey{x, y}] = true
			n.blocked[linkKey{y, x}] = true
		}
	}
}

// HealAll removes every partition.
func (n *Net) HealAll() { n.blocked = make(map[linkKey]bool) }

// ScaleLatency multiplies every link's base latency by f (a global
// WAN brown-out when f > 1). f <= 0 resets to 1.
func (n *Net) ScaleLatency(f float64) {
	if f <= 0 {
		f = 1
	}
	n.latScale = f
}

// SetDrift skews a node's local clock rate: its timers fire after
// d·(1+frac) instead of d (frac -0.5 halves every timeout, +1 doubles
// them). Only timers armed after the call are affected.
func (n *Net) SetDrift(id transport.NodeID, frac float64) {
	if frac == 0 {
		if nd := n.nodes[id]; nd != nil {
			nd.hasDrift = false
			nd.drift = 0
			n.maybeReap(nd)
		}
		return
	}
	nd := n.nodeFor(id)
	nd.hasDrift = true
	nd.drift = frac
}

// SetDropProb replaces the uniform drop probability at runtime
// (nemesis schedules ramp chaos up and down mid-run).
func (n *Net) SetDropProb(p float64) { n.opts.DropProb = p }

// SetDupProb replaces the duplication probability at runtime.
func (n *Net) SetDupProb(p float64) { n.opts.DupProb = p }

// SetReorder replaces the reorder probability (and window, when
// w > 0) at runtime.
func (n *Net) SetReorder(p float64, w time.Duration) {
	n.opts.ReorderProb = p
	if w > 0 {
		n.opts.ReorderWindow = w
	}
}

func (n *Net) push(e *event) {
	e.seq = n.seq
	n.seq++
	if e.node != nil {
		e.node.pending++
	}
	n.eng.insert(e)
}

// step outcomes: ran one event, next runnable lies past the limit, or
// the queue is empty.
const (
	stepRan = iota
	stepBlocked
	stepEmpty
)

// step executes the next event whose run time is ≤ limitN. Cancelled
// timers and events addressed to crashed incarnations are discarded
// as they surface regardless of the limit — discards are invisible to
// the schedule. Service-time serialization: a busy node's events run
// at the node's free instant, in seq order among those that were due;
// the engine realizes that at peek (see engine), so the head it
// returns already carries its run time.
func (n *Net) step(limitN int64) int {
	for {
		e := n.eng.peek()
		if e == nil {
			return stepEmpty
		}
		nd := e.node
		if e.cancel != nil && *e.cancel {
			n.eng.popHead()
			nd.pending--
			n.recycle(e)
			n.maybeReap(nd)
			continue
		}
		if nd != nil && e.epoch != nd.epoch {
			// Addressed to a crashed incarnation.
			n.eng.popHead()
			nd.pending--
			if e.msg {
				n.dropEndpoint()
			}
			n.recycle(e)
			n.maybeReap(nd)
			continue
		}
		if e.atN > limitN {
			return stepBlocked
		}
		n.eng.popHead()
		if nd != nil {
			nd.pending--
		}
		if e.atN > n.nowN {
			n.setNow(e.atN)
		}
		if e.serialize && n.serviceN > 0 {
			nd.hasFree = true
			nd.freeAtN = n.nowN + n.serviceN
			n.eng.nodeRan(nd)
		}
		switch {
		case e.msg:
			n.deliver(e)
		case e.timerF != nil:
			n.stats.Timers++
			e.timerF()
		default:
			e.run()
		}
		n.recycle(e)
		n.maybeReap(nd)
		return stepRan
	}
}

// RunFor processes events until `d` of virtual time has elapsed from
// the current instant (or the event queue drains). An event is executed
// iff its run time is within the window: a deadline never truncates the
// schedule, it only slices it.
func (n *Net) RunFor(d time.Duration) {
	deadlineN := n.nowN + int64(d)
	for n.step(deadlineN) == stepRan {
	}
	if n.nowN < deadlineN {
		n.setNow(deadlineN)
	}
}

// RunUntil steps until cond() is true, giving up after maxVirtual.
// It reports whether the condition was met.
func (n *Net) RunUntil(cond func() bool, maxVirtual time.Duration) bool {
	deadlineN := n.nowN + int64(maxVirtual)
	for !cond() {
		switch n.step(deadlineN) {
		case stepBlocked:
			return false
		case stepEmpty:
			return cond()
		}
	}
	return true
}
