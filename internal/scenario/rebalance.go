package scenario

import (
	"fmt"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/record"
	"mdcc/internal/ring"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// Live shard moves: the harness is the move's control plane. It runs
// each move through freeze → bootstrap → publish with poll loops
// that survive every fault the nemesis throws at the window — crashed
// and restarted storage nodes (pull chains re-issue per incarnation),
// crashed and restarted gateways (the freeze fence re-applies every
// tick, and RestartGateway re-applies it immediately), partitions and
// drops (the drain gate simply passes later; pulls retry internally).
// Control decisions run in-process — an out-of-band operator — but
// every byte of shard data moves over the simulated network through
// the same anti-entropy path background sync uses.
//
// Moves are queued and run strictly one at a time (rebFrozen is the
// in-flight flag; the queue is what lets a churn nemesis script joins
// and leaves back to back):
//
//  1. freeze — admission for moving shards is fenced at the source
//     gateways and in-flight options drain or force-settle;
//  2. bootstrap — destination replicas adopt the moving shards via
//     the anti-entropy value+version+summary path;
//  3. publish — the new epoch is installed in the ring table and
//     routing state re-homes.
//
// A move may add groups (capacity growth: keys re-home onto the
// newcomers) or remove them (a leave: the departing group's slice
// scatters across every survivor, each pulling its share — including
// from the leaver — before the epoch publishes).
const (
	rebFreezePoll    = 250 * time.Millisecond
	rebBootstrapPoll = 500 * time.Millisecond
)

// queuedMove is one pending ring-membership change; target derives the
// next map from whatever the current map is when the move starts (so
// queued churn composes: a leave queued behind a join sees the joined
// ring).
type queuedMove struct {
	label  string
	target func(cur ring.Map) ring.Map
}

// ctrl is the node whose event queue carries the move's poll timers.
// Clients are never crashed by the nemesis, so the control loop cannot
// die mid-move.
func (r *Run) ctrl() transport.NodeID { return r.Cluster.Clients[0].ID }

// startRebalance stages the scenario's declarative move (the
// capacity-growth operation Scenario.Rebalance describes).
func (r *Run) startRebalance() {
	rb := r.scn.Rebalance
	if rb.AddGroup <= 0 || rb.AddGroup >= r.Opts.NodesPerDC {
		r.events = append(r.events, fmt.Sprintf(
			"shard move skipped: group %d not provisioned (nodes per DC: %d)", rb.AddGroup, r.Opts.NodesPerDC))
		return
	}
	r.QueueMove(fmt.Sprintf("activate group %d", rb.AddGroup),
		func(cur ring.Map) ring.Map { return cur.WithGroup(rb.AddGroup) })
}

// QueueMove enqueues a ring membership change (a churn join or leave).
// Moves run FIFO, one at a time; each target sees the map the previous
// move published. Gateway runs only — the freeze fence lives there.
func (r *Run) QueueMove(label string, target func(cur ring.Map) ring.Map) {
	if r.gws == nil {
		r.events = append(r.events, "shard move skipped: moves require the gateway tier")
		return
	}
	r.moveQueue = append(r.moveQueue, queuedMove{label: label, target: target})
	r.maybeStartMove()
}

// maybeStartMove starts the next queued move unless one is in flight.
// Called at queue time and from each move's publish.
func (r *Run) maybeStartMove() {
	if len(r.moveQueue) == 0 || r.rebFrozen {
		return
	}
	mv := r.moveQueue[0]
	r.moveQueue = r.moveQueue[1:]
	next := mv.target(r.Cluster.Ring().Current().Map())
	if len(next.Groups) == 0 {
		r.events = append(r.events, fmt.Sprintf("shard move %q skipped: would empty the ring", mv.label))
		r.maybeStartMove()
		return
	}
	for _, g := range next.Groups {
		if g < 0 || g >= r.Opts.NodesPerDC {
			r.events = append(r.events, fmt.Sprintf(
				"shard move %q skipped: group %d not provisioned (nodes per DC: %d)", mv.label, g, r.Opts.NodesPerDC))
			r.maybeStartMove()
			return
		}
	}
	r.rebIssued = make(map[int]*core.StorageNode)
	r.rebDone = make(map[int]bool)
	r.rebAdopted = make(map[int]int)
	r.rebFreeze(ring.Compile(next), mv.label)
}

// rebFreeze fences admission for moving keys at every gateway, then
// polls the two-part drain gate: no live gateway holds an in-flight
// transaction touching a moving key, and no live source replica holds
// an unsettled vote on one. Votes held only by crashed replicas are
// fine — gate soundness needs every *decided* option applied on the
// live copies the bootstrap pulls from; a crashed replica's replayed
// vote re-settles through the sweep and reconciles among the new
// owners' own anti-entropy after publish.
func (r *Run) rebFreeze(next *ring.Ring, label string) {
	cur := r.Cluster.Ring().Current()
	r.rebMoving = func(k record.Key) bool { return next.Owner(string(k)) != cur.Owner(string(k)) }
	r.rebNext = next.Epoch()
	r.rebFrozen = true
	var poll func()
	poll = func() {
		// Re-apply every tick: a gateway restarted since the last tick
		// has a fresh, unfenced incarnation (FreezeShards is idempotent).
		r.rebApplyFreeze()
		if r.rebDrained() {
			r.rebBootstrap(next, label)
			return
		}
		r.net.After(r.ctrl(), rebFreezePoll, poll)
	}
	poll()
}

// rebApplyFreeze (re-)fences every live gateway.
func (r *Run) rebApplyFreeze() {
	for _, dc := range topology.AllDCs() {
		if g := r.gws[dc]; g != nil && !r.gwDown[dc] {
			g.FreezeShards(r.rebMoving, r.rebNext)
		}
	}
}

// rebDrained is the freeze gate.
func (r *Run) rebDrained() bool {
	for _, dc := range topology.AllDCs() {
		if g := r.gws[dc]; g != nil && !r.gwDown[dc] && g.InflightMoving() > 0 {
			return false
		}
	}
	for i, n := range r.nodes {
		if r.crashed[i] {
			continue
		}
		if n.Unsettled(r.rebMoving) > 0 {
			return false
		}
	}
	return true
}

// rebBootstrap brings every destination replica of the move to the
// moving shards' settled state by pulling a full directed anti-entropy
// walk — filtered to the keys its group gains — from EVERY replica of
// every other current group, across all five DCs. Destinations: for a
// join, keys re-home only onto the added groups (consistent hashing
// moves nothing between survivors); for a leave, the departing group's
// slice scatters, so every surviving group is a destination and the
// leaver is among the sources pulled from. The union of walks matters
// for soundness: the drain gate proves every live source settled its
// votes, but a write decided by a 3-of-5 classic quorum leaves up to
// two non-voting sources stale with no votes to gate on, and
// partitions/crashes can widen that set. Any committed write is
// applied on at least a quorum of sources, so the union of all five
// DCs' walks always contains it (adoption takes the max version per
// key and grafts lineage, so stale walks can never roll a fresher one
// back). Chains are re-issued from scratch whenever a destination node
// restarts as a fresh incarnation — including a churn replace that
// wiped its disks (adoption is WAL-durable, so a completed chain
// survives ordinary crashes; a wiped replacement re-pulls everything);
// pulls to a crashed source simply retry until it returns.
func (r *Run) rebBootstrap(next *ring.Ring, label string) {
	cur := r.Cluster.Ring().Current() // still the pre-move ring: Install runs at publish
	curHas := make(map[int]bool)
	for _, g := range cur.Groups() {
		curHas[g] = true
	}
	dests := make(map[int]bool)
	for _, g := range next.Groups() {
		if !curHas[g] {
			dests[g] = true
		}
	}
	if len(dests) == 0 { // pure leave: every survivor gains a share
		for _, g := range next.Groups() {
			dests[g] = true
		}
	}
	acceptFor := func(g int) func(record.Key) bool {
		return func(k record.Key) bool {
			return next.Owner(string(k)) == g && cur.Owner(string(k)) != g
		}
	}
	srcFor := func(g int) []int {
		var out []int
		for _, s := range cur.Groups() {
			if s != g {
				out = append(out, s)
			}
		}
		return out
	}
	var poll func()
	poll = func() {
		r.rebApplyFreeze() // keep restarted gateways fenced through bootstrap
		allDone := true
		for i, sn := range r.Cluster.Storage {
			if !dests[sn.Index] {
				continue
			}
			if r.rebDone[i] {
				continue
			}
			allDone = false
			if r.crashed[i] || r.rebIssued[i] == r.nodes[i] {
				continue
			}
			r.rebIssued[i] = r.nodes[i]
			r.rebIssueChain(i, srcFor(sn.Index), acceptFor(sn.Index))
		}
		if allDone {
			total := 0
			for _, a := range r.rebAdopted {
				total += a
			}
			r.rebPublish(next, label, total)
			return
		}
		r.net.After(r.ctrl(), rebBootstrapPoll, poll)
	}
	poll()
}

// rebIssueChain walks destination node i through one AdoptShard pull
// per source replica (every source group in every DC, own DC first),
// sequentially. The chain belongs to one storage incarnation: if that
// incarnation crashes its callbacks die with it (halted nodes process
// nothing), and the bootstrap poll issues a fresh chain on the
// restarted node.
func (r *Run) rebIssueChain(i int, srcGroups []int, accept func(record.Key) bool) {
	node := r.nodes[i]
	own := r.Cluster.Storage[i].DC
	var srcs []transport.NodeID
	for _, g := range srcGroups {
		srcs = append(srcs, topology.StorageID(own, g))
		for _, dc := range topology.AllDCs() {
			if dc != own {
				srcs = append(srcs, topology.StorageID(dc, g))
			}
		}
	}
	var step func(si, total int)
	step = func(si, total int) {
		if si >= len(srcs) {
			r.rebDone[i] = true
			r.rebAdopted[i] = total
			return
		}
		node.AdoptShard(srcs[si], accept, func(adopted int) { step(si+1, total+adopted) })
	}
	step(0, 0)
}

// rebPublish installs the next map in the shared ring table, so
// Shard() answers with the new owners from here on, then lifts the
// freeze, re-homes per-key routing state at every live gateway (one
// restarted after publish starts fresh against the new ring and needs
// nothing) and starts the next queued move.
func (r *Run) rebPublish(next *ring.Ring, label string, moved int) {
	r.Cluster.Ring().Install(next.Map())
	r.rebFrozen = false
	for _, dc := range topology.AllDCs() {
		if g := r.gws[dc]; g != nil && !r.gwDown[dc] {
			g.RingPublished()
		}
	}
	r.events = append(r.events, fmt.Sprintf(
		"shard move %q published: epoch %d, %d keys re-homed, %d wrong-shard refusals retried so far",
		label, next.Epoch(), moved, r.wrongShard))
	r.Opts.Logf("[%s] shard move %q published: epoch %d, %d keys", r.scn.Name, label, next.Epoch(), moved)
	r.maybeStartMove()
}
