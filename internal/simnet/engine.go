package simnet

import "mdcc/internal/minheap"

// engine is the event queue behind the simulator.
//
// The contract that keeps engines interchangeable per seed: peek
// returns the queued event whose *effective* key — (run time, seq),
// where a busy node's ready events run at the node's free instant —
// is smallest, with its atN normalized to that run time. Seqs are
// globally unique, so the order is total, and for a busy node the
// effective order among ready events reduces to seq order (they all
// share the node's free instant as run time). popHead removes the
// peeked event. nodeRan tells the engine a node's service slot
// advanced (events earlier than the new free instant become "ready").
// Any engine honoring this replays the exact same schedule: the
// sharded engine below is the one the simulator runs, and the legacy
// global heap survives in engine_test.go as the oracle
// TestEngineEquivalence replays it against.
type engine interface {
	insert(e *event)
	peek() *event
	popHead()
	nodeRan(nd *simNode)
	len() int
}

// nodeEvent is one entry in a node-local queue (or the scheduler
// queue): the ordering key inlined next to the event pointer, so heap
// comparisons touch only the slice being sifted — no pointer chase
// per comparison, no interface boxing.
type nodeEvent struct {
	atN int64
	seq int64
	e   *event
}

// byTime orders the future heaps (a node's and the scheduler's) by
// (atN, seq); bySeq orders a run queue by seq alone, because ready
// events share one run time and send order decides.
func byTime(a, b *nodeEvent) bool { return keyLess(a.atN, a.seq, b.atN, b.seq) }
func bySeq(a, b *nodeEvent) bool  { return a.seq < b.seq }

// topEntry is a node's presence in the top-level heap: the effective
// key of the node's earliest event, inlined. nd.ready tracks the
// entry's index so key updates are O(log N_nodes) sift-fixes, not
// searches.
type topEntry struct {
	atN int64
	seq int64
	nd  *simNode
}

// shardedEngine shards the event queue per node. Each node keeps a
// future-heap of not-yet-due events keyed (atN, seq) plus a run
// queue of ready events keyed seq alone — events that already waited
// behind the node's service slot and run back-to-back at the node's
// free instant. A small top-level heap orders nodes by the effective
// key of their earliest event. The payoff over the global heap is
// twofold: pushes/pops touch one node-local heap plus the O(nodes)
// top heap instead of one O(E_total) ordering, and a busy node's
// backlog never re-enters any ordering structure — an event migrates
// future→ready once, instead of being re-keyed through the global
// heap on every service slot (the legacy engine's O(backlog) clamp
// round per delivery). Scheduler-level events (At) have no node and
// sit in their own heap; the global head is min(sched, top).
type shardedEngine struct {
	top      []topEntry
	sched    []nodeEvent
	serviceN int64
	count    int
}

func newShardedEngine(serviceN int64) *shardedEngine {
	return &shardedEngine{serviceN: serviceN}
}

func keyLess(a1, s1, a2, s2 int64) bool {
	if a1 != a2 {
		return a1 < a2
	}
	return s1 < s2
}

// busyAt reports whether an event landing at atN on nd would wait
// behind the node's service slot.
func busyAt(serviceN int64, nd *simNode, e *event) bool {
	return e.serialize && serviceN > 0 && nd.hasFree && nd.freeAtN > e.atN
}

func (s *shardedEngine) insert(e *event) {
	s.count++
	if e.node == nil {
		s.sched = minheap.Push(s.sched, nodeEvent{e.atN, e.seq, e}, byTime)
		return
	}
	nd := e.node
	if busyAt(s.serviceN, nd, e) {
		nd.run = minheap.Push(nd.run, nodeEvent{e.atN, e.seq, e}, bySeq)
	} else {
		nd.q = minheap.Push(nd.q, nodeEvent{e.atN, e.seq, e}, byTime)
	}
	s.syncTop(nd)
}

// nodeKey computes a node's effective head key: ready events run at
// the node's free instant in seq order; future events at their own
// (atN, seq).
func (s *shardedEngine) nodeKey(nd *simNode) (int64, int64, bool) {
	hasRun, hasQ := len(nd.run) > 0, len(nd.q) > 0
	switch {
	case !hasRun && !hasQ:
		return 0, 0, false
	case !hasRun:
		return nd.q[0].atN, nd.q[0].seq, true
	case !hasQ:
		return nd.freeAtN, nd.run[0].seq, true
	}
	if keyLess(nd.q[0].atN, nd.q[0].seq, nd.freeAtN, nd.run[0].seq) {
		return nd.q[0].atN, nd.q[0].seq, true
	}
	return nd.freeAtN, nd.run[0].seq, true
}

// headIsReady reports whether the node's effective head is its run
// queue (vs future heap). Only valid when the node has events.
func (s *shardedEngine) headIsReady(nd *simNode) bool {
	if len(nd.run) == 0 {
		return false
	}
	if len(nd.q) == 0 {
		return true
	}
	return !keyLess(nd.q[0].atN, nd.q[0].seq, nd.freeAtN, nd.run[0].seq)
}

// schedFirst reports whether the scheduler queue holds the global
// minimum (vs the top-level node heap).
func (s *shardedEngine) schedFirst() bool {
	if len(s.sched) == 0 {
		return false
	}
	if len(s.top) == 0 {
		return true
	}
	return keyLess(s.sched[0].atN, s.sched[0].seq, s.top[0].atN, s.top[0].seq)
}

func (s *shardedEngine) peek() *event {
	if s.schedFirst() {
		return s.sched[0].e
	}
	if len(s.top) == 0 {
		return nil
	}
	nd := s.top[0].nd
	if s.headIsReady(nd) {
		// A ready event's run time IS the node's free instant:
		// normalize atN so the step loop sees the effective key.
		e := nd.run[0].e
		e.atN = nd.freeAtN
		return e
	}
	return nd.q[0].e
}

func (s *shardedEngine) popHead() {
	s.count--
	if s.schedFirst() {
		s.sched, _ = minheap.Pop(s.sched, byTime)
		return
	}
	nd := s.top[0].nd
	if s.headIsReady(nd) {
		nd.run, _ = minheap.Pop(nd.run, bySeq)
	} else {
		nd.q, _ = minheap.Pop(nd.q, byTime)
	}
	s.syncTop(nd)
}

// nodeRan migrates events the advanced service slot now blocks:
// future events earlier than the new free instant move to the run
// queue — once per event, ever.
func (s *shardedEngine) nodeRan(nd *simNode) {
	moved := false
	for len(nd.q) > 0 && nd.q[0].atN < nd.freeAtN {
		var ev nodeEvent
		nd.q, ev = minheap.Pop(nd.q, byTime)
		nd.run = minheap.Push(nd.run, ev, bySeq)
		moved = true
	}
	if moved || len(nd.run) > 0 {
		// The run queue's effective key tracks freeAtN, which just
		// advanced — republish even when nothing migrated.
		s.syncTop(nd)
	}
}

func (s *shardedEngine) len() int { return s.count }

// syncTop reconciles a node's top-level entry with its effective head
// key after the node's queues (or free instant) changed.
func (s *shardedEngine) syncTop(nd *simNode) {
	atN, seq, ok := s.nodeKey(nd)
	if !ok {
		if nd.ready >= 0 {
			s.topRemove(nd.ready)
		}
		return
	}
	if nd.ready < 0 {
		s.topPush(topEntry{atN, seq, nd})
		return
	}
	en := &s.top[nd.ready]
	if en.atN == atN && en.seq == seq {
		return
	}
	en.atN, en.seq = atN, seq
	s.topFix(nd.ready)
}

// Top-level heap primitives: an indexed heap, every move maintaining
// nd.ready back-pointers so syncTop can fix or remove a node's entry in
// place — which is why it keeps its own sift loops instead of minheap's.
func (s *shardedEngine) topLess(i, j int) bool {
	return keyLess(s.top[i].atN, s.top[i].seq, s.top[j].atN, s.top[j].seq)
}

// topSet puts en at index i and points its node there.
func (s *shardedEngine) topSet(i int, en topEntry) {
	s.top[i] = en
	en.nd.ready = i
}

// topUp and topDown sift the entry at i by moving a hole: each level
// copies one entry, and the sifted entry is written once, at the end.
func (s *shardedEngine) topUp(i int) {
	en := s.top[i]
	for i > 0 {
		p := (i - 1) / 2
		if !keyLess(en.atN, en.seq, s.top[p].atN, s.top[p].seq) {
			break
		}
		s.topSet(i, s.top[p])
		i = p
	}
	s.topSet(i, en)
}

// topDown reports whether the entry moved (mirrors container/heap's
// down, whose callers sift up only when down didn't move).
func (s *shardedEngine) topDown(i int) bool {
	start, en, n := i, s.top[i], len(s.top)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.topLess(c+1, c) {
			c++
		}
		if !keyLess(s.top[c].atN, s.top[c].seq, en.atN, en.seq) {
			break
		}
		s.topSet(i, s.top[c])
		i = c
	}
	s.topSet(i, en)
	return i > start
}

func (s *shardedEngine) topFix(i int) {
	if !s.topDown(i) {
		s.topUp(i)
	}
}

func (s *shardedEngine) topPush(en topEntry) {
	s.top = append(s.top, en)
	s.topUp(len(s.top) - 1)
}

func (s *shardedEngine) topRemove(i int) {
	last := len(s.top) - 1
	s.top[i].nd.ready = -1
	s.top[i] = s.top[last]
	s.top[last] = topEntry{}
	s.top = s.top[:last]
	if i < last {
		s.topFix(i) // places the moved entry and points its node there
	}
}
