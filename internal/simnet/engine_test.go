package simnet

import (
	"container/heap"
	"fmt"
	"testing"
	"time"

	"mdcc/internal/transport"
)

// newEngineNet builds a network on the named engine: "sharded" is what
// New builds, "heap" swaps in the legacy global-heap oracle before any
// event is queued.
func newEngineNet(eng string, opts Options) *Net {
	n := New(opts)
	if eng == "heap" {
		n.eng = &heapEngine{serviceN: n.serviceN}
	}
	return n
}

// heapEngine is the original single container/heap over every queued
// event, kept as the differential oracle for the determinism tests and
// the baseline for BenchmarkSimnet*. Each push/pop is O(log E_total)
// with interface boxing and a pointer dereference per comparison, and
// a busy node's backlog is re-keyed through the global heap once per
// service slot — at 1000 nodes the one shared heap is the simulator's
// bottleneck.
type heapEngine struct {
	h        eventHeap
	serviceN int64
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].atN != h[j].atN {
		return h[i].atN < h[j].atN
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) {
	*h = append(*h, x.(*event))
}
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (g *heapEngine) insert(e *event) { heap.Push(&g.h, e) }

// peek is where the oracle serializes a busy node: a head event that
// would run before its node's free instant is re-keyed to that instant
// in place, and the next head is examined, until the head runs when
// its key says.
func (g *heapEngine) peek() *event {
	for len(g.h) > 0 {
		e := g.h[0]
		if !busyAt(g.serviceN, e.node, e) {
			return e
		}
		e.atN = e.node.freeAtN
		heap.Fix(&g.h, 0)
	}
	return nil
}

func (g *heapEngine) popHead() { heap.Pop(&g.h) }

func (g *heapEngine) nodeRan(nd *simNode) {}

func (g *heapEngine) len() int { return len(g.h) }

// chaosTrace drives every fault primitive at once — jitter, drops,
// dups, reorders, partitions, crash/restart churn, drift, service-time
// queueing, timer cancellation, and RunFor/RunUntil slicing (whose
// deadline checks observe the effective head: the next runnable
// event's run time) — and records the exact delivery/timer schedule.
func chaosTrace(t *testing.T, eng string) ([]string, Stats) {
	t.Helper()
	n := newEngineNet(eng, Options{
		Latency:     fixedLatency(5 * time.Millisecond),
		JitterFrac:  0.2,
		ServiceTime: 2 * time.Millisecond, // deep queues: exercises the busy-node clamp path
		Seed:        99,
	})
	n.SetDropProb(0.1)
	n.SetDupProb(0.1)
	n.SetReorder(0.2, 20*time.Millisecond)
	var trace []string
	ids := make([]transport.NodeID, 8)
	reg := func(i int) {
		id := ids[i]
		n.Register(id, func(e transport.Envelope) {
			trace = append(trace, fmt.Sprintf("%s<-%s@%d seq=%d", id, e.From, n.Now().UnixNano(), e.Msg.(ping).Seq))
			p := e.Msg.(ping)
			if p.Seq < 30 {
				n.Send(id, ids[(i+1)%len(ids)], ping{Seq: p.Seq + 1})
				if p.Seq%10 == 0 {
					// Hot-spot fan-in keeps node 0 busy so clamped
					// events interleave with deadline peeks.
					n.Send(id, ids[0], ping{Seq: p.Seq + 1})
				}
			}
		})
	}
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("n%d", i))
		reg(i)
	}
	n.SetDrift(ids[3], 0.5)
	n.SetDrift(ids[4], -0.25)
	for i := 0; i < 4; i++ {
		i := i
		n.After(ids[i], time.Duration(3+i)*time.Millisecond, func() {
			trace = append(trace, fmt.Sprintf("timer%d@%d", i, n.Now().UnixNano()))
			n.Send(ids[i], ids[7-i], ping{Seq: 0})
		})
	}
	stopped := n.After(ids[5], 8*time.Millisecond, func() { trace = append(trace, "SHOULD NOT FIRE") })
	n.At(2*time.Millisecond, func() { stopped.Stop() })
	n.At(10*time.Millisecond, func() { n.Partition(ids[:2], ids[2:4]) })
	n.At(25*time.Millisecond, func() { n.Crash(ids[6]) })
	n.At(40*time.Millisecond, func() { n.HealAll() })
	n.At(55*time.Millisecond, func() {
		n.Recover(ids[6])
		reg(6)
		n.After(ids[6], time.Millisecond, func() { trace = append(trace, fmt.Sprintf("reborn@%d", n.Now().UnixNano())) })
	})
	n.Send(ids[0], ids[1], ping{})
	n.Send(ids[5], ids[6], ping{})
	n.Send(ids[7], ids[0], ping{})
	n.RunFor(30 * time.Millisecond)
	n.RunUntil(func() bool { return false }, 20*time.Millisecond)
	n.Run()
	return trace, n.Stats()
}

// TestEngineEquivalence is the cross-engine determinism pin: the
// sharded engine must replay the legacy global heap's schedule
// bit-exactly — same deliveries, same virtual timestamps, same order,
// same drop accounting.
func TestEngineEquivalence(t *testing.T) {
	heapTrace, heapStats := chaosTrace(t, "heap")
	shardTrace, shardStats := chaosTrace(t, "sharded")
	if len(heapTrace) == 0 {
		t.Fatal("empty trace; chaos workload produced no events")
	}
	if heapStats != shardStats {
		t.Fatalf("engines diverged on stats:\nheap:    %+v\nsharded: %+v", heapStats, shardStats)
	}
	if len(heapTrace) != len(shardTrace) {
		t.Fatalf("engines diverged on trace length: heap %d vs sharded %d", len(heapTrace), len(shardTrace))
	}
	for i := range heapTrace {
		if heapTrace[i] != shardTrace[i] {
			t.Fatalf("engines diverged at trace[%d]:\nheap:    %s\nsharded: %s", i, heapTrace[i], shardTrace[i])
		}
	}
}

// TestReapBoundsNodeStateUnderChurn pins the churn-state bound: a
// long run of crash/replace cycles over a fixed id catalogue must
// hold the per-node state count flat — dead incarnations' structs are
// reaped once their queues drain, instead of accumulating
// freeAt/drift/epoch entries forever.
func TestReapBoundsNodeStateUnderChurn(t *testing.T) {
	n := New(Options{Latency: fixedLatency(time.Millisecond), ServiceTime: 100 * time.Microsecond, Seed: 5})
	const catalogue = 20
	ids := make([]transport.NodeID, catalogue)
	reg := func(i int) {
		id := ids[i]
		n.Register(id, func(e transport.Envelope) {
			p := e.Msg.(ping)
			if p.Seq < 3 {
				n.Send(id, ids[(i+1)%catalogue], ping{Seq: p.Seq + 1})
			}
		})
	}
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("c%02d", i))
		reg(i)
	}
	for round := 0; round < 200; round++ {
		victim := round % catalogue
		for i := 0; i < 4; i++ {
			n.Send(ids[(victim+i)%catalogue], ids[(victim+i+1)%catalogue], ping{})
		}
		n.After(ids[victim], 500*time.Microsecond, func() {})
		n.Crash(ids[victim])
		n.RunFor(5 * time.Millisecond)
		if got := len(n.nodes); got > catalogue {
			t.Fatalf("round %d: %d node states live, want <= %d (reaping leaked)", round, got, catalogue)
		}
		n.Recover(ids[victim])
		reg(victim)
	}
	n.Run()
	if got := len(n.nodes); got > catalogue {
		t.Fatalf("final node-state count %d, want <= %d", got, catalogue)
	}
	// Replaced incarnations must still work end to end.
	seen := n.Stats().Delivered
	if seen == 0 {
		t.Fatal("churn run delivered nothing")
	}
}

// TestReapPreservesObservables: Failed() and DeliveredTo() must
// survive a reap — the bookkeeping moves to side maps, it doesn't
// vanish.
func TestReapPreservesObservables(t *testing.T) {
	n := New(Options{Latency: fixedLatency(time.Millisecond)})
	n.Register("b", func(e transport.Envelope) {})
	n.Send("a", "b", ping{})
	n.Run()
	if n.DeliveredTo("b") != 1 {
		t.Fatalf("DeliveredTo before crash = %d", n.DeliveredTo("b"))
	}
	n.Crash("b") // queue empty → reaped immediately
	if len(n.nodes) != 0 {
		t.Fatalf("crashed idle node not reaped: %d states", len(n.nodes))
	}
	if !n.isFailed("b") {
		t.Fatal("reap lost the failed bit")
	}
	if n.DeliveredTo("b") != 1 {
		t.Fatalf("reap lost delivery count: %d", n.DeliveredTo("b"))
	}
	n.Recover("b")
	if n.isFailed("b") {
		t.Fatal("Recover did not clear the preserved failed bit")
	}
	got := 0
	n.Register("b", func(e transport.Envelope) { got++ })
	n.Send("a", "b", ping{})
	n.Run()
	if got != 1 || n.DeliveredTo("b") != 2 {
		t.Fatalf("restarted node got=%d DeliveredTo=%d, want 1 and 2", got, n.DeliveredTo("b"))
	}
}
