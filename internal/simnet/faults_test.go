package simnet

import (
	"testing"
	"time"

	"mdcc/internal/transport"
)

func TestDupProbDeliversTwice(t *testing.T) {
	n := New(Options{Latency: fixedLatency(10 * time.Millisecond), Seed: 1})
	n.SetDupProb(1)
	got := 0
	n.Register("b", func(e transport.Envelope) { got++ })
	n.Send("a", "b", ping{})
	n.Run()
	if got != 2 {
		t.Fatalf("delivered %d times, want 2 (original + dup)", got)
	}
	s := n.Stats()
	if s.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", s.Duplicated)
	}
	if s.Delivered != 2 {
		t.Fatalf("Delivered = %d, want 2", s.Delivered)
	}
}

func TestReorderDelaysWithinWindow(t *testing.T) {
	n := New(Options{Latency: fixedLatency(10 * time.Millisecond), Seed: 2})
	n.SetReorder(1, 0) // the initial 50ms window
	start := n.Now()
	var at time.Duration
	n.Register("b", func(e transport.Envelope) { at = n.Now().Sub(start) })
	n.Send("a", "b", ping{})
	n.Run()
	if at <= 10*time.Millisecond || at > 60*time.Millisecond {
		t.Fatalf("reordered delivery at %v, want in (10ms, 60ms]", at)
	}
	if n.Stats().Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", n.Stats().Reordered)
	}
}

func TestPartitionBlocksBothDirectionsAndHeals(t *testing.T) {
	n := New(Options{Latency: fixedLatency(time.Millisecond)})
	got := map[transport.NodeID]int{}
	for _, id := range []transport.NodeID{"a", "b"} {
		id := id
		n.Register(id, func(e transport.Envelope) { got[id]++ })
	}
	n.Partition([]transport.NodeID{"a"}, []transport.NodeID{"b"})
	n.Send("a", "b", ping{})
	n.Send("b", "a", ping{})
	n.Run()
	if got["a"] != 0 || got["b"] != 0 {
		t.Fatalf("messages crossed the cut: %v", got)
	}
	s := n.Stats()
	if s.DroppedPartition != 2 || s.Dropped != 2 {
		t.Fatalf("DroppedPartition = %d (total %d), want 2 (2)", s.DroppedPartition, s.Dropped)
	}
	n.HealAll()
	n.Send("a", "b", ping{})
	n.Send("b", "a", ping{})
	n.Run()
	if got["a"] != 1 || got["b"] != 1 {
		t.Fatalf("healed links not delivering: %v", got)
	}
}

func TestDropCountersDistinguishCauses(t *testing.T) {
	n := New(Options{Latency: fixedLatency(time.Millisecond), Seed: 4})
	n.SetDropProb(1)
	n.Register("b", func(e transport.Envelope) {})
	n.Send("a", "b", ping{}) // probabilistic drop
	n.Run()
	n.SetDropProb(0)
	n.Fail("b")
	n.Send("a", "b", ping{}) // failed-endpoint drop (at delivery)
	n.Run()
	n.Recover("b")
	n.Partition([]transport.NodeID{"a"}, []transport.NodeID{"b"})
	n.Send("a", "b", ping{}) // partition drop
	n.Run()
	s := n.Stats()
	if s.DroppedProb != 1 || s.DroppedEndpoint != 1 || s.DroppedPartition != 1 {
		t.Fatalf("split counters = prob %d endpoint %d partition %d, want 1/1/1",
			s.DroppedProb, s.DroppedEndpoint, s.DroppedPartition)
	}
	if s.Dropped != 3 {
		t.Fatalf("Dropped total = %d, want 3", s.Dropped)
	}
}

func TestCrashPurgesQueuedEventsAndTimers(t *testing.T) {
	n := New(Options{Latency: fixedLatency(10 * time.Millisecond)})
	delivered, fired := 0, 0
	n.Register("b", func(e transport.Envelope) { delivered++ })
	n.Send("a", "b", ping{})                              // in flight at crash time
	n.After("b", 20*time.Millisecond, func() { fired++ }) // timer of the old incarnation
	n.At(5*time.Millisecond, func() { n.Crash("b") })
	n.Run()
	if delivered != 0 || fired != 0 {
		t.Fatalf("crashed incarnation still ran: delivered=%d fired=%d", delivered, fired)
	}
	// A restarted incarnation gets fresh deliveries and timers.
	n.Recover("b")
	n.Register("b", func(e transport.Envelope) { delivered++ })
	n.After("b", time.Millisecond, func() { fired++ })
	n.Send("a", "b", ping{})
	n.Run()
	if delivered != 1 || fired != 1 {
		t.Fatalf("restarted incarnation dead: delivered=%d fired=%d", delivered, fired)
	}
}

func TestFailKeepsTimersCrashDoesNot(t *testing.T) {
	// Fail models a partition: the node keeps computing.
	n := New(Options{Latency: fixedLatency(time.Millisecond)})
	fired := 0
	n.After("b", 10*time.Millisecond, func() { fired++ })
	n.Fail("b")
	n.Run()
	if fired != 1 {
		t.Fatalf("Fail suppressed local timer: fired=%d", fired)
	}
}

func TestScaleLatency(t *testing.T) {
	n := New(Options{Latency: fixedLatency(10 * time.Millisecond)})
	start := n.Now()
	var at time.Duration
	n.Register("b", func(e transport.Envelope) { at = n.Now().Sub(start) })
	n.ScaleLatency(3)
	n.Send("a", "b", ping{})
	n.Run()
	if at != 30*time.Millisecond {
		t.Fatalf("scaled delivery at %v, want 30ms", at)
	}
}

func TestDriftStretchesTimers(t *testing.T) {
	n := New(Options{Latency: fixedLatency(time.Millisecond)})
	n.SetDrift("slow", 1.0)  // timers take twice as long
	n.SetDrift("fast", -0.5) // timers fire in half the time
	start := n.Now()
	var slowAt, fastAt time.Duration
	n.After("slow", 10*time.Millisecond, func() { slowAt = n.Now().Sub(start) })
	n.After("fast", 10*time.Millisecond, func() { fastAt = n.Now().Sub(start) })
	n.Run()
	if slowAt != 20*time.Millisecond || fastAt != 5*time.Millisecond {
		t.Fatalf("drifted timers at %v/%v, want 20ms/5ms", slowAt, fastAt)
	}
}

// TestChaosDeterministicUnderSeed drives every fault primitive at
// once and demands an identical event history for the same seed.
func TestChaosDeterministicUnderSeed(t *testing.T) {
	run := func() (delivered int64, s Stats) {
		n := New(Options{Latency: fixedLatency(5 * time.Millisecond), JitterFrac: 0.2, Seed: 42})
		n.SetDropProb(0.2)
		n.SetDupProb(0.2)
		n.SetReorder(0.3, 20*time.Millisecond)
		for _, id := range []transport.NodeID{"a", "b", "c"} {
			id := id
			n.Register(id, func(e transport.Envelope) {
				p := e.Msg.(ping)
				if p.Seq < 40 {
					n.Send(id, e.From, ping{Seq: p.Seq + 1})
				}
			})
		}
		n.SetDrift("c", 0.25)
		n.At(10*time.Millisecond, func() { n.Partition([]transport.NodeID{"a"}, []transport.NodeID{"c"}) })
		n.At(40*time.Millisecond, func() { n.HealAll() })
		n.At(20*time.Millisecond, func() { n.Crash("b") })
		n.At(50*time.Millisecond, func() {
			n.Recover("b")
			n.Register("b", func(e transport.Envelope) {})
		})
		n.Send("a", "b", ping{})
		n.Send("b", "c", ping{})
		n.Send("c", "a", ping{})
		n.Run()
		return n.Stats().Delivered, n.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
	if d1 == 0 {
		t.Fatal("nothing delivered")
	}
}
