package simnet

import (
	"math"
	"testing"
	"time"

	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

type ping struct{ Seq int }

// Run drains the event queue. Only these tests want that: every product
// caller bounds its run (RunFor, RunUntil).
func (n *Net) Run() {
	for n.step(math.MaxInt64) == stepRan {
	}
}

func fixedLatency(d time.Duration) transport.LatencyFunc {
	return func(from, to transport.NodeID) time.Duration { return d }
}

func TestDeliveryAfterLatency(t *testing.T) {
	n := New(Options{Latency: fixedLatency(100 * time.Millisecond)})
	var deliveredAt time.Time
	n.Register("b", func(e transport.Envelope) { deliveredAt = n.Now() })
	start := n.Now()
	n.Send("a", "b", ping{})
	n.Run()
	if d := deliveredAt.Sub(start); d != 100*time.Millisecond {
		t.Fatalf("delivered after %v, want 100ms", d)
	}
	if n.Stats().Delivered != 1 {
		t.Fatalf("Delivered = %d, want 1", n.Stats().Delivered)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []time.Duration {
		n := New(Options{Latency: fixedLatency(50 * time.Millisecond), JitterFrac: 0.2, Seed: 7})
		var times []time.Duration
		start := n.Now()
		n.Register("b", func(e transport.Envelope) {
			times = append(times, n.Now().Sub(start))
		})
		for i := 0; i < 20; i++ {
			n.Send("a", "b", ping{Seq: i})
		}
		n.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lost messages: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestJitterBounds(t *testing.T) {
	n := New(Options{Latency: fixedLatency(100 * time.Millisecond), JitterFrac: 0.1, Seed: 3})
	start := n.Now()
	var times []time.Duration
	n.Register("b", func(e transport.Envelope) { times = append(times, n.Now().Sub(start)) })
	for i := 0; i < 100; i++ {
		n.Send("a", "b", ping{})
	}
	n.Run()
	for _, d := range times {
		if d < 90*time.Millisecond || d > 110*time.Millisecond {
			t.Fatalf("jittered delivery at %v outside ±10%%", d)
		}
	}
}

func TestServiceTimeQueueing(t *testing.T) {
	// 10 messages arrive simultaneously; with 1ms service time the
	// last should be handled ~9ms after the first.
	n := New(Options{Latency: fixedLatency(10 * time.Millisecond), ServiceTime: time.Millisecond})
	var handled []time.Duration
	start := n.Now()
	n.Register("b", func(e transport.Envelope) { handled = append(handled, n.Now().Sub(start)) })
	for i := 0; i < 10; i++ {
		n.Send("a", "b", ping{Seq: i})
	}
	n.Run()
	if len(handled) != 10 {
		t.Fatalf("handled %d messages", len(handled))
	}
	if handled[0] != 10*time.Millisecond {
		t.Fatalf("first handled at %v", handled[0])
	}
	if last := handled[9]; last < 19*time.Millisecond {
		t.Fatalf("last handled at %v, want >= 19ms (queueing)", last)
	}
}

func TestServiceTimeIndependentNodes(t *testing.T) {
	// Queueing on one node must not delay another.
	n := New(Options{Latency: fixedLatency(time.Millisecond), ServiceTime: 10 * time.Millisecond})
	var cAt time.Duration
	start := n.Now()
	n.Register("b", func(e transport.Envelope) {})
	n.Register("c", func(e transport.Envelope) { cAt = n.Now().Sub(start) })
	for i := 0; i < 5; i++ {
		n.Send("a", "b", ping{})
	}
	n.Send("a", "c", ping{})
	n.Run()
	if cAt > 2*time.Millisecond {
		t.Fatalf("node c delayed to %v by node b's queue", cAt)
	}
}

func TestDropProb(t *testing.T) {
	n := New(Options{Latency: fixedLatency(time.Millisecond), DropProb: 1.0})
	n.Register("b", func(e transport.Envelope) { t.Fatal("dropped message delivered") })
	n.Send("a", "b", ping{})
	n.Run()
	if n.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Stats().Dropped)
	}
}

func TestFailRecover(t *testing.T) {
	n := New(Options{Latency: fixedLatency(time.Millisecond)})
	got := 0
	n.Register("b", func(e transport.Envelope) { got++ })
	n.Fail("b")
	n.Send("a", "b", ping{})
	n.Run()
	if got != 0 {
		t.Fatal("failed node received a message")
	}
	n.Recover("b")
	n.Send("a", "b", ping{})
	n.Run()
	if got != 1 {
		t.Fatal("recovered node did not receive")
	}
	// Failed senders drop too.
	n.Fail("a")
	n.Send("a", "b", ping{})
	n.Run()
	if got != 1 {
		t.Fatal("failed sender's message was delivered")
	}
	if !n.isFailed("a") || n.isFailed("b") {
		t.Fatal("Failed() bookkeeping wrong")
	}
}

func TestFailSuppressesInFlight(t *testing.T) {
	// A message already in flight to a node that fails before
	// delivery must not be handled.
	n := New(Options{Latency: fixedLatency(100 * time.Millisecond)})
	got := 0
	n.Register("b", func(e transport.Envelope) { got++ })
	n.Send("a", "b", ping{})
	n.At(10*time.Millisecond, func() { n.Fail("b") })
	n.Run()
	if got != 0 {
		t.Fatal("in-flight message delivered to failed node")
	}
}

func TestTimerFireAndStop(t *testing.T) {
	n := New(Options{})
	fired := 0
	n.Register("a", func(transport.Envelope) {})
	n.After("a", 5*time.Millisecond, func() { fired++ })
	tm := n.After("a", 6*time.Millisecond, func() { fired += 100 })
	if !tm.Stop() {
		t.Fatal("Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	n.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestTimerOnFailedNodeStillFiresButSendsDrop(t *testing.T) {
	// Fail models a partition, not a crash: local timers keep
	// running, but anything the isolated node sends is dropped.
	n := New(Options{Latency: fixedLatency(time.Millisecond)})
	fired := false
	received := false
	n.Register("b", func(transport.Envelope) { received = true })
	n.Register("a", func(transport.Envelope) {})
	n.After("a", 5*time.Millisecond, func() {
		fired = true
		n.Send("a", "b", ping{})
	})
	n.Fail("a")
	n.Run()
	if !fired {
		t.Fatal("partitioned node's timer did not fire")
	}
	if received {
		t.Fatal("partitioned node's send was delivered")
	}
}

func TestRunFor(t *testing.T) {
	n := New(Options{})
	fired := []int{}
	n.Register("a", func(transport.Envelope) {})
	n.After("a", 10*time.Millisecond, func() { fired = append(fired, 1) })
	n.After("a", 30*time.Millisecond, func() { fired = append(fired, 2) })
	n.RunFor(20 * time.Millisecond)
	if len(fired) != 1 {
		t.Fatalf("RunFor(20ms) fired %v", fired)
	}
	if got := n.Now().Sub(time.Unix(0, 0)); got != 20*time.Millisecond {
		t.Fatalf("Now after RunFor = %v, want 20ms", got)
	}
	n.RunFor(20 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("second RunFor fired %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	n := New(Options{})
	count := 0
	n.Register("a", func(transport.Envelope) {})
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			n.After("a", time.Millisecond, tick)
		}
	}
	n.After("a", time.Millisecond, tick)
	if !n.RunUntil(func() bool { return count >= 5 }, time.Second) {
		t.Fatal("RunUntil did not reach condition")
	}
	if count < 5 || count > 6 {
		t.Fatalf("count = %d, want ~5", count)
	}
	if n.RunUntil(func() bool { return count >= 100 }, 2*time.Millisecond) {
		t.Fatal("RunUntil claimed success past deadline")
	}
}

func TestSelfMessagesAndChains(t *testing.T) {
	// A request-reply chain across topology latencies.
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: int(topology.USWest)})
	n := New(Options{Latency: cl.LatencyWith(nil)})
	client := topology.ClientID(0)
	east := topology.StorageID(topology.USEast, 0)
	var rtt time.Duration
	start := n.Now()
	n.Register(east, func(e transport.Envelope) {
		n.Send(east, e.From, ping{Seq: 1})
	})
	n.Register(client, func(e transport.Envelope) {
		rtt = n.Now().Sub(start)
	})
	n.Send(client, east, ping{Seq: 0})
	n.Run()
	want := topology.RTT(topology.USWest, topology.USEast)
	if rtt != want {
		t.Fatalf("virtual RTT = %v, want %v", rtt, want)
	}
}

func TestAtNeverSchedulesInPast(t *testing.T) {
	n := New(Options{})
	n.Register("a", func(transport.Envelope) {})
	n.RunFor(50 * time.Millisecond)
	ran := false
	n.At(10*time.Millisecond, func() { ran = true }) // offset already passed
	n.Run()
	if !ran {
		t.Fatal("past-offset At callback never ran")
	}
}
