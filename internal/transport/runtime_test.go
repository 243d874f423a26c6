package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// realTime is what the node-runtime tests need of a transport; Local
// and TCP both provide it.
type realTime interface {
	Network
	Close()
}

// runtimes are the transports the shared node runtime is tested
// through: a Local, and a TCP whose nodes are all hosted locally (no
// socket is opened).
var runtimes = []struct {
	name string
	open func() realTime
}{
	{"Local", func() realTime { return NewLocal(nil) }},
	{"TCP", func() realTime { return NewTCP(nil) }},
}

// eachRuntime runs f once per transport, on a fresh instance closed
// when the subtest ends. ("Local" in the test names below is the node,
// hosted by the transport under test — not the Local transport alone.)
func eachRuntime(t *testing.T, f func(t *testing.T, n realTime)) {
	for _, rt := range runtimes {
		rt := rt
		t.Run(rt.name, func(t *testing.T) {
			n := rt.open()
			defer n.Close()
			f(t, n)
		})
	}
}

func TestLocalSerializesPerNode(t *testing.T) {
	eachRuntime(t, func(t *testing.T, n realTime) {
		var inHandler atomic.Int32
		var overlapped atomic.Bool
		var count atomic.Int32
		done := make(chan struct{})
		n.Register("sink", func(e Envelope) {
			if inHandler.Add(1) > 1 {
				overlapped.Store(true)
			}
			time.Sleep(time.Microsecond)
			inHandler.Add(-1)
			if count.Add(1) == 100 {
				close(done)
			}
		})
		for i := 0; i < 100; i++ {
			n.Send("src", "sink", ping{Seq: i})
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("messages not delivered")
		}
		if overlapped.Load() {
			t.Fatal("handler invocations overlapped for one node")
		}
	})
}

func TestLocalSendToUnknownDropped(t *testing.T) {
	eachRuntime(t, func(t *testing.T, n realTime) {
		got := make(chan struct{}, 1)
		n.Register("a", func(Envelope) { got <- struct{}{} })
		n.Send("a", "ghost", ping{}) // must not panic or block
		n.Send("ghost", "a", ping{})
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatal("a send to an unknown node stopped later delivery")
		}
	})
}

func TestLocalAfterSerialized(t *testing.T) {
	eachRuntime(t, func(t *testing.T, n realTime) {
		var mu sync.Mutex
		var order []string
		done := make(chan struct{})
		n.Register("a", func(e Envelope) {
			mu.Lock()
			order = append(order, "msg")
			mu.Unlock()
		})
		n.After("a", 20*time.Millisecond, func() {
			mu.Lock()
			order = append(order, "timer")
			mu.Unlock()
			close(done)
		})
		n.Send("x", "a", ping{})
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("timer never fired")
		}
		mu.Lock()
		defer mu.Unlock()
		if len(order) != 2 || order[0] != "msg" || order[1] != "timer" {
			t.Fatalf("order = %v, want [msg timer]", order)
		}
	})
}

func TestLocalAfterStop(t *testing.T) {
	eachRuntime(t, func(t *testing.T, n realTime) {
		n.Register("a", func(Envelope) {})
		var fired atomic.Bool
		tm := n.After("a", 30*time.Millisecond, func() { fired.Store(true) })
		if !tm.Stop() {
			t.Fatal("Stop on a pending timer reported false")
		}
		time.Sleep(60 * time.Millisecond)
		if fired.Load() {
			t.Fatal("stopped timer fired")
		}
	})
}

// TestReRegisterReplacesHandler: once Register returns, the handler it
// replaced is never started again — not even for messages that were
// already queued behind the one it was running — and later messages
// reach the new handler.
func TestReRegisterReplacesHandler(t *testing.T) {
	eachRuntime(t, func(t *testing.T, n realTime) {
		var oldRuns atomic.Int32
		entered := make(chan struct{})
		release := make(chan struct{})
		n.Register("a", func(Envelope) {
			if oldRuns.Add(1) == 1 {
				close(entered)
				<-release
			}
		})
		n.Send("x", "a", ping{Seq: 0})
		select {
		case <-entered:
		case <-time.After(2 * time.Second):
			t.Fatal("first message never delivered")
		}
		// Queue more behind the running handler (the sleep lets Local's
		// asynchronous zero-latency sends land in the mailbox).
		for i := 1; i <= 8; i++ {
			n.Send("x", "a", ping{Seq: i})
		}
		time.Sleep(20 * time.Millisecond)

		got := make(chan struct{})
		n.Register("a", func(e Envelope) {
			if e.Msg.(ping).Seq == 99 {
				close(got)
			}
		})
		close(release)
		n.Send("x", "a", ping{Seq: 99})
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatal("new handler never ran")
		}
		time.Sleep(20 * time.Millisecond)
		if r := oldRuns.Load(); r != 1 {
			t.Fatalf("replaced handler ran %d times, want 1", r)
		}
	})
}

// TestCloseStopsTimers: an After callback that comes due after Close
// is dropped, not run.
func TestCloseStopsTimers(t *testing.T) {
	eachRuntime(t, func(t *testing.T, n realTime) {
		n.Register("a", func(Envelope) {})
		var fired atomic.Bool
		n.After("a", 30*time.Millisecond, func() { fired.Store(true) })
		n.Close()
		time.Sleep(60 * time.Millisecond)
		if fired.Load() {
			t.Fatal("timer callback ran after Close")
		}
	})
}

// TestTCPLocalSendNeverBlocksHandler is the wedge regression test: two
// nodes hosted in one TCP answer every message with two to the other,
// so both mailboxes fill. A Send that blocked on the full mailbox of a
// node whose own handler is blocked the same way would stop both for
// good (8194 deliveries, then silence); instead the overflow is
// dropped and counted, and the handlers keep running.
func TestTCPLocalSendNeverBlocksHandler(t *testing.T) {
	n := NewTCP(nil)
	defer n.Close()
	var handled atomic.Int64
	echoTwice := func(self, peer NodeID) Handler {
		return func(Envelope) {
			handled.Add(1)
			n.Send(self, peer, ping{})
			n.Send(self, peer, ping{})
		}
	}
	n.Register("a", echoTwice("a", "b"))
	n.Register("b", echoTwice("b", "a"))
	n.Send("b", "a", ping{})

	const want = 10 * mailboxDepth // far past where two full mailboxes wedge
	deadline := time.Now().Add(5 * time.Second)
	for handled.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("handlers stopped after %d deliveries (DroppedQueueFull = %d): a local Send blocked its handler",
				handled.Load(), n.Stats().DroppedQueueFull)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n.Stats().DroppedQueueFull == 0 {
		t.Fatalf("handled %d messages through two %d-slot mailboxes with no DroppedQueueFull", handled.Load(), mailboxDepth)
	}
}

// countingTracer is a WireTracer whose stamps count up from 101.
type countingTracer struct{ n atomic.Uint64 }

func (c *countingTracer) StampSend() uint64 { return 100 + c.n.Add(1) }

// TestSendStampsTraceClk: a WireTracer installed with SetTracer stamps
// the envelope a handler receives, a Batch included, with what its
// StampSend returned for that Send; with no tracer TraceClk stays 0.
// Over a TCP connection the stamp crosses the wire.
func TestSendStampsTraceClk(t *testing.T) {
	type stamping interface {
		realTime
		SetTracer(WireTracer)
	}
	one := func(t *testing.T, n stamping) (stamping, stamping) {
		t.Cleanup(n.Close)
		return n, n
	}
	cases := []struct {
		name string
		open func(t *testing.T) (from, to stamping)
	}{
		{"Local", func(t *testing.T) (stamping, stamping) { return one(t, NewLocal(nil)) }},
		{"Local/latency", func(t *testing.T) (stamping, stamping) {
			return one(t, NewLocal(func(_, _ NodeID) time.Duration { return time.Millisecond }))
		}},
		{"TCP/hosted", func(t *testing.T) (stamping, stamping) { return one(t, NewTCP(nil)) }},
		{"TCP/wire", func(t *testing.T) (stamping, stamping) {
			srv := NewTCP(nil)
			t.Cleanup(srv.Close)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cli := NewTCP(map[NodeID]string{"dst": addr})
			t.Cleanup(cli.Close)
			return cli, srv
		}},
	}
	for _, c := range cases {
		for _, traced := range []bool{true, false} {
			name := c.name + "/untraced"
			if traced {
				name = c.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				from, to := c.open(t)
				got := make(chan Envelope, 2)
				to.Register("dst", func(e Envelope) { got <- e })
				wantPing, wantBatch := uint64(0), uint64(0)
				if traced {
					from.SetTracer(&countingTracer{})
					wantPing, wantBatch = 101, 102
				}
				from.Send("src", "dst", ping{Seq: 1})
				from.Send("src", "dst", Batch{Items: []Envelope{
					{From: "a", To: "dst", Msg: ping{Seq: 2}},
					{From: "b", To: "dst", Msg: ping{Seq: 3}},
				}})
				for i := 0; i < 2; i++ {
					select {
					case e := <-got:
						want := wantPing
						if _, ok := e.Msg.(Batch); ok {
							want = wantBatch
						}
						if e.TraceClk != want {
							t.Fatalf("%T arrived with TraceClk %d, want %d", e.Msg, e.TraceClk, want)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("%d of 2 messages delivered", i)
					}
				}
			})
		}
	}
}
