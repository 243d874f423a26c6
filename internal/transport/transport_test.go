package transport

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

type ping struct{ Seq int }
type pong struct{ Seq int }

// Test-local wire codecs at the top of transport's tag block.
func (p ping) WireTag() uint8             { return 13 }
func (p ping) AppendWire(b []byte) []byte { return AppendVarint(b, int64(p.Seq)) }
func (p pong) WireTag() uint8             { return 14 }
func (p pong) AppendWire(b []byte) []byte { return AppendVarint(b, int64(p.Seq)) }

func init() {
	RegisterWire(13, func(r *WireReader) (Message, error) { return ping{Seq: int(r.Varint())}, r.Err() })
	RegisterWire(14, func(r *WireReader) (Message, error) { return pong{Seq: int(r.Varint())}, r.Err() })
}

func TestLocalRoundTrip(t *testing.T) {
	n := NewLocal(nil)
	defer n.Close()
	done := make(chan int, 1)
	n.Register("b", func(e Envelope) {
		p := e.Msg.(ping)
		n.Send("b", e.From, pong{Seq: p.Seq})
	})
	n.Register("a", func(e Envelope) {
		done <- e.Msg.(pong).Seq
	})
	n.Send("a", "b", ping{Seq: 7})
	select {
	case seq := <-done:
		if seq != 7 {
			t.Fatalf("round trip seq = %d, want 7", seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("round trip timed out")
	}
}

func TestLocalLatency(t *testing.T) {
	n := NewLocal(func(from, to NodeID) time.Duration { return 30 * time.Millisecond })
	defer n.Close()
	got := make(chan time.Time, 1)
	n.Register("b", func(e Envelope) { got <- time.Now() })
	start := time.Now()
	n.Send("a", "b", ping{})
	select {
	case at := <-got:
		if d := at.Sub(start); d < 30*time.Millisecond {
			t.Fatalf("delivered after %v, before its 30ms latency", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
}

// TestLocalZeroLatencyKeepsPairOrder: with no latency, back-to-back sends
// from one node to another arrive in the order they were sent, as long
// as the destination's mailbox has room for all of them.
func TestLocalZeroLatencyKeepsPairOrder(t *testing.T) {
	n := NewLocal(nil)
	defer n.Close()
	const sends = mailboxDepth - 1
	got := make(chan int, sends)
	n.Register("b", func(e Envelope) { got <- e.Msg.(ping).Seq })
	for i := 0; i < sends; i++ {
		n.Send("a", "b", ping{Seq: i})
	}
	outOfOrder, prev := 0, -1
	for i := 0; i < sends; i++ {
		select {
		case seq := <-got:
			if seq < prev {
				outOfOrder++
			}
			prev = seq
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d sends arrived", i, sends)
		}
	}
	if outOfOrder != 0 {
		t.Errorf("%d of %d back-to-back sends a→b arrived out of order", outOfOrder, sends)
	}
}

func TestUniformJitter(t *testing.T) {
	base := func(from, to NodeID) time.Duration { return 100 * time.Millisecond }
	j := UniformJitter(base, 0.1, rand.New(rand.NewSource(1)))
	for i := 0; i < 100; i++ {
		d := j("a", "b")
		if d < 90*time.Millisecond || d > 110*time.Millisecond {
			t.Fatalf("jittered latency %v outside ±10%%", d)
		}
	}
	if UniformJitter(nil, 0.1, nil) != nil {
		t.Fatal("nil base should pass through")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	// Two "processes": server hosts node srv, client hosts node cli.
	srvNet := NewTCP(nil)
	defer srvNet.Close()
	srvAddr, err := srvNet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cliNet := NewTCP(map[NodeID]string{"srv": srvAddr})
	defer cliNet.Close()
	cliAddr, err := cliNet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvNet.AddRoute("cli", cliAddr)

	srvNet.Register("srv", func(e Envelope) {
		srvNet.Send("srv", e.From, pong{Seq: e.Msg.(ping).Seq * 2})
	})
	done := make(chan int, 1)
	cliNet.Register("cli", func(e Envelope) { done <- e.Msg.(pong).Seq })

	cliNet.Send("cli", "srv", ping{Seq: 21})
	select {
	case seq := <-done:
		if seq != 42 {
			t.Fatalf("TCP round trip = %d, want 42", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TCP round trip timed out")
	}
}

func TestTCPNoRouteDropped(t *testing.T) {
	n := NewTCP(nil)
	defer n.Close()
	dropped := make(chan string, 1)
	n.Logf = func(format string, args ...interface{}) {
		select {
		case dropped <- format:
		default:
		}
	}
	n.Send("a", "nowhere", ping{})
	select {
	case <-dropped:
	case <-time.After(time.Second):
		t.Fatal("expected a drop diagnostic")
	}
}

func TestTCPManyMessages(t *testing.T) {
	srvNet := NewTCP(nil)
	defer srvNet.Close()
	srvAddr, err := srvNet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cliNet := NewTCP(map[NodeID]string{"srv": srvAddr})
	defer cliNet.Close()

	const total = 500
	var got atomic.Int32
	done := make(chan struct{})
	srvNet.Register("srv", func(e Envelope) {
		if got.Add(1) == total {
			close(done)
		}
	})
	for i := 0; i < total; i++ {
		cliNet.Send("cli", "srv", ping{Seq: i})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("received %d of %d messages", got.Load(), total)
	}
}

func TestTCPHelloRegistersRoute(t *testing.T) {
	// A server with no static route back to the client can still
	// reply after the client's hello announces its address.
	srv := NewTCP(nil)
	defer srv.Close()
	srvAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Register("srv", func(e Envelope) {
		srv.Send("srv", e.From, pong{Seq: e.Msg.(ping).Seq + 1})
	})

	cli := NewTCP(map[NodeID]string{"srv": srvAddr})
	defer cli.Close()
	cliAddr, err := cli.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	cli.Register("dynamic-client", func(e Envelope) { done <- e.Msg.(pong).Seq })

	cli.Hello(srvAddr, "dynamic-client", cliAddr)
	cli.Send("dynamic-client", "srv", ping{Seq: 41})
	select {
	case seq := <-done:
		if seq != 42 {
			t.Fatalf("round trip after hello = %d", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server could not route a reply despite hello")
	}
}

func TestLocalFailRecover(t *testing.T) {
	n := NewLocal(nil)
	defer n.Close()
	var got atomic.Int32
	n.Register("b", func(Envelope) { got.Add(1) })

	n.Fail("b")
	n.Send("a", "b", ping{})
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("failed node received a message")
	}
	n.Recover("b")
	n.Send("a", "b", ping{})
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() != 1 {
		t.Fatal("recovered node did not receive")
	}
	// Failed senders drop too.
	n.Fail("a")
	n.Send("a", "b", ping{})
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 1 {
		t.Fatal("failed sender's message delivered")
	}
}

// lastSend is a Network that keeps only the last Send.
type lastSend struct {
	Network
	from, to NodeID
	msg      Message
}

func (l *lastSend) Send(from, to NodeID, msg Message) { l.from, l.to, l.msg = from, to, msg }

// TestSendCoalesced pins the one coalescing rule both batching layers
// flush through: one item goes bare under its own From, allocation-free,
// and the slice is kept; two or more leave as one Batch from the
// batching node and the slice is surrendered.
func TestSendCoalesced(t *testing.T) {
	net := &lastSend{}
	var msg Message = ping{Seq: 1}
	items := make([]Envelope, 0, 4)
	if allocs := testing.AllocsPerRun(100, func() {
		items = append(items, Envelope{From: "c1", To: "b", Msg: msg})
		items = SendCoalesced(net, "gw", "b", items)
	}); allocs != 0 {
		t.Errorf("a single-item round allocated %.0f times", allocs)
	}
	if net.from != "c1" || net.to != "b" || net.msg != msg {
		t.Errorf("single item sent as %s→%s %v, want bare from its own sender", net.from, net.to, net.msg)
	}
	if len(items) != 0 || cap(items) != 4 || items[:1][0] != (Envelope{}) {
		t.Errorf("single-item round kept len %d cap %d (slot %+v), want the cleared backing array", len(items), cap(items), items[:1][0])
	}
	items = append(items, Envelope{From: "c1", To: "b", Msg: ping{Seq: 1}}, Envelope{From: "c2", To: "b", Msg: ping{Seq: 2}})
	sent := items
	if items = SendCoalesced(net, "gw", "b", items); items != nil {
		t.Error("a batched slice was handed back for reuse")
	}
	b, ok := net.msg.(Batch)
	if !ok || net.from != "gw" || len(b.Items) != 2 || &b.Items[0] != &sent[0] {
		t.Errorf("two items sent as %s→%s %+v, want one Batch from gw carrying the staged slice", net.from, net.to, net.msg)
	}
}
