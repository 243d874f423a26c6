package transport

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stallMsg holds the writer goroutine that encodes it until release is
// closed: a writer that cannot make progress, whatever the peer does.
type stallMsg struct{ release chan struct{} }

func (m stallMsg) WireTag() uint8 { return 12 }
func (m stallMsg) AppendWire(b []byte) []byte {
	<-m.release
	return b
}

func init() {
	RegisterWire(12, func(r *WireReader) (Message, error) { return stallMsg{}, r.Err() })
}

// silentPeer accepts connections and never reads from them.
func silentPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		var open []net.Conn
		for {
			c, err := ln.Accept()
			if err != nil {
				for _, c := range open {
					c.Close()
				}
				return
			}
			open = append(open, c)
		}
	}()
	return ln.Addr().String()
}

// stalledSender returns a transport whose queue to a silent peer's node
// "sink" holds one envelope its writer is stuck encoding; release lets
// the writer go on.
func stalledSender(t *testing.T) (send *TCP, release chan struct{}) {
	t.Helper()
	send = NewTCP(map[NodeID]string{"sink": silentPeer(t)})
	release = make(chan struct{})
	t.Cleanup(func() {
		close(release)
		send.Close()
	})
	send.Send("a", "sink", stallMsg{release: release})
	return send, release
}

// TestTCPQueueBound: a peer connection holds at most outboundDepth
// envelopes that its writer has not yet written — counting the one the
// writer is working on — and the next is dropped, counted in
// DroppedQueueFull and not in MsgsSent.
func TestTCPQueueBound(t *testing.T) {
	send, _ := stalledSender(t)
	for i := 1; i < outboundDepth; i++ {
		send.Send("a", "sink", ping{Seq: i})
	}
	if s := send.Stats(); s.MsgsSent != outboundDepth || s.DroppedQueueFull != 0 {
		t.Fatalf("after %d sends: MsgsSent %d, DroppedQueueFull %d", outboundDepth, s.MsgsSent, s.DroppedQueueFull)
	}
	send.Send("a", "sink", ping{Seq: outboundDepth})
	if s := send.Stats(); s.MsgsSent != outboundDepth || s.DroppedQueueFull != 1 {
		t.Fatalf("envelope %d: MsgsSent %d, DroppedQueueFull %d; want %d, 1", outboundDepth+1, s.MsgsSent, s.DroppedQueueFull, outboundDepth)
	}
}

// TestTCPSendOnClosedConnCountsConnDown: once a peer connection is
// closed, a Send that still finds it drops the message into
// DroppedConnDown, however much the connection had queued.
func TestTCPSendOnClosedConnCountsConnDown(t *testing.T) {
	send, _ := stalledSender(t)
	for i := 0; i < 10; i++ {
		send.Send("a", "sink", ping{Seq: i})
	}
	send.mu.RLock()
	c := send.conns[send.routes["sink"]]
	send.mu.RUnlock()
	c.close()
	send.Send("a", "sink", ping{Seq: 10})
	if s := send.Stats(); s.DroppedConnDown != 1 || s.MsgsSent != 11 {
		t.Fatalf("DroppedConnDown %d, MsgsSent %d; want 1, 11", s.DroppedConnDown, s.MsgsSent)
	}
}

// TestTCPConnHoldsWhatIsQueued is the retained-heap gate of one peer
// connection, both ends: after it has carried a 1 MiB frame, a 40 KiB
// one (a large sync reply's size) and a burst of small ones and drained,
// what stays is one 16 KiB buffer per direction and the connection's
// own bookkeeping. Measured go1.24, amd64: about 35 KiB. With a frame
// buffer and a payload buffer beside a 64 KiB writer and a 32 KiB
// reader, kept up to 64 KiB each, it was about 110 KiB, and about
// 195 KiB once a 40 KiB frame had grown both; it was about 2.5 MiB
// while the outbound queue was an 8192-slot channel allocated with the
// connection (448 KiB) and each frame buffer kept the largest frame it
// had carried.
func TestTCPConnHoldsWhatIsQueued(t *testing.T) {
	const (
		small   = 2000
		maxHeld = 64 << 10
	)
	recv := NewTCP(nil)
	defer recv.Close()
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	recv.Register("sink", func(Envelope) { got.Add(1) })
	send := NewTCP(map[NodeID]string{"sink": addr})
	defer send.Close()

	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	send.Send("a", "sink", orderMsg{Src: "a", Pad: make([]byte, 1<<20)})
	send.Send("a", "sink", orderMsg{Src: "a", Pad: make([]byte, 40<<10)})
	for i := 1; i <= small; i++ {
		send.Send("a", "sink", orderMsg{Src: "a", Seq: i})
	}
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < small+2 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", got.Load(), small+2)
		}
		time.Sleep(time.Millisecond)
	}
	held := int64(live()) - int64(before)
	t.Logf("one drained connection holds %d KiB", held>>10)
	if held > maxHeld {
		t.Errorf("one drained connection holds %d KiB, gate %d KiB", held>>10, maxHeld>>10)
	}
}
