package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// orderMsg is a tagged test message; Pad varies the wire size so
// large and small messages interleave on the connection.
type orderMsg struct {
	Src string
	Seq int
	Pad []byte
}

func (m orderMsg) WireTag() uint8 { return 15 }
func (m orderMsg) AppendWire(b []byte) []byte {
	b = AppendString(b, m.Src)
	b = AppendVarint(b, int64(m.Seq))
	return AppendBytes(b, m.Pad)
}

func init() {
	RegisterWire(15, func(r *WireReader) (Message, error) {
		return orderMsg{Src: r.String(), Seq: int(r.Varint()), Pad: r.Bytes()}, r.Err()
	})
}

// TestTCPConcurrentOrdering hammers one TCP peer from many goroutines
// with interleaved large and small messages — including batch
// envelopes — and asserts the per-(from,to) ordering contract: every
// delivered message of one sender arrives in send order. Run with
// -race (CI does) to double as a concurrency audit of the transport.
func TestTCPConcurrentOrdering(t *testing.T) {
	recv := NewTCP(nil)
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	const senders = 8
	const perSender = 400

	var mu sync.Mutex
	got := make(map[string][]int)
	deliver := func(e Envelope) {
		m := e.Msg.(orderMsg)
		mu.Lock()
		got[m.Src] = append(got[m.Src], m.Seq)
		mu.Unlock()
	}
	recv.Register("sink", func(e Envelope) {
		if b, ok := e.Msg.(Batch); ok {
			for _, item := range b.Items {
				deliver(item)
			}
			return
		}
		deliver(e)
	})

	send := NewTCP(map[NodeID]string{"sink": addr})
	defer send.Close()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := fmt.Sprintf("src%d", s)
			from := NodeID(src)
			seq := 0
			for seq < perSender {
				switch seq % 3 {
				case 0: // small message
					send.Send(from, "sink", orderMsg{Src: src, Seq: seq})
					seq++
				case 1: // large message (spans many TCP segments)
					send.Send(from, "sink", orderMsg{Src: src, Seq: seq, Pad: make([]byte, 64<<10)})
					seq++
				default: // batch envelope carrying consecutive messages
					n := 4
					if seq+n > perSender {
						n = perSender - seq
					}
					b := Batch{}
					for i := 0; i < n; i++ {
						b.Items = append(b.Items, Envelope{
							From: from, To: "sink",
							Msg: orderMsg{Src: src, Seq: seq + i},
						})
					}
					send.Send(from, "sink", b)
					seq += n
				}
			}
		}()
	}
	wg.Wait()

	// Everything was enqueued; wait for delivery to drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		total := 0
		for _, seqs := range got {
			total += len(seqs)
		}
		mu.Unlock()
		if total == senders*perSender {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d messages", total, senders*perSender)
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for src, seqs := range got {
		if len(seqs) != perSender {
			t.Errorf("%s: delivered %d of %d", src, len(seqs), perSender)
		}
		last := -1
		for i, seq := range seqs {
			if seq <= last {
				t.Fatalf("%s: reordered at position %d: seq %d after %d", src, i, seq, last)
			}
			last = seq
		}
	}

	st := send.Stats()
	if st.MsgsSent == 0 || st.BatchesSent == 0 || st.BytesSent == 0 {
		t.Errorf("sender stats not counting: %+v", st)
	}
	rt := recv.Stats()
	if rt.MsgsReceived == 0 || rt.BatchesReceived == 0 || rt.BytesReceived == 0 {
		t.Errorf("receiver stats not counting: %+v", rt)
	}
	if rt.BatchedReceived < rt.BatchesReceived {
		t.Errorf("batch accounting inconsistent: %+v", rt)
	}
}

// TestTCPOrderingAfterReconnect checks ordering holds across a
// connection teardown: messages sent after the peer's queue died are
// delivered via a fresh connection, still in order per sender.
func TestTCPOrderingAfterReconnect(t *testing.T) {
	recv := NewTCP(nil)
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var mu sync.Mutex
	var got []int
	recv.Register("sink", func(e Envelope) {
		mu.Lock()
		got = append(got, e.Msg.(orderMsg).Seq)
		mu.Unlock()
	})

	send := NewTCP(map[NodeID]string{"sink": addr})
	defer send.Close()

	for i := 0; i < 10; i++ {
		send.Send("a", "sink", orderMsg{Src: "a", Seq: i})
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 10 })

	// Tear the sender's connection down under it.
	send.DropPeerConns()

	for i := 10; i < 20; i++ {
		send.Send("a", "sink", orderMsg{Src: "a", Seq: i})
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 20 })

	mu.Lock()
	defer mu.Unlock()
	last := -1
	for _, seq := range got {
		if seq <= last {
			t.Fatalf("reordered across reconnect: %v", got)
		}
		last = seq
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
