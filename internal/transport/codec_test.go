package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestWireGoldenTransport pins the transport's own wire encodings
// (hello, batch) — small enough to write out by hand, so the vectors
// double as format documentation. A mismatch means the wire format
// changed without a WireVersion bump.
func TestWireGoldenTransport(t *testing.T) {
	hello := helloMsg{ID: "n1", Addr: "x"}
	if got := hex.EncodeToString(hello.AppendWire(nil)); got != "026e310178" {
		t.Errorf("helloMsg vector = %s, want 026e310178", got)
	}
	// A batch is: uvarint count, then each item as a nested envelope
	// (From, To, TraceClk, tag, body).
	b := Batch{Items: []Envelope{{From: "a", To: "b", Msg: hello}}}
	if got := hex.EncodeToString(b.AppendWire(nil)); got != "01016101620001026e310178" {
		t.Errorf("Batch vector = %s, want 01016101620001026e310178", got)
	}
}

// unwired is a message type the wire cannot carry.
type unwired struct{ X int }

// TestEnvelopeUnencodable: a message without a wire codec — alone or
// anywhere inside a batch — fails the whole envelope with a typed
// error naming the Go type, and leaves the buffer unextended. At the
// parent commit Batch.AppendWire wrote the item count, kept the
// header bytes of the item that failed and returned no error, so the
// receiver saw an undecodable frame and dropped the connection.
func TestEnvelopeUnencodable(t *testing.T) {
	prefix := []byte{0xaa, 0xbb}
	for name, msg := range map[string]Message{
		"bare": unwired{X: 1},
		"batched": Batch{Items: []Envelope{
			{From: "n1", To: "srv", Msg: ping{Seq: 1}},
			{From: "n2", To: "srv", Msg: unwired{X: 2}},
			{From: "n3", To: "srv", Msg: ping{Seq: 3}},
		}},
	} {
		buf, err := AppendEnvelope(prefix, Envelope{From: "a", To: "b", Msg: msg})
		if !errors.Is(err, ErrNoWireCodec) {
			t.Fatalf("%s: err = %v, want ErrNoWireCodec", name, err)
		}
		if !strings.Contains(err.Error(), "transport.unwired") {
			t.Errorf("%s: error %q does not name the Go type", name, err)
		}
		if !bytes.Equal(buf, prefix) {
			t.Errorf("%s: failed encode left bytes behind: %x", name, buf)
		}
	}
}

// TestTCPUnencodableDropsOnlyThatMessage: an unencodable batch is
// dropped whole and counted; the connection and every later message on
// it survive.
func TestTCPUnencodableDropsOnlyThatMessage(t *testing.T) {
	srv := NewTCP(nil)
	defer srv.Close()
	srvAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Envelope, 4)
	srv.Register("srv", func(e Envelope) { got <- e })

	cli := NewTCP(map[NodeID]string{"srv": srvAddr})
	defer cli.Close()
	cli.Send("cli", "srv", Batch{Items: []Envelope{
		{From: "n1", To: "srv", Msg: ping{Seq: 1}},
		{From: "n2", To: "srv", Msg: unwired{X: 2}},
	}})
	cli.Send("cli", "srv", ping{Seq: 7})
	select {
	case e := <-got:
		if p, ok := e.Msg.(ping); !ok || p.Seq != 7 {
			t.Fatalf("got %#v, want the ping sent after the bad batch", e.Msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message after the unencodable batch never arrived: connection lost")
	}
	if n := cli.Stats().DroppedNoRoute; n != 1 {
		t.Errorf("DroppedNoRoute = %d, want 1 (the unencodable batch)", n)
	}
}

// TestTCPBadPreambleDropsOnlyThatConn: a connection that does not open
// with the wire magic and version is logged and closed; a well-formed
// peer on the same listener is undisturbed.
func TestTCPBadPreambleDropsOnlyThatConn(t *testing.T) {
	srv := NewTCP(nil)
	defer srv.Close()
	logged := make(chan string, 8)
	srv.Logf = func(format string, args ...interface{}) { logged <- fmt.Sprintf(format, args...) }
	srvAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 4)
	srv.Register("srv", func(e Envelope) { got <- e.Msg.(ping).Seq })

	cli := NewTCP(map[NodeID]string{"srv": srvAddr})
	defer cli.Close()
	cli.Send("cli", "srv", ping{Seq: 1})
	if seq := recvSeq(t, got); seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}

	for name, preamble := range map[string][]byte{
		"not the magic": []byte("\x1f\xff\x81\x03\x01"), // how a gob stream opens
		"old version":   append(wireMagic[:], WireVersion-1),
	} {
		raw, err := net.Dial("tcp", srvAddr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(preamble); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s: read = %v, want EOF (listener must close the connection)", name, err)
		}
		raw.Close()
		select {
		case line := <-logged:
			if !strings.Contains(line, "dropping connection") {
				t.Errorf("%s: logged %q, want a dropping-connection diagnostic", name, line)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: nothing logged", name)
		}
	}

	cli.Send("cli", "srv", ping{Seq: 2})
	if seq := recvSeq(t, got); seq != 2 {
		t.Fatalf("seq = %d, want 2: good connection disturbed", seq)
	}
}

func recvSeq(t *testing.T, ch <-chan int) int {
	t.Helper()
	select {
	case seq := <-ch:
		return seq
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for delivery")
		return 0
	}
}

// TestDecodeEnvelopeCorrupt feeds truncations of a valid frame to the
// decoder: every prefix must fail cleanly (no panic, no success).
func TestDecodeEnvelopeCorrupt(t *testing.T) {
	full, err := AppendEnvelope(nil, Envelope{From: "a", To: "b", Msg: Batch{Items: []Envelope{
		{From: "x", To: "y", Msg: helloMsg{ID: "n", Addr: "addr"}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := DecodeEnvelope(NewWireReader(full[:n])); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) decoded without error", n, len(full))
		}
	}
	if _, err := DecodeEnvelope(NewWireReader(append(full[:len(full):len(full)], 0xff))); err == nil {
		// Trailing garbage after a complete message is legal at this
		// layer (framing bounds the payload), so only assert no panic.
		_ = err
	}
}

// TestTCPBinaryBatch sends a wire-coded Batch end to end over the
// binary codec (nested envelope decoding on a real connection).
func TestTCPBinaryBatch(t *testing.T) {
	srv := NewTCP(nil)
	defer srv.Close()
	srvAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Envelope, 4)
	srv.Register("srv", func(e Envelope) { got <- e })

	cli := NewTCP(map[NodeID]string{"srv": srvAddr})
	defer cli.Close()
	cli.Send("cli", "srv", Batch{Items: []Envelope{
		{From: "n1", To: "srv", Msg: ping{Seq: 1}},
		{From: "n2", To: "srv", Msg: ping{Seq: 2}},
	}})
	select {
	case e := <-got:
		b, ok := e.Msg.(Batch)
		if !ok || len(b.Items) != 2 {
			t.Fatalf("got %#v, want a 2-item batch", e.Msg)
		}
		if b.Items[0].From != "n1" || b.Items[0].Msg.(ping).Seq != 1 ||
			b.Items[1].From != "n2" || b.Items[1].Msg.(ping).Seq != 2 {
			t.Fatalf("batch items mangled: %#v", b.Items)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch not delivered")
	}
}

// TestTCPHelloReannouncedAfterRestart is the satellite-bug regression
// test: a server restart wipes its learned routes, and before the fix
// the client's hello only ever rode the first connection — so replies
// after the restart were silently unroutable.
func TestTCPHelloReannouncedAfterRestart(t *testing.T) {
	srvHandler := func(n *TCP) Handler {
		return func(e Envelope) { n.Send("srv", e.From, pong{Seq: e.Msg.(ping).Seq + 1}) }
	}
	srv := NewTCP(nil)
	srvAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Register("srv", srvHandler(srv))

	cli := NewTCP(map[NodeID]string{"srv": srvAddr})
	defer cli.Close()
	cliAddr, err := cli.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 16)
	cli.Register("cli", func(e Envelope) { done <- e.Msg.(pong).Seq })
	cli.Hello(srvAddr, "cli", cliAddr)

	cli.Send("cli", "srv", ping{Seq: 1})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("no reply before restart")
	}

	// Restart the server on the same address: fresh TCP, no learned
	// routes. The client's existing connection dies with it.
	srv.Close()
	srv2 := NewTCP(nil)
	defer srv2.Close()
	if _, err := srv2.Listen(srvAddr); err != nil {
		t.Fatalf("rebind %s: %v", srvAddr, err)
	}
	srv2.Register("srv", srvHandler(srv2))

	// The client keeps sending; once it notices the dead connection and
	// redials, the fresh connection's head must replay the hello so
	// srv2 can route the reply.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cli.Send("cli", "srv", ping{Seq: 2})
		select {
		case seq := <-done:
			if seq != 3 {
				continue // stale pre-restart reply
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted server never routed a reply: hello not re-announced")
		}
	}
}

// TestTCPSendDropCounters is the counter-bugfix regression test:
// dropped messages must land in the Dropped* counters, not MsgsSent.
func TestTCPSendDropCounters(t *testing.T) {
	n := NewTCP(nil)
	defer n.Close()
	n.Send("a", "nowhere", ping{})
	n.Send("a", "nowhere", ping{})
	s := n.Stats()
	if s.DroppedNoRoute != 2 {
		t.Errorf("DroppedNoRoute = %d, want 2", s.DroppedNoRoute)
	}
	if s.MsgsSent != 0 {
		t.Errorf("MsgsSent = %d, want 0: drops must not count as sends", s.MsgsSent)
	}
}
