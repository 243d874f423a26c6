package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// sizedMsg returns an orderMsg from "a" to "sink" whose frame payload is
// exactly size bytes, its pad a pattern of seq.
func sizedMsg(t *testing.T, seq, size int) orderMsg {
	t.Helper()
	m := orderMsg{Src: "a", Seq: seq}
	frameLen := func() int {
		b, err := AppendEnvelope(nil, Envelope{From: "a", To: "sink", Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	// The pad's length prefix is one to four bytes, so the pad is within
	// three bytes below size minus the frame without it.
	base := frameLen() - 1
	for pad := max(size-base-4, 0); pad <= size-base; pad++ {
		m.Pad = make([]byte, pad)
		if frameLen() == size {
			for i := range m.Pad {
				m.Pad[i] = byte(seq + i)
			}
			return m
		}
	}
	t.Fatalf("no orderMsg frames to %d bytes", size)
	return m
}

// TestTCPFrameSizes: frames just under, at and just over the
// connection's buffer, and one of 1 MiB, interleaved with small frames,
// arrive intact and in order — a frame that fits is decoded in place
// from the reader's buffer, a larger one from a slice of its own. A
// frame whose stream or payload is cut short drops only its own
// connection.
func TestTCPFrameSizes(t *testing.T) {
	recv := NewTCP(nil)
	defer recv.Close()
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []orderMsg
	recv.Register("sink", func(e Envelope) {
		mu.Lock()
		got = append(got, e.Msg.(orderMsg))
		mu.Unlock()
	})
	send := NewTCP(map[NodeID]string{"sink": addr})
	defer send.Close()

	var want []orderMsg
	sendAll := func(sizes ...int) {
		for _, size := range sizes {
			m := orderMsg{Src: "a", Seq: len(want)}
			if size > 0 {
				m = sizedMsg(t, len(want), size)
			}
			want = append(want, m)
			send.Send("a", "sink", m)
		}
	}
	waitAll := func() {
		t.Helper()
		waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == len(want) })
		mu.Lock()
		defer mu.Unlock()
		for i, m := range got {
			if m.Seq != want[i].Seq || !bytes.Equal(m.Pad, want[i].Pad) {
				t.Fatalf("frame %d: got seq %d with a %d-byte pad, want seq %d with %d bytes",
					i, m.Seq, len(m.Pad), want[i].Seq, len(want[i].Pad))
			}
		}
	}
	for round := 0; round < 2; round++ {
		sendAll(0, connBuf-1, 0, connBuf, 0, connBuf+1, 0, 1<<20, 0, connBuf, connBuf+1, connBuf-1, 0)
	}
	waitAll()

	cut := func(m orderMsg) []byte {
		b, err := AppendEnvelope(nil, Envelope{From: "a", To: "sink", Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		return b[:len(b)-1]
	}
	for name, stream := range map[string][]byte{
		// The length prefix covers what was sent, but the payload lacks
		// the pad's last byte: a decode error.
		"payload cut in the buffer":   framed(cut(sizedMsg(t, 0, connBuf/2))),
		"payload cut past the buffer": framed(cut(sizedMsg(t, 0, 2*connBuf))),
		// The stream ends inside the payload its length prefix announces.
		"stream cut in the buffer":   binary.BigEndian.AppendUint32(nil, connBuf/2),
		"stream cut past the buffer": append(binary.BigEndian.AppendUint32(nil, 2*connBuf), make([]byte, connBuf)...),
	} {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(append(append(wireMagic[:], WireVersion), stream...)); err != nil {
			t.Fatal(err)
		}
		raw.(*net.TCPConn).CloseWrite()
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := raw.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: the listener kept the connection open", name)
		}
		raw.Close()
		sendAll(0, connBuf+1, 0)
		waitAll()
	}
}

// framed prefixes payload with its length, as the wire does.
func framed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestTCPWriteFrameAllocFree: encoding a hot message's frame and
// writing it to the connection's buffered writer allocates nothing,
// across the flushes a full buffer takes (each run writes more than the
// buffer holds), for frames larger than the buffer's free space too: a
// loaded window's batch is 6–10 KB.
func TestTCPWriteFrameAllocFree(t *testing.T) {
	tr := NewTCP(nil)
	defer tr.Close()
	bw := bufio.NewWriterSize(io.Discard, connBuf)
	for name, msg := range map[string]Message{
		"ping":  ping{Seq: 7},
		"hello": helloMsg{ID: "dc1/store0", Addr: "127.0.0.1:7000"},
		"batch": Batch{Items: []Envelope{
			{From: "gw/us-west", To: "dc1/store0", Msg: ping{Seq: 1}},
			{From: "gw/us-west", To: "dc1/store0", Msg: orderMsg{Src: "a", Seq: 2, Pad: make([]byte, 300)}},
		}},
		"2 KiB":  orderMsg{Src: "a", Pad: make([]byte, 2<<10)},
		"8 KiB":  orderMsg{Src: "a", Pad: make([]byte, 8<<10)},
		"40 KiB": orderMsg{Src: "a", Pad: make([]byte, 40<<10)},
	} {
		e := Envelope{From: "dc1/store0", To: "dc2/app0", Msg: msg}
		frame, err := AppendEnvelope(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		perRun := connBuf/len(frame) + 1
		var buf []byte
		allocs := testing.AllocsPerRun(50, func() {
			for i := 0; i < perRun; i++ {
				if buf, err = tr.writeFrame(bw, buf, "peer", e); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs > 0 {
			t.Errorf("%s: writing %d frames allocates %.1f objects per run, want 0", name, perRun, allocs)
		}
	}
}

// TestTCPFrameBufferFollowsFrames: a writer keeps a burst's large
// encode buffer while its frames fill it, and gives it up at the first
// small frame.
func TestTCPFrameBufferFollowsFrames(t *testing.T) {
	tr := NewTCP(nil)
	defer tr.Close()
	bw := bufio.NewWriterSize(io.Discard, connBuf)
	big := Envelope{From: "a", To: "b", Msg: orderMsg{Src: "a", Pad: make([]byte, 40<<10)}}
	small := Envelope{From: "a", To: "b", Msg: ping{Seq: 1}}
	buf, err := tr.writeFrame(bw, nil, "peer", big)
	if err != nil || cap(buf) < 40<<10 {
		t.Fatalf("after a 40 KiB frame the buffer holds %d bytes (%v), want it kept", cap(buf), err)
	}
	if buf, err = tr.writeFrame(bw, buf, "peer", small); err != nil || cap(buf) > connBuf {
		t.Fatalf("after a small frame the buffer holds %d bytes (%v), want at most %d", cap(buf), err, connBuf)
	}
}
