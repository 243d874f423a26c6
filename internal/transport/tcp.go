package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// helloMsg announces a dialing peer's node and reachable address so
// the receiver can route replies back (clients are not in the static
// routing table servers start with).
type helloMsg struct {
	ID   NodeID
	Addr string
}

// TCP is a Network whose nodes may live in different processes: the
// shared node runtime (runtime.go) hosts the locally registered nodes,
// which receive messages directly; remote nodes are reached via
// persistent TCP connections carrying binary frames (codec.go) using a
// static NodeID→address routing table.
//
// Delivery is best-effort: connection failures, full outbound queues
// and full local mailboxes drop messages, exactly as the protocol
// layers expect from a WAN. What IS guaranteed is per-pair ordering:
// messages between one (from, to) pair that are delivered arrive in
// send order — all traffic to one peer address flows through a single
// FIFO queue and one writer goroutine (batch envelopes additionally
// preserve the order of their items).
type TCP struct {
	nodeRuntime                   // its mu guards the tables below too
	routes      map[NodeID]string // node → "host:port"
	conns       map[string]*tcpConn
	accepted    map[net.Conn]struct{} // inbound conns, closed with the transport
	ln          net.Listener

	// hellos remembers each peer's announcements (self node → reply
	// address) so every FRESH dial re-announces them at the head of the
	// new connection: a restarted peer wiped its learned routes, and a
	// reconnecting client whose hello only ever rode the first
	// connection would find its replies silently unroutable.
	hellos map[string][]helloMsg

	// Logf receives connection diagnostics. NewTCP discards them,
	// because message drops are expected behaviour.
	Logf func(format string, args ...interface{})
}

const (
	// outboundDepth bounds what one peer connection holds unwritten —
	// queued, plus the batch its writer is working through: room for a
	// burst from every node in the process, not for a peer that has
	// stopped reading. Past it a Send drops (WAN loss semantics) rather
	// than blocking a protocol goroutine.
	outboundDepth = 8192
	// spareKeep is the largest drained batch a writer keeps for the next
	// round of Sends: a steady connection cycles two small slices without
	// allocating, and a burst's slice goes back to the collector.
	spareKeep = 256
	// connBuf is the buffer each direction of a connection keeps. The
	// hot frames of a tcp-rmw run fit it (DESIGN.md §11); a writer's
	// frame encode buffer grows past it only while its frames do (see
	// writeFrame).
	connBuf = 16 << 10
)

// Why tcpConn.put did not queue an envelope.
var (
	errConnDown  = errors.New("connection down")
	errQueueFull = errors.New("queue full")
)

// tcpConn is one peer's ordered outbound queue. The writer goroutine
// dials lazily, then drains the queue over a single connection, which
// is what preserves per-(from,to) send order. The queue is a slice the
// writer swaps out whole, so a connection holds what is in flight, not
// a preallocated bound.
type tcpConn struct {
	addr string
	wake chan struct{} // one slot: the queue has something for the writer
	done chan struct{}
	once sync.Once // closes done exactly once

	mu      sync.Mutex
	conn    net.Conn   // set by the writer after dialing (for Close)
	queue   []Envelope // handed over by Send, not yet taken by the writer
	spare   []Envelope // the writer's last drained batch, reused by the next queue
	writing int        // envelopes in the batch the writer is working through
	flushed bool       // everything put so far is on the socket (see Drain)
}

func (c *tcpConn) close() {
	c.once.Do(func() { close(c.done) })
	c.mu.Lock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.mu.Unlock()
}

// put queues e for the writer: errConnDown once the connection is
// closed, errQueueFull when it already holds outboundDepth unwritten
// envelopes.
func (c *tcpConn) put(e Envelope) error {
	select {
	case <-c.done:
		return errConnDown
	default:
	}
	c.mu.Lock()
	if len(c.queue)+c.writing >= outboundDepth {
		c.mu.Unlock()
		return errQueueFull
	}
	if c.queue == nil {
		c.queue, c.spare = c.spare, nil
	}
	c.queue = append(c.queue, e)
	c.flushed = false
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	return nil
}

// take hands the writer everything queued, and the previous batch
// back: it is cleared, so no sent message stays reachable, and kept for
// the next queue only while it is small.
func (c *tcpConn) take(prev []Envelope) []Envelope {
	clear(prev)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cap(prev) <= spareKeep && c.spare == nil {
		c.spare = prev[:0]
	}
	batch := c.queue
	c.queue = nil
	c.writing = len(batch)
	return batch
}

// countingWriter / countingReader count wire bytes into the shared
// transport stats.
type countingWriter struct {
	w io.Writer
	n *statCounters
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.bytesSent.Add(int64(n))
	return n, err
}

type countingReader struct {
	r io.Reader
	n *statCounters
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.bytesReceived.Add(int64(n))
	return n, err
}

// NewTCP returns a TCP network with the given routing table (may be
// extended later with AddRoute).
func NewTCP(routes map[NodeID]string) *TCP {
	t := &TCP{
		nodeRuntime: newNodeRuntime(),
		routes:      make(map[NodeID]string),
		conns:       make(map[string]*tcpConn),
		accepted:    make(map[net.Conn]struct{}),
		hellos:      make(map[string][]helloMsg),
		Logf:        func(string, ...interface{}) {},
	}
	for id, addr := range routes {
		t.routes[id] = addr
	}
	return t
}

// AddRoute maps a node to a remote address.
func (t *TCP) AddRoute(id NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes[id] = addr
}

// Listen starts accepting peer connections on addr and returns the
// bound address (useful with ":0").
func (t *TCP) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.mu.Lock()
	t.ln = ln
	t.mu.Unlock()
	go t.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (t *TCP) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop checks the connection preamble — wireMagic plus the
// version byte; a peer that opens with anything else is logged and
// dropped, leaving every other connection untouched — then drains
// length-prefixed frames, decoding one that fits the reader's buffer in
// place (decoders copy what they keep) and a larger one from a slice of
// its own.
func (t *TCP) readLoop(conn net.Conn) {
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(countingReader{r: conn, n: &t.stats}, connBuf)
	var pre [5]byte // magic + version
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		if err != io.EOF && !errors.Is(err, net.ErrClosed) {
			t.Logf("transport: read preamble from %s: %v", conn.RemoteAddr(), err)
		}
		return
	}
	if [4]byte(pre[:4]) != wireMagic {
		t.Logf("transport: peer %s opened with % x, not the wire magic; dropping connection",
			conn.RemoteAddr(), pre[:4])
		return
	}
	if pre[4] != WireVersion {
		t.Logf("transport: peer %s speaks wire version %d, want %d; dropping connection",
			conn.RemoteAddr(), pre[4], WireVersion)
		return
	}
	var lenb [4]byte
	for {
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				t.Logf("transport: read frame from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		n := int(binary.BigEndian.Uint32(lenb[:]))
		if n > maxFrame {
			t.Logf("transport: oversized frame (%d bytes) from %s; dropping connection", n, conn.RemoteAddr())
			return
		}
		var payload []byte
		var err error
		if n <= connBuf {
			payload, err = br.Peek(n)
		} else {
			payload = make([]byte, n)
			_, err = io.ReadFull(br, payload)
		}
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				t.Logf("transport: read frame from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		e, err := DecodeFrame(payload)
		if n <= connBuf {
			_, _ = br.Discard(n) // cannot fail: Peek buffered all n bytes
		}
		if err != nil {
			t.Logf("transport: decode frame from %s: %v; dropping connection", conn.RemoteAddr(), err)
			return
		}
		if h, ok := e.Msg.(helloMsg); ok {
			t.AddRoute(h.ID, h.Addr)
			continue
		}
		// Waiting for room in a full mailbox stops this connection's
		// reads, which is the backpressure its sender sees.
		t.deliverLocal(e, waitIfFull)
	}
}

// deliverLocal hands e to the node it names in this process, logs the
// reason if it could not, and reports whether it did.
func (t *TCP) deliverLocal(e Envelope, full whenFull) bool {
	err := t.deliver(e, full)
	if err != nil {
		t.Logf("transport: %s: %v, dropping %T", e.To, err, e.Msg)
	}
	return err == nil
}

// Send routes msg to a local mailbox or over TCP, and never blocks:
// what a full mailbox or peer queue cannot take is dropped and
// counted. Remote sends to the same destination are FIFO through one
// per-peer queue, so messages of a (from, to) pair never reorder (they
// may still drop).
func (t *TCP) Send(from, to NodeID, msg Message) {
	t.mu.RLock()
	_, isLocal := t.nodes[to]
	addr, hasRoute := t.routes[to]
	closed := t.closed
	tracer := t.tracer
	t.mu.RUnlock()
	if closed {
		return
	}
	e := stamped(tracer, from, to, msg)
	if isLocal {
		if t.deliverLocal(e, dropIfFull) {
			t.stats.countSend(msg)
		}
		return
	}
	if !hasRoute {
		t.stats.droppedNoRoute.Add(1)
		t.Logf("transport: no route to %s, dropping %T", to, msg)
		return
	}
	// Count only what is actually enqueued: a dropped message never
	// reaches the wire, and counting it as sent inflates the /metrics
	// send counters exactly when the transport is failing.
	switch err := t.connTo(addr).put(e); err {
	case nil:
		t.stats.countSend(msg)
	case errConnDown:
		t.stats.droppedConnDown.Add(1)
		t.Logf("transport: conn to %s down, dropping %T", addr, msg)
	default:
		t.stats.droppedQueueFull.Add(1)
		t.Logf("transport: queue to %s full, dropping %T", addr, msg)
	}
}

// connTo returns the peer's outbound queue, creating it (and its
// writer goroutine) on first use. Returns a dead (done-closed) queue
// when racing Close, so callers simply observe a down connection.
func (t *TCP) connTo(addr string) *tcpConn {
	t.mu.RLock()
	c, ok := t.conns[addr]
	t.mu.RUnlock()
	if ok {
		return c
	}
	t.mu.Lock()
	if exist, ok := t.conns[addr]; ok {
		t.mu.Unlock()
		return exist
	}
	c = &tcpConn{addr: addr, wake: make(chan struct{}, 1), done: make(chan struct{})}
	if t.closed {
		t.mu.Unlock()
		c.close()
		return c
	}
	t.conns[addr] = c
	t.mu.Unlock()
	go t.writeLoop(c)
	return c
}

// writeLoop dials the peer and drains its queue in order. Any dial or
// write error tears the queue down; queued and future messages drop
// until a new Send re-creates the connection. Frames are buffered and
// flushed once the queue has drained empty (or the buffer is nearly
// full), so a burst pays one write(2) per buffer, not one per message.
func (t *TCP) writeLoop(c *tcpConn) {
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		t.Logf("transport: dial %s: %v", c.addr, err)
		t.dropConn(c.addr, c)
		return
	}
	c.mu.Lock()
	c.conn = conn
	c.mu.Unlock()
	select {
	case <-c.done: // closed while dialing
		conn.Close()
		return
	default:
	}
	// Responses flow over separately dialed connections from the
	// peer; this connection is send-only, but drain it so the peer
	// closing is noticed promptly.
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := conn.Read(buf); err != nil {
				t.dropConn(c.addr, c)
				return
			}
		}
	}()
	bw := bufio.NewWriterSize(countingWriter{w: conn, n: &t.stats}, connBuf)
	if _, err := bw.Write(append(wireMagic[:], WireVersion)); err != nil {
		t.dropConn(c.addr, c)
		return
	}
	// A fresh connection's head re-announces every hello registered for
	// this peer: a restarted peer lost its learned routes, and replies
	// to any locally hosted node would otherwise be unroutable until
	// the process reconnected AND re-called Hello by hand.
	t.mu.RLock()
	hellos := t.hellos[c.addr]
	t.mu.RUnlock()
	var frame []byte // the encode buffer, see writeFrame
	for _, h := range hellos {
		if frame, err = t.writeFrame(bw, frame, c.addr, Envelope{From: h.ID, Msg: h}); err != nil {
			t.Logf("transport: send hello to %s: %v", c.addr, err)
			t.dropConn(c.addr, c)
			return
		}
	}
	// Flush the preamble and hellos even if the queue is empty: the
	// peer must learn the reply routes before any request arrives on
	// another connection.
	if err := bw.Flush(); err != nil {
		t.dropConn(c.addr, c)
		return
	}
	var batch []Envelope
	for {
		// Take everything queued; more may arrive while it is written, and
		// the buffer is flushed once a take comes back empty.
		if batch = c.take(batch); len(batch) == 0 {
			if err := bw.Flush(); err != nil {
				t.Logf("transport: flush to %s: %v", c.addr, err)
				t.dropConn(c.addr, c)
				return
			}
			c.mu.Lock()
			c.flushed = len(c.queue) == 0
			c.mu.Unlock()
			select {
			case <-c.wake:
				continue
			case <-c.done:
				return
			}
		}
		for _, e := range batch {
			if frame, err = t.writeFrame(bw, frame, c.addr, e); err != nil {
				t.Logf("transport: send to %s: %v", c.addr, err)
				t.dropConn(c.addr, c)
				return
			}
		}
	}
}

// writeFrame encodes e as one length-prefixed frame into buf, the
// writer's encode buffer, writes it to bw and returns the buffer for
// the next frame, so a frame larger than bw's free space, such as a
// loaded window's batch, allocates nothing. A buffer past connBuf is
// kept only while frames fill a quarter of it: a connection back to
// small frames holds no burst's high-water mark. A message the wire
// cannot carry is dropped whole (and counted); only a write error is
// returned.
func (t *TCP) writeFrame(bw *bufio.Writer, buf []byte, addr string, e Envelope) ([]byte, error) {
	wm, err := wireEncoder(e.Msg)
	if err != nil {
		t.stats.droppedNoRoute.Add(1)
		t.Logf("transport: encode for %s: %v (message dropped)", addr, err)
		return buf, nil
	}
	frame := appendEnvelope(append(buf[:0], 0, 0, 0, 0), e, wm)
	if buf = frame[:0]; cap(frame) > connBuf && 4*len(frame) < cap(frame) {
		buf = nil
	}
	n := len(frame) - 4
	if n > maxFrame {
		t.Logf("transport: %T for %s exceeds max frame (%d bytes), dropped", e.Msg, addr, n)
		return buf, nil
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err = bw.Write(frame)
	return buf, err
}

func (t *TCP) dropConn(addr string, c *tcpConn) {
	t.mu.Lock()
	if t.conns[addr] == c {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
	c.close()
}

// DropPeerConns tears down every open outbound connection; the next
// Send to an affected peer dials a fresh one. Test hook for
// reconnect-ordering coverage (per-pair FIFO must survive teardown).
func (t *TCP) DropPeerConns() {
	t.mu.Lock()
	conns := make([]*tcpConn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		t.dropConn(c.addr, c)
	}
}

// Hello announces a locally hosted node's listen address to a remote
// peer so the peer can route replies back. Call after Listen, before
// sending requests. The announcement is persistent: every FRESH
// connection to the peer replays it at its head (see writeLoop), so a
// peer that restarted — wiping its learned routes — re-learns the
// reply route the moment this side reconnects.
func (t *TCP) Hello(peerAddr string, self NodeID, selfAddr string) {
	h := helloMsg{ID: self, Addr: selfAddr}
	t.mu.Lock()
	known := false
	for i, old := range t.hellos[peerAddr] {
		if old.ID == self {
			t.hellos[peerAddr][i] = h
			known = true
			break
		}
	}
	if !known {
		t.hellos[peerAddr] = append(t.hellos[peerAddr], h)
	}
	t.mu.Unlock()
	// Best effort: a full or closed queue loses it here, and every fresh
	// connection replays it anyway.
	_ = t.connTo(peerAddr).put(Envelope{From: self, Msg: h})
}

// Drain waits, at most bound, until every outbound connection has put on
// its socket everything queued for it. A connection that is down counts
// as drained: what it held is lost either way. A process about to Close
// calls it first, so its last messages are not dropped with the queues.
func (t *TCP) Drain(bound time.Duration) {
	deadline := time.Now().Add(bound)
	for {
		t.mu.RLock()
		busy := 0
		for _, c := range t.conns {
			select {
			case <-c.done:
				continue
			default:
			}
			c.mu.Lock()
			if !c.flushed {
				busy++
			}
			c.mu.Unlock()
		}
		t.mu.RUnlock()
		if busy == 0 || time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Close shuts the mailboxes, listener and connections.
func (t *TCP) Close() {
	t.mu.Lock()
	if !t.closeLocked() {
		t.mu.Unlock()
		return
	}
	if t.ln != nil {
		t.ln.Close()
	}
	conns := t.conns
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.conns = make(map[string]*tcpConn)
	t.accepted = make(map[net.Conn]struct{})
	t.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	// Close inbound connections too: a transport that "restarts" (new
	// TCP on the same address) must sever old peers so they redial —
	// and replay their hellos — against the new instance.
	for _, c := range accepted {
		c.Close()
	}
}
