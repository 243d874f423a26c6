package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"mdcc/internal/transport"
)

// batcher is a transport.Network decorator that coalesces outbound
// messages bound for the same destination node within a small
// time/size window into one transport.Batch envelope. The gateway's
// coordinator sends through it, so proposals, visibility and recovery
// messages of *different* transactions destined for the same acceptor
// share a wire message — the paper's §7 per-transaction batching
// generalized across transactions.
//
// Per-destination buffers are FIFO, so messages of one (from, to)
// pair keep their send order through coalescing: they end up either
// in the same envelope (items preserve order) or in consecutive ones.
// A transport.Batch handed to Send (the coordinator's owed visibility
// riding a propose) joins the window item by item, so the envelope stays
// flat.
type batcher struct {
	inner  transport.Network
	on     transport.NodeID // timer anchor (the gateway's node)
	window time.Duration
	// tracer, when set, stamps each buffered item's Lamport clock at
	// buffering time: a Batch envelope's outer stamp is applied at
	// flush, which would otherwise order all inner items after sends
	// that happened between buffering and flush.
	tracer transport.WireTracer

	mu  sync.Mutex
	buf map[transport.NodeID][]transport.Envelope

	// Counters (read via the gateway's Metrics).
	envelopes atomic.Int64 // batch envelopes sent (fan-in >= 2)
	batched   atomic.Int64 // messages carried inside those envelopes
	singles   atomic.Int64 // messages that found no window partner
}

func newBatcher(inner transport.Network, on transport.NodeID, window time.Duration) *batcher {
	return &batcher{
		inner:  inner,
		on:     on,
		window: window,
		buf:    make(map[transport.NodeID][]transport.Envelope),
	}
}

// Register, After and Now pass through to the wrapped network.
func (b *batcher) Register(id transport.NodeID, h transport.Handler) { b.inner.Register(id, h) }
func (b *batcher) After(on transport.NodeID, d time.Duration, f func()) transport.Timer {
	return b.inner.After(on, d, f)
}
func (b *batcher) Now() time.Time { return b.inner.Now() }

// Send buffers the message in its destination's window — a Batch's
// items one by one, in order; the window flushes when full or when its
// timer fires, whichever is first.
func (b *batcher) Send(from, to transport.NodeID, msg transport.Message) {
	if b.window <= 0 {
		b.inner.Send(from, to, msg)
		return
	}
	b.mu.Lock()
	first := len(b.buf[to]) == 0
	if bt, ok := msg.(transport.Batch); ok {
		for _, e := range bt.Items {
			b.addLocked(to, e)
		}
	} else {
		b.addLocked(to, transport.Envelope{From: from, To: to, Msg: msg})
	}
	first = first && len(b.buf[to]) > 0
	b.mu.Unlock()
	if first {
		// First message of a fresh window: arm its flush timer. A
		// size-triggered flush may leave this timer to fire on a
		// younger window — that only shortens that window, never loses
		// or reorders messages.
		b.inner.After(b.on, b.window, func() { b.flush(to) })
	}
}

// addLocked appends e to its destination's window, stamped now, and
// flushes the window once it is full.
func (b *batcher) addLocked(to transport.NodeID, e transport.Envelope) {
	if b.tracer != nil {
		e.TraceClk = b.tracer.StampSend()
	}
	b.buf[to] = append(b.buf[to], e)
	if len(b.buf[to]) >= batchMax {
		b.flushLocked(to)
	}
}

func (b *batcher) flush(to transport.NodeID) {
	b.mu.Lock()
	b.flushLocked(to)
	b.mu.Unlock()
}

// flushLocked sends the destination's window by the one coalescing rule
// (transport.SendCoalesced); a Batch's outer From is the gateway node.
func (b *batcher) flushLocked(to transport.NodeID) {
	items := b.buf[to]
	switch len(items) {
	case 0:
		return
	case 1:
		b.singles.Add(1)
	default:
		b.envelopes.Add(1)
		b.batched.Add(int64(len(items)))
	}
	b.buf[to] = transport.SendCoalesced(b.inner, b.on, to, items)
}

// flushAll drains every pending window (shutdown).
func (b *batcher) flushAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for to := range b.buf {
		b.flushLocked(to)
	}
}
