package transport

import (
	"errors"
	"sync"
	"time"
)

// mailboxDepth is how much undelivered work (messages and due timer
// callbacks) one node's mailbox holds before posting to it blocks or
// drops: room for a burst from every peer, not for a node that has
// stopped draining.
const mailboxDepth = 4096

// Why deliver did not queue a message.
var (
	errNoNode      = errors.New("no such local node")
	errMailboxFull = errors.New("mailbox full")
)

// mailbox serializes all work (message handling and timer callbacks)
// for one node on a single goroutine.
type mailbox struct {
	ch   chan func(Handler)
	done chan struct{} // closed when the node is re-registered or the runtime closes
}

// put queues f and reports whether it did. With wait a full mailbox
// blocks the caller until there is room (f is lost only if the mailbox
// is retired meanwhile); without, a full mailbox loses f at once.
func (mb *mailbox) put(f func(Handler), wait bool) bool {
	if !wait {
		select {
		case mb.ch <- f:
			return true
		default:
			return false
		}
	}
	select {
	case mb.ch <- f:
		return true
	case <-mb.done:
		return false
	}
}

// nodeRuntime is the real-time node runtime Local and TCP both embed:
// one mailbox goroutine per registered node, which is what makes a
// node's handler and its After callbacks run serially; the send-time
// wire hook; and the transport counters.
//
// What a full mailbox does to whoever posts to it is decided here, once
// (DESIGN §11 "Delivery"). Work posted by a goroutine that is not a
// mailbox loop — a timer, a socket reader — waits for room; for a
// reader that wait is the TCP backpressure. Local's delivery clock
// serves every node, so it must not wait on one: it hands a message for
// a full mailbox to a goroutine that waits instead. A Send from one
// hosted node to another may be running on a mailbox loop, so it never
// waits (two nodes blocked on each other's full mailboxes would stop
// for good): its message is dropped and counted in
// Stats.DroppedQueueFull, the best-effort rule a full peer queue
// already follows.
//
// mu also guards the embedding transport's own tables, so a Send reads
// everything it routes by under one read lock.
type nodeRuntime struct {
	mu     sync.RWMutex
	nodes  map[NodeID]*mailbox
	closed bool
	tracer WireTracer
	stats  statCounters
}

func newNodeRuntime() nodeRuntime {
	return nodeRuntime{nodes: make(map[NodeID]*mailbox)}
}

// SetTracer installs the send-time wire hook: every outgoing envelope,
// a Batch included, carries tr.StampSend() in Envelope.TraceClk, so the
// handler that receives it can tell how long it was in flight. Call
// before traffic starts; a nil tracer (the default) costs one nil check
// per message.
func (r *nodeRuntime) SetTracer(tr WireTracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = tr
}

// Register installs the handler for a node hosted here and starts its
// mailbox loop. Re-registering retires the old mailbox with whatever
// it still holds: once Register returns, the replaced handler is never
// started again.
func (r *nodeRuntime) Register(id NodeID, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if old, ok := r.nodes[id]; ok {
		close(old.done)
	}
	mb := &mailbox{ch: make(chan func(Handler), mailboxDepth), done: make(chan struct{})}
	r.nodes[id] = mb
	go func() {
		for {
			select {
			case f := <-mb.ch:
				// select picks at random when both are ready; a retired
				// mailbox must not run its handler again.
				select {
				case <-mb.done:
					return
				default:
				}
				f(h)
			case <-mb.done:
				return
			}
		}
	}()
}

// stamped builds the envelope of an outgoing message, carrying the
// tracer's send stamp when one is installed.
func stamped(tr WireTracer, from, to NodeID, msg Message) Envelope {
	e := Envelope{From: from, To: to, Msg: msg}
	if tr != nil {
		e.TraceClk = tr.StampSend()
	}
	return e
}

func (r *nodeRuntime) lookup(id NodeID) *mailbox {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes[id]
}

// whenFull is what deliver does with a message whose destination's
// mailbox is full (see nodeRuntime).
type whenFull uint8

const (
	dropIfFull    whenFull = iota // drop it and count it in Stats.DroppedQueueFull
	waitIfFull                    // block the caller until there is room
	handOffIfFull                 // leave a new goroutine waiting for room; the caller goes on
)

// deliver is the receiving half of a message: it posts the envelope to
// its destination's mailbox and counts it received. The error is
// errNoNode (nothing registered under e.To, or the runtime closed) or,
// under dropIfFull, errMailboxFull.
func (r *nodeRuntime) deliver(e Envelope, full whenFull) error {
	mb := r.lookup(e.To)
	if mb == nil {
		return errNoNode
	}
	f := func(h Handler) { h(e) }
	if !mb.put(f, full == waitIfFull) {
		switch full {
		case waitIfFull:
			return errNoNode // retired while we waited
		case dropIfFull:
			r.stats.droppedQueueFull.Add(1)
			return errMailboxFull
		}
		go func() {
			if mb.put(f, true) {
				r.stats.countReceive(e.Msg)
			}
		}()
		return nil
	}
	r.stats.countReceive(e.Msg)
	return nil
}

// After schedules f to run on node on's mailbox loop once d has
// elapsed. A callback due after the node is gone is dropped.
func (r *nodeRuntime) After(on NodeID, d time.Duration, f func()) Timer {
	return time.AfterFunc(d, func() {
		if mb := r.lookup(on); mb != nil {
			mb.put(func(Handler) { f() }, true)
		}
	})
}

// Now returns wall-clock time.
func (r *nodeRuntime) Now() time.Time { return time.Now() }

// Stats snapshots the transport counters (messages, batch envelopes,
// wire bytes, drops) — served by cmd/mdcc-server /metrics.
func (r *nodeRuntime) Stats() Stats { return r.stats.snapshot() }

// Close stops every mailbox loop; later sends and timer callbacks are
// dropped.
func (r *nodeRuntime) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeLocked()
}

// closeLocked retires every mailbox; the caller holds mu. It reports
// false if the runtime was closed already.
func (r *nodeRuntime) closeLocked() bool {
	if r.closed {
		return false
	}
	r.closed = true
	for _, mb := range r.nodes {
		close(mb.done)
	}
	r.nodes = nil
	return true
}
