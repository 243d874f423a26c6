// Package transport defines how protocol nodes exchange messages and
// schedule timers, independent of whether the network is the
// discrete-event simulator (internal/simnet), in-process channels with
// injected latency (this package's Local), or real TCP sockets
// (this package's tcp.go).
//
// Concurrency contract: each node's handler and its After callbacks
// are invoked serially, so node state needs no internal locking as
// long as it is only touched from handlers/timers. This matches the
// single-threaded simulator and is enforced by the one per-node
// mailbox loop (runtime.go) both real-time transports are built on.
package transport

import (
	"sync/atomic"
	"time"
)

// NodeID names an endpoint ("dc1/store0", "client17", ...).
type NodeID string

// Message is a protocol payload. Concrete message types used over TCP
// must implement WireMessage and register a decoder with RegisterWire.
type Message interface{}

// Envelope is a routed message.
type Envelope struct {
	From NodeID
	To   NodeID
	Msg  Message
	// TraceClk is the send stamp of the transport's WireTracer, taken
	// at Send. Zero when no tracer is installed, and on the items of a
	// Batch, whose one stamp is the outer envelope's.
	TraceClk uint64
}

// WireTracer is the send-time hook a transport calls through
// SetTracer: StampSend returns the stamp an outgoing envelope carries
// in TraceClk (a send time, for a tracer that measures time in flight).
// Implementations must be safe for concurrent use and cheap enough for
// every message.
type WireTracer interface {
	StampSend() uint64
}

// Handler consumes messages delivered to one node.
type Handler func(env Envelope)

// Network routes messages between registered nodes and schedules
// timers serialized with a node's handler.
type Network interface {
	// Register installs the handler for a node. Must be called before
	// messages are sent to it. Re-registering replaces the handler.
	Register(id NodeID, h Handler)

	// Send routes msg from one node to another. Delivery is
	// asynchronous, unordered across pairs, and may silently drop
	// (simnet failure injection; closed TCP peers).
	Send(from, to NodeID, msg Message)

	// After schedules f to run on node `on` after d, serialized with
	// that node's handler.
	After(on NodeID, d time.Duration, f func()) Timer

	// Now returns the network's current (possibly virtual) time.
	Now() time.Time
}

// Timer is the handle After returns: a cancellable pending callback.
// *time.Timer satisfies it.
type Timer interface {
	// Stop cancels the timer. It reports whether the callback was
	// prevented from running (false if it already ran or was stopped).
	Stop() bool
}

// Incarnation names the process lifetime of a node constructed now on
// net, with nothing kept across restarts and nothing passed in by
// whoever restarts it: the construction instant in nanoseconds. A
// successor that re-registers the same node id is built strictly later,
// on the real clock and on the simulator's, so an identifier seeded from
// its Incarnation (transaction lanes, request ids, feed epochs and boot
// ids — DESIGN.md §8) is one no predecessor issued. It is 0 exactly at
// the simulator's zero instant.
func Incarnation(net Network) uint64 { return uint64(net.Now().UnixNano()) }

// Batch is a coalesced envelope: independent protocol messages —
// often from different senders and different transactions — bound for
// the same destination node, shipped as one wire message. The gateway
// tier's batching layer produces these (generalizing the paper's §7
// per-transaction batching across transactions); internal/core's
// message dispatch unpacks them, delivering each item with its own
// original From. Items preserve send order.
type Batch struct {
	Items []Envelope
}

// SendCoalesced sends what a batching layer staged for one destination
// and returns the slice to stage the next round into. This is the one
// coalescing rule (the gateway's batch windows and a storage node's
// per-dispatch answers both flush through it): one staged item goes
// bare, under its own From, and the slice keeps its backing array, so
// the common single-message round sends allocation-free (a caller keeps
// one slice per destination or one in all, so what is retained is
// bounded); two or more leave as one Batch from `from`, and the slice is
// surrendered — it escapes into an asynchronously serialized envelope,
// so the next round reallocates. Receivers dispatch each item under its
// own original From.
func SendCoalesced(net Network, from, to NodeID, items []Envelope) []Envelope {
	switch len(items) {
	case 0:
		return items
	case 1:
		e := items[0]
		items[0] = Envelope{}
		net.Send(e.From, to, e.Msg)
		return items[:0]
	}
	net.Send(from, to, Batch{Items: items})
	return nil
}

// Stats counts transport-level activity. The real-time transports
// (Local, TCP) maintain these; byte counts are TCP-only (Local never
// serializes).
type Stats struct {
	// MsgsSent / MsgsReceived count envelopes handed to Send and
	// delivered to local handlers (a Batch counts once; its contents
	// are the Batched* counters).
	MsgsSent     int64 `json:"msgsSent"`
	MsgsReceived int64 `json:"msgsReceived"`
	// BatchesSent / BatchesReceived count Batch envelopes, and
	// BatchedSent / BatchedReceived the messages carried inside them.
	BatchesSent     int64 `json:"batchesSent"`
	BatchesReceived int64 `json:"batchesReceived"`
	BatchedSent     int64 `json:"batchedSent"`
	BatchedReceived int64 `json:"batchedReceived"`
	// BytesSent / BytesReceived count wire bytes (TCP only).
	BytesSent     int64 `json:"bytesSent"`
	BytesReceived int64 `json:"bytesReceived"`
	// Dropped* count messages Send discarded instead of enqueueing
	// (TCP only): no routing-table entry, the peer's outbound queue or
	// a local node's mailbox full, or the peer's connection torn down.
	// Dropped messages are NOT counted in MsgsSent — only what actually
	// reached a queue or a local mailbox is. DroppedNoRoute also counts
	// messages no frame can carry (ErrNoWireCodec, found when the writer
	// encodes them): like a missing route, nothing the transport retries
	// delivers them.
	DroppedNoRoute   int64 `json:"droppedNoRoute"`
	DroppedQueueFull int64 `json:"droppedQueueFull"`
	DroppedConnDown  int64 `json:"droppedConnDown"`
}

// statCounters is the internal atomic mirror of Stats shared by the
// real-time transports.
type statCounters struct {
	msgsSent, msgsReceived           atomic.Int64
	batchesSent, batchesReceived     atomic.Int64
	batchedSent, batchedReceived     atomic.Int64
	bytesSent, bytesReceived         atomic.Int64
	droppedNoRoute, droppedQueueFull atomic.Int64
	droppedConnDown                  atomic.Int64
}

func (c *statCounters) countSend(msg Message) {
	c.msgsSent.Add(1)
	if b, ok := msg.(Batch); ok {
		c.batchesSent.Add(1)
		c.batchedSent.Add(int64(len(b.Items)))
	}
}

func (c *statCounters) countReceive(msg Message) {
	c.msgsReceived.Add(1)
	if b, ok := msg.(Batch); ok {
		c.batchesReceived.Add(1)
		c.batchedReceived.Add(int64(len(b.Items)))
	}
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		MsgsSent:         c.msgsSent.Load(),
		MsgsReceived:     c.msgsReceived.Load(),
		BatchesSent:      c.batchesSent.Load(),
		BatchesReceived:  c.batchesReceived.Load(),
		BatchedSent:      c.batchedSent.Load(),
		BatchedReceived:  c.batchedReceived.Load(),
		BytesSent:        c.bytesSent.Load(),
		BytesReceived:    c.bytesReceived.Load(),
		DroppedNoRoute:   c.droppedNoRoute.Load(),
		DroppedQueueFull: c.droppedQueueFull.Load(),
		DroppedConnDown:  c.droppedConnDown.Load(),
	}
}
