package transport

import (
	"math/rand"
	"sync"
	"time"
)

// LatencyFunc returns the one-way delay for a message between two
// nodes. It may consult a topology matrix and add jitter.
type LatencyFunc func(from, to NodeID) time.Duration

// Local is a real-time in-process Network: the shared node runtime
// (runtime.go) plus an optional LatencyFunc that injects wide-area
// delays (used by examples to demo geo-behaviour at compressed time
// scales) and Fail/Recover.
type Local struct {
	nodeRuntime
	failed  map[NodeID]bool
	latency LatencyFunc
	clock   *deliveryClock // nil: each delayed message rides its own runtime timer
}

// NewLocal returns a Local network. latency may be nil for immediate
// delivery.
func NewLocal(latency LatencyFunc) *Local {
	l := &Local{
		nodeRuntime: newNodeRuntime(),
		failed:      make(map[NodeID]bool),
		latency:     latency,
	}
	if latency != nil {
		l.clock = startDeliveryClock(l)
	}
	return l
}

// Fail makes a node unreachable (messages to and from it are
// dropped) until Recover — used to demonstrate data-center outages
// on the real-time transport.
func (l *Local) Fail(id NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed[id] = true
}

// Recover reverses Fail.
func (l *Local) Recover(id NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.failed, id)
}

// Send routes the message after the configured latency. A delayed
// message is delivered by the delivery clock (where there is none, by a
// runtime timer); with no latency, Send posts it to the destination's
// mailbox itself, so one sender's messages to one node keep their order
// while the mailbox has room. It never waits for room: a message for a
// full mailbox is handed to a goroutine that does.
func (l *Local) Send(from, to NodeID, msg Message) {
	l.mu.RLock()
	fromFailed := l.failed[from]
	tracer := l.tracer
	l.mu.RUnlock()
	if fromFailed {
		return
	}
	l.stats.countSend(msg)
	e := stamped(tracer, from, to, msg)
	var d time.Duration
	if l.latency != nil {
		d = l.latency(from, to)
	}
	switch {
	case d <= 0:
		l.arrive(e, handOffIfFull)
	case l.clock != nil:
		l.clock.push(e, d)
	default:
		time.AfterFunc(d, func() { l.arrive(e, waitIfFull) })
	}
}

// arrive is the receiving half of a Send, run when the message is due:
// a failed destination drops it, and so does an unregistered one, like
// a dead host.
func (l *Local) arrive(e Envelope, full whenFull) {
	l.mu.RLock()
	toFailed := l.failed[e.To]
	l.mu.RUnlock()
	if !toFailed {
		l.deliver(e, full)
	}
}

// Close stops the delivery clock, dropping what it has not yet
// delivered, and then every mailbox loop; later sends are dropped.
func (l *Local) Close() {
	if l.clock != nil {
		l.clock.stop()
	}
	l.nodeRuntime.Close()
}

// UniformJitter wraps a base latency function with ±frac multiplicative
// uniform jitter drawn from r (guarded by an internal mutex so the
// result is safe for concurrent use).
func UniformJitter(base LatencyFunc, frac float64, r *rand.Rand) LatencyFunc {
	if base == nil || frac <= 0 {
		return base
	}
	var mu sync.Mutex
	return func(from, to NodeID) time.Duration {
		d := base(from, to)
		mu.Lock()
		j := 1 + frac*(2*r.Float64()-1)
		mu.Unlock()
		return time.Duration(float64(d) * j)
	}
}
