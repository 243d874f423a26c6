//go:build linux

package transport

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"mdcc/internal/minheap"
)

// deliveryClock delivers a Local's delayed messages when they are due
// (DESIGN §11 "Delivery"). A runtime timer per message would be late:
// an otherwise idle Go process waits for its next timer in the
// netpoller, whose epoll wait counts whole milliseconds, so a 150 µs
// flight arrives about a millisecond late. The clock instead keeps
// every pending message in one min-heap and sleeps in ppoll(2), whose
// timeout is in nanoseconds, on a pipe that push writes when a new
// message is due before the instant the clock sleeps until.
//
// One goroutine runs the clock and posts each due message itself, so a
// message for a full mailbox is handed to a goroutine that waits for
// room (handOffIfFull): one stuck node never delays another's messages.
type deliveryClock struct {
	l     *Local
	epoch time.Time // due instants are nanoseconds since epoch
	r, w  int       // the wake pipe, both ends non-blocking
	done  chan struct{}

	mu     sync.Mutex
	due    []dueMsg // a minheap by dueFirst
	seq    uint64
	sleep  int64 // the instant run sleeps until; 0 while it is awake
	closed bool
	wake   [1]byte
}

// startDeliveryClock starts l's clock, or returns nil if it cannot make
// its pipe, in which case l gives each message a runtime timer.
func startDeliveryClock(l *Local) *deliveryClock {
	var p [2]int
	if syscall.Pipe2(p[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK) != nil {
		return nil
	}
	c := &deliveryClock{l: l, epoch: time.Now(), r: p[0], w: p[1], done: make(chan struct{})}
	go c.run()
	return c
}

func (c *deliveryClock) now() int64 { return int64(time.Since(c.epoch)) }

// push schedules e for delivery d from now; after stop it drops e.
func (c *deliveryClock) push(e Envelope, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	at := c.now() + int64(d)
	c.seq++
	c.due = minheap.Push(c.due, dueMsg{at: at, seq: c.seq, e: e}, dueFirst)
	if at < c.sleep {
		c.sleep = at // later pushes that are due after this one need not wake it again
		syscall.Write(c.w, c.wake[:])
	}
}

// stop drops every pending message and waits until run has returned
// and closed the pipe.
func (c *deliveryClock) stop() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.due = nil
		syscall.Write(c.w, c.wake[:])
	}
	c.mu.Unlock()
	<-c.done
}

func (c *deliveryClock) run() {
	defer func() {
		syscall.Close(c.r)
		syscall.Close(c.w)
		close(c.done)
	}()
	var ready []Envelope
	var drain [64]byte
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		now := c.now()
		for len(c.due) > 0 && c.due[0].at <= now {
			var m dueMsg
			c.due, m = minheap.Pop(c.due, dueFirst)
			ready = append(ready, m.e)
		}
		if len(ready) > 0 {
			c.sleep = 0
			c.mu.Unlock()
			for i := range ready {
				c.l.arrive(ready[i], handOffIfFull)
				ready[i] = Envelope{}
			}
			ready = ready[:0]
			// Run the handlers just readied before ppoll takes this P
			// into the syscall with them still in its run queue: when
			// every other P is busy they would wait there until the
			// runtime's monitor retakes it, up to 10 ms later.
			runtime.Gosched()
			continue
		}
		timeout := int64(-1)
		c.sleep = math.MaxInt64
		if len(c.due) > 0 {
			c.sleep = c.due[0].at
			timeout = c.sleep - now
		}
		c.mu.Unlock()
		if ppoll(c.r, timeout) {
			for {
				if n, _ := syscall.Read(c.r, drain[:]); n <= 0 {
					break
				}
			}
		}
	}
}

// ppoll waits until fd is readable, a signal arrives or timeout
// nanoseconds have passed (with a negative timeout, no limit), and
// reports whether fd is readable.
func ppoll(fd int, timeout int64) bool {
	const pollIn = 0x1
	pfd := struct {
		fd              int32
		events, revents int16
	}{fd: int32(fd), events: pollIn}
	var ts *syscall.Timespec
	if timeout >= 0 {
		t := syscall.NsecToTimespec(timeout)
		ts = &t
	}
	syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&pfd)), 1, uintptr(unsafe.Pointer(ts)), 0, 0, 0)
	return pfd.revents != 0
}

// dueMsg is one delayed message on the clock.
type dueMsg struct {
	at  int64  // due instant
	seq uint64 // send order, which breaks ties
	e   Envelope
}

// dueFirst orders the clock's messages by due instant, then send order.
func dueFirst(a, b *dueMsg) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}
