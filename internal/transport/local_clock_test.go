package transport

import (
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const fallbackNote = "this platform gives each delayed message its own runtime timer (the fallback)"

// TestLocalDeliversWhenDue pins the delivery clock's point: a delayed
// message arrives close to its latency, not a netpoller millisecond
// after it, and never before it.
func TestLocalDeliversWhenDue(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip(fallbackNote)
	}
	const latency = 150 * time.Microsecond
	n := NewLocal(func(_, _ NodeID) time.Duration { return latency })
	defer n.Close()
	got := make(chan time.Time, 1)
	n.Register("b", func(Envelope) { got <- time.Now() })
	late := make([]time.Duration, 200)
	for i := range late {
		sent := time.Now()
		n.Send("a", "b", ping{Seq: i})
		select {
		case at := <-got:
			late[i] = at.Sub(sent) - latency
		case <-time.After(2 * time.Second):
			t.Fatalf("send %d never arrived", i)
		}
		if late[i] < 0 {
			t.Fatalf("send %d arrived %v before its %v latency", i, -late[i], latency)
		}
	}
	slices.Sort(late)
	p50, p90 := late[len(late)/2], late[len(late)*9/10]
	t.Logf("lateness past the %v latency: median %v, p90 %v", latency, p50, p90)
	if p50 >= 400*time.Microsecond {
		t.Fatalf("median lateness %v, want under 400µs", p50)
	}
}

// TestLocalFullMailboxStallsOnlyItsNode: a node whose handler is stuck
// fills its mailbox, and the messages due to it after that wait for room
// without holding up anyone else's, and without being dropped.
func TestLocalFullMailboxStallsOnlyItsNode(t *testing.T) {
	const latency = 2 * time.Millisecond
	n := NewLocal(func(_, _ NodeID) time.Duration { return latency })
	defer n.Close()
	release := make(chan struct{})
	releaseB := sync.OnceFunc(func() { close(release) })
	defer releaseB() // before Close, should the test fail while b is stuck
	var toB atomic.Int64
	n.Register("b", func(Envelope) {
		<-release
		toB.Add(1)
	})
	gotC := make(chan time.Time, 1)
	n.Register("c", func(Envelope) { gotC <- time.Now() })

	const stalled = mailboxDepth + 100 // one in b's handler, a full mailbox, and more
	for i := 0; i < stalled; i++ {
		n.Send("a", "b", ping{Seq: i})
	}
	time.Sleep(latency + 20*time.Millisecond) // every message to b is due and handled by the clock
	// Messages to c keep arriving while b is stuck. The fastest of a few
	// must be on time: one alone may lose an OS time slice on a busy host.
	bound := latency + 5*time.Millisecond
	fastest := time.Hour
	for i := 0; i < 5 && fastest > bound; i++ {
		sent := time.Now()
		n.Send("a", "c", ping{Seq: i})
		select {
		case at := <-gotC:
			fastest = min(fastest, at.Sub(sent))
		case <-time.After(2 * time.Second):
			t.Fatal("c's message never arrived while b's mailbox was full")
		}
	}
	if fastest > bound {
		t.Errorf("c's messages took at least %v behind b's full mailbox, want within %v", fastest, bound)
	}

	releaseB()
	deadline := time.Now().Add(5 * time.Second)
	for toB.Load() < stalled && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := toB.Load(); got != stalled {
		t.Errorf("b handled %d of %d messages after it was released", got, stalled)
	}
	if dropped := n.Stats().DroppedQueueFull; dropped != 0 {
		t.Errorf("DroppedQueueFull = %d, want 0: a delayed message waits for room", dropped)
	}
}

// TestLocalDelayedSendAllocFree pins a delayed Send's cost: it goes on
// the clock's typed heap, with no closure, no runtime timer and no
// boxing. The latency is long enough that nothing comes due meanwhile.
func TestLocalDelayedSendAllocFree(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip(fallbackNote)
	}
	n := NewLocal(func(_, _ NodeID) time.Duration { return time.Hour })
	defer n.Close()
	n.Register("b", func(Envelope) { t.Error("a message came due") })
	var msg Message = ping{Seq: 1}
	if allocs := testing.AllocsPerRun(1000, func() { n.Send("a", "b", msg) }); allocs != 0 {
		t.Errorf("a delayed Send allocated %.0f times, want 0", allocs)
	}
}

// TestLocalCloseReleasesClock: Close stops the delivery clock's
// goroutine, closes its pipe and drops what was still to come.
func TestLocalCloseReleasesClock(t *testing.T) {
	openFDs := func() int {
		if runtime.GOOS != "linux" {
			return 0
		}
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	const latency = 5 * time.Millisecond
	var delivered atomic.Int64
	for i := 0; i < 200; i++ {
		n := NewLocal(func(_, _ NodeID) time.Duration { return latency })
		n.Register("b", func(Envelope) { delivered.Add(1) })
		n.Send("a", "b", ping{Seq: i})
		n.Close()
	}
	time.Sleep(latency + 20*time.Millisecond)
	if got := delivered.Load(); got != 0 {
		t.Errorf("%d messages sent before Close were delivered after it", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after 200 closed Locals, %d before", got, goroutines)
	}
	if got := openFDs(); got > fds {
		t.Errorf("%d open descriptors after 200 closed Locals, %d before", got, fds)
	}
}
