package mdcc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mdcc/internal/gateway"
)

// TestGatewaySessionsCoalesceHotKey attaches many sessions to one
// DC's gateway, stampedes a hot stock key with commutative
// decrements, and verifies conservation, version accounting and that
// the stampede was actually merged into few Paxos options.
func TestGatewaySessionsCoalesceHotKey(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		LatencyScale: 0.02,
		Constraints:  []Constraint{MinBound("units", 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	admin := c.Session(USWest)
	const initial = int64(100000)
	keys := []Key{"stock/a", "stock/b"}
	for _, k := range keys {
		if ok, err := admin.Commit(Insert(k, Value{Attrs: map[string]int64{"units": initial}})); err != nil || !ok {
			t.Fatalf("preload %s: ok=%v err=%v", k, ok, err)
		}
	}

	// One concurrent burst: every transaction in flight at once, the
	// shape a flash sale produces. Two hot keys make two merge windows
	// flush concurrently, so their options share batch envelopes.
	gw := c.Gateway(USWest)
	// Warm the gateway's escrow headroom accounts first: admission is
	// conservative (no merging) until an acceptor-piggybacked snapshot
	// arrives, and a read reply carries one per key.
	warm := gw.Session()
	for _, k := range keys {
		if _, _, _, err := warm.Read(k); err != nil {
			t.Fatalf("warm read %s: %v", k, err)
		}
	}
	waitFor(t, "escrow snapshots for every hot key", func() bool {
		return gw.Metrics().TrackedKeys >= int64(len(keys))
	})
	const burst = 128
	var wg sync.WaitGroup
	var mu sync.Mutex
	commits := 0
	for i := 0; i < burst; i++ {
		key := keys[i%len(keys)]
		sess := gw.Session()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := sess.Commit(Commutative(key, map[string]int64{"units": -1}))
			if err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			if ok {
				mu.Lock()
				commits++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if commits != burst {
		t.Fatalf("%d of %d stampede transactions committed", commits, burst)
	}
	// Conservation and per-client-update version accounting, read
	// fresh (visibility is asynchronous).
	perKey := int64(burst / len(keys))
	for _, k := range keys {
		waitFor(t, fmt.Sprintf("%s at units=%d ver=%d", k, initial-perKey, 1+perKey), func() bool {
			val, ver, ok, err := admin.ReadLatest(k)
			if err != nil {
				t.Fatal(err)
			}
			return ok && val.Attr("units") == initial-perKey && ver == Version(1+perKey)
		})
	}

	m := gw.Metrics()
	if m.Commits != int64(commits) {
		t.Errorf("gateway commits=%d, want %d", m.Commits, commits)
	}
	if m.MergedOptions == 0 {
		t.Errorf("expected merged options, metrics: %+v", m)
	}
	if s, ok := gw.Session().GatewayMetrics(); !ok || s.Submitted == 0 {
		t.Errorf("Session.GatewayMetrics not surfaced: ok=%v %+v", ok, s)
	}
	if ts := c.TransportStats(); ts.BatchesSent == 0 || ts.BatchedSent < 2*ts.BatchesSent {
		t.Errorf("expected cross-transaction batch envelopes on the transport: %+v", ts)
	}
}

// TestGatewaySessionMixedTransactions checks that multi-update
// (non-coalescible) transactions pass through the gateway unchanged:
// atomicity and read-your-writes behave as with private coordinators.
func TestGatewaySessionMixedTransactions(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		LatencyScale: 0.02,
		Constraints:  []Constraint{MinBound("stock", 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sess := c.Gateway(APTokyo).Session()
	if ok, err := sess.Commit(
		Insert("item/1", Value{Attrs: map[string]int64{"stock": 5, "price": 100}}),
		Insert("order/1", Value{Attrs: map[string]int64{"qty": 0}}),
	); err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	// Atomic buy: decrement + order row.
	if ok, err := sess.Commit(
		Commutative("item/1", map[string]int64{"stock": -2}),
		Insert("order/2", Value{Attrs: map[string]int64{"qty": 2}}),
	); err != nil || !ok {
		t.Fatalf("buy: ok=%v err=%v", ok, err)
	}
	val, _, ok, err := sess.ReadLatest("item/1")
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	if val.Attr("stock") != 3 {
		t.Errorf("stock=%d, want 3", val.Attr("stock"))
	}
	// Overdraw must abort atomically (no order row).
	ok, err = sess.Commit(
		Commutative("item/1", map[string]int64{"stock": -10}),
		Insert("order/3", Value{Attrs: map[string]int64{"qty": 10}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("overdraw committed")
	}
	if _, _, exists, _ := sess.ReadLatest("order/3"); exists {
		t.Error("aborted transaction leaked its order row")
	}
}

// TestGatewaySessionGuaranteesThroughReadTier runs a session with
// monotonic-reads/read-your-writes enabled against the gateway read
// tier on the real-time transport: every read after a committed
// physical write must observe it (the session floor walks the tier's
// fallback ladder instead of trusting a lagging memory copy), and a
// long read loop must never go backwards while commutative writers
// move the key underneath it.
func TestGatewaySessionGuaranteesThroughReadTier(t *testing.T) {
	c, err := StartCluster(ClusterConfig{LatencyScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	gw := c.Gateway(USWest)
	s := gw.Session()
	s.EnableSessionGuarantees()
	if ok, err := s.Commit(Insert("rt/1", Value{Attrs: map[string]int64{"x": 0}})); err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	// Ten RMW rounds: each read must see the previous write (RYW),
	// version strictly monotone. The write itself may abort — two
	// replicas still applying the previous round reject it, as for any
	// optimistic writer — and is then retried from a fresh read.
	var last Version
	for i := int64(1); i <= 10; i++ {
		waitFor(t, fmt.Sprintf("round %d write", i), func() bool {
			val, ver, exists, err := s.Read("rt/1")
			if err != nil || !exists {
				t.Fatalf("round %d read: exists=%v err=%v", i, exists, err)
			}
			if ver < last {
				t.Fatalf("round %d: version went backwards %d -> %d", i, last, ver)
			}
			if val.Attr("x") != i-1 {
				t.Fatalf("round %d: read stale x=%d (ver %d), want %d", i, val.Attr("x"), ver, i-1)
			}
			ok, err := s.Commit(Physical("rt/1", ver, val.WithAttr("x", i)))
			if err != nil {
				t.Fatalf("round %d write: %v", i, err)
			}
			if ok {
				last = ver + 1
			}
			return ok
		})
	}
	// The tier must actually be in the path (not silently disabled).
	m := gw.Metrics()
	if m.LocalReads == 0 && m.ReadRPCs == 0 {
		t.Fatalf("read tier never saw the reads: %+v", m)
	}
}

// TestDialGatewayRoundTrip runs a server-side gateway and a thin RPC
// client in-process over real TCP sockets.
func TestDialGatewayRoundTrip(t *testing.T) {
	topo := startTCPDeployment(t, ModeMDCC, nil, true)

	sess, err := DialGateway(topo, USWest, "gwcli1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if ok, err := sess.Commit(Insert("k/1", Value{Attrs: map[string]int64{"v": 7}})); err != nil || !ok {
		t.Fatalf("commit via gateway RPC: ok=%v err=%v", ok, err)
	}
	waitFor(t, "k/1 readable through the gateway", func() bool {
		val, _, ok, err := sess.Read("k/1")
		if err != nil {
			t.Fatal(err)
		}
		return ok && val.Attr("v") == 7
	})
	// A second client shares the same gateway tier.
	sess2, err := DialGateway(topo, USEast, "gwcli2", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	if ok, err := sess2.Commit(Commutative("k/1", map[string]int64{"v": 3})); err != nil || !ok {
		t.Fatalf("commutative via gateway: ok=%v err=%v", ok, err)
	}
}

// TestGatewaySessionOnClosedGatewayAnswersAtOnce: once the cluster is
// closed, a gateway session's calls return immediately — the commit
// with the gateway's own ErrClosed, the floored read with ErrTimeout
// (absent is below the floor its own insert set) — instead of hanging
// to the session's blocking deadline.
func TestGatewaySessionOnClosedGatewayAnswersAtOnce(t *testing.T) {
	c, err := StartCluster(ClusterConfig{LatencyScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Gateway(USWest).Session()
	s.EnableSessionGuarantees()
	if ok, err := s.Commit(Insert("closed/1", Value{Attrs: map[string]int64{"x": 1}})); err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	c.Close()

	start := time.Now()
	if _, _, _, err := s.Read("closed/1"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("floored read on a closed gateway: err=%v, want ErrTimeout", err)
	}
	if _, _, exists, err := s.Read("closed/never-seen"); err != nil || exists {
		t.Fatalf("floor-less read on a closed gateway: exists=%v err=%v, want absent", exists, err)
	}
	if ok, err := s.Commit(Commutative("closed/1", map[string]int64{"x": 1})); ok || err != ErrClosed || err != gateway.ErrClosed {
		t.Fatalf("commit on a closed gateway: ok=%v err=%v, want the gateway's ErrClosed", ok, err)
	}
	if d := time.Since(start); d > s.timeout/2 {
		t.Fatalf("calls on a closed gateway took %s (session deadline %s)", d, s.timeout)
	}
}
