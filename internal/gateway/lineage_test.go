package gateway

import (
	"errors"
	"testing"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/record"
	"mdcc/internal/topology"
)

// A killed gateway surfaces the typed in-process outcome-unknown
// error for every admitted in-flight transaction (its options may be
// proposed and could still commit), ErrClosed for the never-admitted
// backlog, and refuses later submissions.
func TestKillSurfacesOutcomeUnknown(t *testing.T) {
	// A tiny in-flight window forces a backlog so both cohorts exist.
	w := newTestWorld(t, Tuning{MaxInflight: 2, MaxQueue: 64, CoalesceWindow: -1}, nil)
	w.preload("ku/1", record.Value{Attrs: map[string]int64{"x": 0}})

	const n = 6
	errs := make([]error, n)
	got := 0
	for i := 0; i < n; i++ {
		i := i
		w.gw.Commit([]record.Update{record.Commutative("ku/1", map[string]int64{"x": 1})},
			func(ok bool, err error) {
				errs[i] = err
				if ok {
					errs[i] = errors.New("committed after kill")
				}
				got++
			})
	}
	// Kill before the simulator delivers anything: 2 in flight, 4 queued.
	w.gw.Kill()
	if got != n {
		t.Fatalf("kill settled %d of %d ops", got, n)
	}
	unknown, closed := 0, 0
	for _, err := range errs {
		switch {
		case errors.Is(err, ErrOutcomeUnknown):
			unknown++
		case errors.Is(err, ErrClosed):
			closed++
		default:
			t.Fatalf("unexpected settle error: %v", err)
		}
	}
	if unknown != 2 || closed != 4 {
		t.Fatalf("got %d outcome-unknown + %d closed, want 2 + 4", unknown, closed)
	}
	// Post-kill submissions are refused outright.
	var after error
	w.gw.Commit([]record.Update{record.Commutative("ku/1", map[string]int64{"x": 1})},
		func(_ bool, err error) { after = err })
	if !errors.Is(after, ErrClosed) {
		t.Fatalf("post-kill commit error = %v, want ErrClosed", after)
	}
	// Straggling protocol callbacks for the dispatched pair must not
	// re-fire client callbacks (exactly-once via the pending map).
	w.net.RunFor(5 * time.Second)
	if got != n {
		t.Fatalf("late protocol callbacks re-settled ops: %d fires", got)
	}
}

// The headroom-share divisor adapts to observed contention: with the
// acceptor reporting a single contending gateway group, a lone
// gateway may hold the full snapshot headroom slice (divisor 1); a
// report of heavier contention restores one share per data center.
func TestAdaptiveHeadroomShare(t *testing.T) {
	cons := []record.Constraint{record.MinBound("units", 0)}
	w := newTestWorld(t, Tuning{CoalesceWindow: -1}, cons)

	g := w.gw
	mkSnap := func(contenders int) core.EscrowSnap {
		return core.EscrowSnap{
			Valid:   true,
			Version: 1,
			Attrs:   []core.AttrEscrow{{Attr: "units", Base: 1000}},
			// Demarcation low for base 1000, min 0, N=5/QF=4: L=200,
			// headroom 800. One share per DC (5) → slice 160; adaptive with
			// one contender → the full 800.
			Contenders: contenders,
		}
	}
	g.mu.Lock()
	ks := g.ks("ah/1")
	g.foldEscrowLocked(ks, mkSnap(1), g.net.Now())
	fits := func(d int64) bool {
		return g.fitsLocked(ks.esc, record.Commutative("ah/1", map[string]int64{"units": d}))
	}
	if !fits(-500) {
		g.mu.Unlock()
		t.Fatal("lone gateway denied headroom beyond the 1/5 slice")
	}
	if fits(-801) {
		g.mu.Unlock()
		t.Fatal("adaptive share exceeded the snapshot headroom itself")
	}
	// Heavier observed contention (same version, fresh) restores the
	// divisor of five: the slice shrinks back to 800/5 = 160.
	g.foldEscrowLocked(ks, mkSnap(5), g.net.Now())
	if fits(-500) {
		g.mu.Unlock()
		t.Fatal("contended key still granted the lone-gateway slice")
	}
	if !fits(-100) {
		g.mu.Unlock()
		t.Fatal("contended key denied its 1/5 slice")
	}
	g.mu.Unlock()

	// End to end: a real vote-piggybacked snapshot reports this
	// gateway as the only contender, so a second constrained delta
	// merges instead of bypassing (static share would allow it too at
	// this scale; the assertion here is that adaptation never blocks
	// below the static slice).
	w.preload("ah/2", record.Value{Attrs: map[string]int64{"units": 1000}})
	done := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		w.gw.Commit([]record.Update{record.Commutative("ah/2", map[string]int64{"units": -1})},
			func(ok bool, err error) { done <- ok && err == nil })
	}
	okAll := true
	w.net.RunUntil(func() bool { return len(done) == 2 }, time.Minute)
	for i := 0; i < 2; i++ {
		if !<-done {
			okAll = false
		}
	}
	if !okAll {
		t.Fatal("constrained decrements failed under adaptive share")
	}
	if m := w.gw.Metrics(); m.EscrowUpdates == 0 {
		t.Fatal("no escrow snapshots folded — contender plumbing untested")
	}
}

// A gateway killed and rebuilt on the same node ids — what a restarted
// mdcc-server -gateway process does — must mint lanes its dead
// predecessor never wrote with. Acceptors answer a (lane, KeySeq) they
// already settled with the settled decision, forever, so a re-minted
// lane would have the successor's first write per key acknowledged from
// the predecessor's decision and never applied.
func TestRestartedGatewayWritesAreApplied(t *testing.T) {
	w := newTestWorld(t, Tuning{CoalesceWindow: -1}, nil)
	key := record.Key("rg/1")
	w.preload(key, record.Value{Attrs: map[string]int64{"v": 0}})

	// rmw commits one uncontended read-modify-write and returns the
	// version it produced.
	rmw := func() record.Version {
		t.Helper()
		val, ver := w.state(key)
		acked := false
		w.net.At(0, func() {
			w.gw.Commit([]record.Update{record.Physical(key, ver, val.WithAttr("v", val.Attr("v")+1))},
				func(ok bool, err error) { acked = ok && err == nil })
		})
		w.net.RunFor(3 * time.Second)
		if !acked {
			t.Fatalf("uncontended write at version %d not acknowledged", ver)
		}
		return ver + 1
	}
	// Once through the coordinator: its lane's KeySeq 1 on the key is now
	// settled at the acceptors.
	rmw()

	readOnce(w, key, 0)
	if m := w.gw.Metrics(); m.FeedsLive == 0 || m.MaterializedKeys == 0 {
		t.Fatalf("nothing for Kill to drop: %+v", m)
	}

	for _, id := range NodeIDs(topology.USWest, Tuning{}) {
		w.net.Crash(id)
	}
	w.gw.Kill()
	w.net.RunFor(time.Second)
	// The dead incarnation keeps its counters and reports every gauge at
	// rest, so whoever sums incarnations adds it as it is.
	if m := w.gw.Metrics(); m.Commits != 1 || m.Inflight != 0 || m.QueueDepth != 0 ||
		m.TrackedKeys != 0 || m.MinHeadroom != -1 || m.MaterializedKeys != 0 || m.FeedsLive != 0 {
		t.Fatalf("killed gateway's metrics: %+v", m)
	}
	for _, id := range NodeIDs(topology.USWest, Tuning{}) {
		w.net.Recover(id)
	}
	w.gw = New(topology.USWest, w.net, w.cl, w.cfg, Tuning{CoalesceWindow: -1})

	want := rmw()
	if _, got := w.state(key); got != want {
		t.Fatalf("restarted gateway's write was acknowledged but the store is at version %d, want %d", got, want)
	}
}
