package core

import (
	"bytes"
	"testing"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// world wires a full 5-DC cluster plus coordinators onto the
// discrete-event simulator.
type world struct {
	t      *testing.T
	net    *simnet.Net
	cl     *topology.Cluster
	nodes  []*StorageNode
	coords []*Coordinator
}

func newWorld(t *testing.T, cfg Config, nodesPerDC, clients int, seed int64) *world {
	t.Helper()
	return newWorldOn(t, cfg, topology.Layout{NodesPerDC: nodesPerDC, Clients: clients, ClientDC: -1}, seed)
}

// newWorldOn is newWorld for any cluster layout.
func newWorldOn(t *testing.T, cfg Config, layout topology.Layout, seed int64) *world {
	t.Helper()
	cl := topology.NewCluster(layout)
	net := simnet.New(simnet.Options{
		Latency:     cl.LatencyWith(nil),
		JitterFrac:  0.05,
		ServiceTime: 100 * time.Microsecond,
		Seed:        seed,
	})
	w := &world{t: t, net: net, cl: cl}
	for _, n := range cl.Storage {
		w.nodes = append(w.nodes, NewStorageNode(n.ID, n.DC, net, cl, cfg, kv.NewMemory()))
	}
	for _, c := range cl.Clients {
		w.coords = append(w.coords, NewCoordinator(c.ID, c.DC, net, cl, cfg))
	}
	return w
}

// commit runs one transaction from coordinator ci and returns the
// result once the simulator settles it.
func (w *world) commit(ci int, updates ...record.Update) CommitResult {
	w.t.Helper()
	var res *CommitResult
	w.coords[ci].Commit(updates, func(r CommitResult) { res = &r })
	if !w.net.RunUntil(func() bool { return res != nil }, time.Minute) {
		w.t.Fatal("commit did not settle within a simulated minute")
	}
	return *res
}

// commitAsync launches a transaction without waiting.
func (w *world) commitAsync(ci int, out *[]CommitResult, updates ...record.Update) {
	w.coords[ci].Commit(updates, func(r CommitResult) { *out = append(*out, r) })
}

// read performs a blocking read from coordinator ci.
func (w *world) read(ci int, key record.Key) (record.Value, record.Version, bool) {
	w.t.Helper()
	var val record.Value
	var ver record.Version
	var exists, done bool
	w.coords[ci].Read(key, func(v record.Value, vr record.Version, ex bool) {
		val, ver, exists, done = v, vr, ex, true
	})
	if !w.net.RunUntil(func() bool { return done }, time.Minute) {
		w.t.Fatal("read did not settle")
	}
	return val, ver, exists
}

// settle runs the network until in-flight visibility lands.
func (w *world) settle() { w.net.RunFor(3 * time.Second) }

// storedValues returns the committed (value, version) at every
// replica of key.
func (w *world) storedValues(key record.Key) []kv.Entry {
	var out []kv.Entry
	for _, n := range w.nodes {
		for _, rep := range w.cl.Replicas(key) {
			if n.ID() == rep {
				v, ver, _ := n.Store().GetEncoded(key)
				out = append(out, kv.Entry{Key: key, Value: v, Version: ver})
			}
		}
	}
	return out
}

// node returns the storage node id.
func (w *world) node(id transport.NodeID) *StorageNode {
	w.t.Helper()
	for _, n := range w.nodes {
		if n.ID() == id {
			return n
		}
	}
	w.t.Fatalf("no storage node %s", id)
	return nil
}

func cfgNoSweep(mode Mode) Config {
	cfg := Defaults(mode)
	cfg.PendingTimeout = 0 // most tests do not want background sweeps
	return cfg
}

func TestFastPathSingleUpdateCommit(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 1)
	res := w.commit(0, record.Insert("item/1", record.Value{Attrs: map[string]int64{"stock": 10}}))
	if !res.Committed {
		t.Fatal("insert did not commit")
	}
	w.settle()
	for _, e := range w.storedValues("item/1") {
		if e.Version != 1 || e.Value.Decode().Attr("stock") != 10 {
			t.Fatalf("replica state = %v v%d, want stock=10 v1", e.Value, e.Version)
		}
	}
	m := w.coords[0].Metrics()
	if m.Commits != 1 || m.FastLearns != 1 || m.Recoveries != 0 {
		t.Fatalf("metrics = %+v, want one fast-learned commit", m)
	}
}

func TestFastPathOneRoundTripLatency(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 2)
	// Client 0 is in us-west. The 4th-closest DC from us-west is
	// eu-ie at 85ms one-way, so a fast commit should take ~170ms —
	// and certainly well under two wide-area round trips (>=340ms).
	start := w.net.Now()
	res := w.commit(0, record.Insert("item/lat", record.Value{}))
	elapsed := w.net.Now().Sub(start)
	if !res.Committed {
		t.Fatal("commit failed")
	}
	if elapsed < 150*time.Millisecond || elapsed > 250*time.Millisecond {
		t.Fatalf("fast commit took %v, want ~170-190ms (one round trip to fast quorum)", elapsed)
	}
}

func TestInsertThenUpdateThenRead(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 3)
	if !w.commit(0, record.Insert("item/2", record.Value{Attrs: map[string]int64{"stock": 5}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	val, ver, ok := w.read(0, "item/2")
	if !ok || ver != 1 || val.Attr("stock") != 5 {
		t.Fatalf("read after insert = %v v%d %v", val, ver, ok)
	}
	if !w.commit(0, record.Physical("item/2", ver, val.WithAttr("stock", 7))).Committed {
		t.Fatal("update failed")
	}
	w.settle()
	val, ver, ok = w.read(0, "item/2")
	if !ok || ver != 2 || val.Attr("stock") != 7 {
		t.Fatalf("read after update = %v v%d %v", val, ver, ok)
	}
}

func TestStaleReadVersionRejected(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 2, 4)
	if !w.commit(0, record.Insert("item/3", record.Value{Attrs: map[string]int64{"x": 1}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	// Writer 1 updates v1 -> v2.
	if !w.commit(1, record.Physical("item/3", 1, record.Value{Attrs: map[string]int64{"x": 2}})).Committed {
		t.Fatal("first update failed")
	}
	w.settle()
	// Writer 0 still believes version 1: must abort (no lost update).
	if w.commit(0, record.Physical("item/3", 1, record.Value{Attrs: map[string]int64{"x": 99}})).Committed {
		t.Fatal("stale write committed — lost update")
	}
	w.settle()
	val, _, _ := w.read(0, "item/3")
	if val.Attr("x") != 2 {
		t.Fatalf("value = %d, want 2 (stale write must not apply)", val.Attr("x"))
	}
}

func TestConcurrentConflictAtMostOneCommits(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 2, 100+seed)
		if !w.commit(0, record.Insert("item/c", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
			t.Fatal("insert failed")
		}
		w.settle()
		var results []CommitResult
		// Both writers read version 1 and race.
		w.commitAsync(0, &results, record.Physical("item/c", 1, record.Value{Attrs: map[string]int64{"x": 10}}))
		w.commitAsync(1, &results, record.Physical("item/c", 1, record.Value{Attrs: map[string]int64{"x": 20}}))
		if !w.net.RunUntil(func() bool { return len(results) == 2 }, time.Minute) {
			t.Fatalf("seed %d: racing transactions did not both settle", seed)
		}
		commits := 0
		for _, r := range results {
			if r.Committed {
				commits++
			}
		}
		if commits > 1 {
			t.Fatalf("seed %d: both conflicting writers committed", seed)
		}
		w.settle()
		// All replicas agree on one final state.
		vals := w.storedValues("item/c")
		for _, e := range vals[1:] {
			if !bytes.Equal(e.Value, vals[0].Value) || e.Version != vals[0].Version {
				t.Fatalf("seed %d: replica divergence: %v v%d vs %v v%d",
					seed, vals[0].Value, vals[0].Version, e.Value, e.Version)
			}
		}
	}
}

func TestMultiRecordAtomicity(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 2, 2, 5)
	if !w.commit(0,
		record.Insert("acct/a", record.Value{Attrs: map[string]int64{"bal": 100}}),
		record.Insert("acct/b", record.Value{Attrs: map[string]int64{"bal": 100}}),
	).Committed {
		t.Fatal("setup failed")
	}
	w.settle()
	// A transaction with one valid and one stale update must abort
	// entirely: the valid update must not apply.
	res := w.commit(0,
		record.Physical("acct/a", 1, record.Value{Attrs: map[string]int64{"bal": 50}}),
		record.Physical("acct/b", 99, record.Value{Attrs: map[string]int64{"bal": 150}}), // stale vread
	)
	if res.Committed {
		t.Fatal("transaction with a rejected option committed")
	}
	w.settle()
	a, _, _ := w.read(0, "acct/a")
	b, _, _ := w.read(0, "acct/b")
	if a.Attr("bal") != 100 || b.Attr("bal") != 100 {
		t.Fatalf("atomicity violated: a=%d b=%d, want 100/100", a.Attr("bal"), b.Attr("bal"))
	}
}

func TestReadCommittedNeverSeesPending(t *testing.T) {
	cfg := cfgNoSweep(ModeMDCC)
	w := newWorld(t, cfg, 1, 2, 6)
	if !w.commit(0, record.Insert("item/rc", record.Value{Attrs: map[string]int64{"x": 1}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	// Start an update and probe a read mid-flight: it must return the
	// old committed value, never the option's payload.
	var results []CommitResult
	w.commitAsync(0, &results, record.Physical("item/rc", 1, record.Value{Attrs: map[string]int64{"x": 2}}))
	w.net.RunFor(40 * time.Millisecond) // proposals in flight, nothing learned yet
	val, _, ok := w.read(1, "item/rc")
	if !ok || (val.Attr("x") != 1 && val.Attr("x") != 2) {
		t.Fatalf("read mid-commit = %v %v", val, ok)
	}
	if val.Attr("x") == 2 {
		// Only allowed if the commit already became visible at the
		// replica serving the read — 40ms is too short for a learn
		// plus visibility round trip from us-west to anywhere.
		t.Fatal("read returned uncommitted option payload")
	}
	if !w.net.RunUntil(func() bool { return len(results) == 1 }, time.Minute) {
		t.Fatal("commit did not settle")
	}
}

func TestCommutativeDecrementsCommute(t *testing.T) {
	cfg := cfgNoSweep(ModeMDCC)
	cfg.Constraints = []record.Constraint{record.MinBound("stock", 0)}
	w := newWorld(t, cfg, 1, 5, 7)
	if !w.commit(0, record.Insert("item/s", record.Value{Attrs: map[string]int64{"stock": 100}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	// Five concurrent decrements from five DCs: all commute, all
	// should commit without collisions.
	var results []CommitResult
	for ci := 0; ci < 5; ci++ {
		w.commitAsync(ci, &results, record.Commutative("item/s", map[string]int64{"stock": -2}))
	}
	if !w.net.RunUntil(func() bool { return len(results) == 5 }, time.Minute) {
		t.Fatal("decrements did not settle")
	}
	for _, r := range results {
		if !r.Committed {
			t.Fatalf("commutative decrement aborted: %+v", r)
		}
	}
	w.settle()
	val, _, _ := w.read(0, "item/s")
	if val.Attr("stock") != 90 {
		t.Fatalf("stock = %d, want 90", val.Attr("stock"))
	}
	// No collisions should have been triggered.
	for _, c := range w.coords {
		if m := c.Metrics(); m.Collisions != 0 {
			t.Fatalf("commutative workload caused collisions: %+v", m)
		}
	}
}

func TestConstraintNeverViolated(t *testing.T) {
	cfg := cfgNoSweep(ModeMDCC)
	cfg.Constraints = []record.Constraint{record.MinBound("stock", 0)}
	w := newWorld(t, cfg, 1, 5, 8)
	if !w.commit(0, record.Insert("item/t", record.Value{Attrs: map[string]int64{"stock": 4}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	// 10 concurrent decrements of 1 against stock 4: at most 4 may
	// commit, and stock must never go negative.
	var results []CommitResult
	for i := 0; i < 10; i++ {
		w.commitAsync(i%5, &results, record.Commutative("item/t", map[string]int64{"stock": -1}))
	}
	if !w.net.RunUntil(func() bool { return len(results) == 10 }, 2*time.Minute) {
		t.Fatalf("decrements did not settle (%d done)", len(results))
	}
	commits := 0
	for _, r := range results {
		if r.Committed {
			commits++
		}
	}
	if commits > 4 {
		t.Fatalf("%d decrements committed against stock 4", commits)
	}
	w.settle()
	w.settle()
	for _, e := range w.storedValues("item/t") {
		if e.Value.Decode().Attr("stock") < 0 {
			t.Fatalf("constraint violated at a replica: stock=%d", e.Value.Decode().Attr("stock"))
		}
	}
	val, _, _ := w.read(0, "item/t")
	if got := val.Attr("stock"); got != 4-int64(commits) {
		t.Fatalf("final stock %d inconsistent with %d commits", got, commits)
	}
}

func TestMultiModeCommit(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMulti), 1, 2, 9)
	res := w.commit(0, record.Insert("item/m", record.Value{Attrs: map[string]int64{"x": 1}}))
	if !res.Committed {
		t.Fatal("multi-mode insert failed")
	}
	w.settle()
	val, ver, ok := w.read(1, "item/m")
	if !ok || ver != 1 || val.Attr("x") != 1 {
		t.Fatalf("multi-mode read = %v v%d %v", val, ver, ok)
	}
	m := w.coords[0].Metrics()
	if m.LeaderLearns != 1 || m.FastLearns != 0 {
		t.Fatalf("multi mode should learn via leader: %+v", m)
	}
}

func TestMultiModeConflictAborts(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMulti), 1, 2, 10)
	if !w.commit(0, record.Insert("item/mc", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	var results []CommitResult
	w.commitAsync(0, &results, record.Physical("item/mc", 1, record.Value{Attrs: map[string]int64{"x": 1}}))
	w.commitAsync(1, &results, record.Physical("item/mc", 1, record.Value{Attrs: map[string]int64{"x": 2}}))
	if !w.net.RunUntil(func() bool { return len(results) == 2 }, time.Minute) {
		t.Fatal("conflicting multi-mode txs did not settle")
	}
	commits := 0
	for _, r := range results {
		if r.Committed {
			commits++
		}
	}
	if commits != 1 {
		t.Fatalf("multi-mode conflict: %d commits, want exactly 1", commits)
	}
}

func TestDeadlockAvoidance(t *testing.T) {
	// Two transactions write the same two records in opposite order.
	// Without the reject-on-pending policy they could deadlock; with
	// it, both settle and at most one commits.
	for seed := int64(0); seed < 5; seed++ {
		w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 2, 200+seed)
		if !w.commit(0,
			record.Insert("dl/a", record.Value{Attrs: map[string]int64{"x": 0}}),
			record.Insert("dl/b", record.Value{Attrs: map[string]int64{"x": 0}}),
		).Committed {
			t.Fatal("setup failed")
		}
		w.settle()
		var results []CommitResult
		w.commitAsync(0, &results,
			record.Physical("dl/a", 1, record.Value{Attrs: map[string]int64{"x": 1}}),
			record.Physical("dl/b", 1, record.Value{Attrs: map[string]int64{"x": 1}}),
		)
		w.commitAsync(1, &results,
			record.Physical("dl/b", 1, record.Value{Attrs: map[string]int64{"x": 2}}),
			record.Physical("dl/a", 1, record.Value{Attrs: map[string]int64{"x": 2}}),
		)
		if !w.net.RunUntil(func() bool { return len(results) == 2 }, 2*time.Minute) {
			t.Fatalf("seed %d: deadlock — transactions never settled", seed)
		}
		commits := 0
		for _, r := range results {
			if r.Committed {
				commits++
			}
		}
		if commits > 1 {
			t.Fatalf("seed %d: both deadlocking transactions committed", seed)
		}
		w.settle()
		a, _, _ := w.read(0, "dl/a")
		b, _, _ := w.read(0, "dl/b")
		if a.Attr("x") != b.Attr("x") {
			t.Fatalf("seed %d: atomicity violated across records: a=%d b=%d", seed, a.Attr("x"), b.Attr("x"))
		}
	}
}

func TestDataCenterFailureFastPath(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 11)
	if !w.commit(0, record.Insert("item/f", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	// Kill us-east entirely.
	w.net.Fail(topology.StorageID(topology.USEast, 0))
	// A fast commit needs 4 of 5 — exactly the survivors.
	res := w.commit(0, record.Physical("item/f", 1, record.Value{Attrs: map[string]int64{"x": 1}}))
	if !res.Committed {
		t.Fatal("commit failed with one DC down")
	}
	w.settle()
	val, _, _ := w.read(0, "item/f")
	if val.Attr("x") != 1 {
		t.Fatalf("value after failover commit = %d", val.Attr("x"))
	}
}

func TestDataCenterFailureClassicFallback(t *testing.T) {
	// With TWO DCs down a fast quorum (4) is impossible, but a
	// classic quorum (3) still is: recovery must drive commits.
	cfg := cfgNoSweep(ModeMDCC)
	cfg.OptionTimeout = 400 * time.Millisecond
	w := newWorld(t, cfg, 1, 1, 12)
	if !w.commit(0, record.Insert("item/g", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	w.net.Fail(topology.StorageID(topology.APSingapore, 0))
	w.net.Fail(topology.StorageID(topology.APTokyo, 0))
	res := w.commit(0, record.Physical("item/g", 1, record.Value{Attrs: map[string]int64{"x": 1}}))
	if !res.Committed {
		t.Fatal("classic fallback did not commit with 3 of 5 DCs alive")
	}
	m := w.coords[0].Metrics()
	if m.Recoveries == 0 {
		t.Fatalf("expected recovery to drive the commit: %+v", m)
	}
}

func TestCollisionRecoveryResolvesMixedVotes(t *testing.T) {
	// Two physical updates racing with the same vread produce mixed
	// votes at the acceptors; whichever cannot reach a fast quorum
	// must be settled by the master via a classic ballot.
	settled := 0
	for seed := int64(0); seed < 8; seed++ {
		w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 5, 300+seed)
		if !w.commit(0, record.Insert("item/x", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
			t.Fatal("insert failed")
		}
		w.settle()
		var results []CommitResult
		for ci := 0; ci < 5; ci++ {
			w.commitAsync(ci, &results, record.Physical("item/x", 1,
				record.Value{Attrs: map[string]int64{"x": int64(ci + 1)}}))
		}
		if !w.net.RunUntil(func() bool { return len(results) == 5 }, 2*time.Minute) {
			t.Fatalf("seed %d: racing writers never settled (%d/5)", seed, len(results))
		}
		commits := 0
		for _, r := range results {
			if r.Committed {
				commits++
			}
		}
		if commits > 1 {
			t.Fatalf("seed %d: %d of 5 racing writers committed", seed, commits)
		}
		settled++
		w.settle()
		vals := w.storedValues("item/x")
		for _, e := range vals[1:] {
			if !bytes.Equal(e.Value, vals[0].Value) {
				t.Fatalf("seed %d: replica divergence after recovery", seed)
			}
		}
	}
	if settled != 8 {
		t.Fatalf("only %d/8 seeds settled", settled)
	}
}

func TestGammaClassicWindowThenFastAgain(t *testing.T) {
	cfg := cfgNoSweep(ModeMDCC)
	cfg.Gamma = 2 // tiny window so the test can cross it
	w := newWorld(t, cfg, 1, 2, 13)
	if !w.commit(0, record.Insert("item/y", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	// Force a collision.
	var results []CommitResult
	w.commitAsync(0, &results, record.Physical("item/y", 1, record.Value{Attrs: map[string]int64{"x": 1}}))
	w.commitAsync(1, &results, record.Physical("item/y", 1, record.Value{Attrs: map[string]int64{"x": 2}}))
	if !w.net.RunUntil(func() bool { return len(results) == 2 }, time.Minute) {
		t.Fatal("collision did not settle")
	}
	w.settle()
	// Drive sequential updates to burn through the classic window.
	for i := 0; i < 4; i++ {
		val, ver, _ := w.read(0, "item/y")
		res := w.commit(0, record.Physical("item/y", ver, val.WithAttr("x", int64(10+i))))
		if !res.Committed {
			t.Fatalf("sequential update %d aborted", i)
		}
		w.settle()
	}
	// After γ learned instances the record must be fast again:
	// a fresh commit should fast-learn without leader involvement.
	before := w.coords[0].Metrics().FastLearns
	val, ver, _ := w.read(0, "item/y")
	if !w.commit(0, record.Physical("item/y", ver, val.WithAttr("x", 99))).Committed {
		t.Fatal("post-window update aborted")
	}
	if w.coords[0].Metrics().FastLearns <= before {
		t.Fatal("record did not return to fast ballots after the γ window")
	}
}

func TestDanglingTransactionRecovery(t *testing.T) {
	// A coordinator proposes and its options are accepted, but it
	// dies before sending visibility. The storage-node sweep must
	// finish the transaction.
	cfg := Defaults(ModeMDCC)
	cfg.PendingTimeout = 2 * time.Second
	w := newWorld(t, cfg, 1, 2, 14)
	if !w.commit(0,
		record.Insert("dang/a", record.Value{Attrs: map[string]int64{"x": 0}}),
		record.Insert("dang/b", record.Value{Attrs: map[string]int64{"x": 0}}),
	).Committed {
		t.Fatal("setup failed")
	}
	w.settle()
	// Coordinator 1 proposes, then we kill it the moment it learns
	// (before visibility goes out we fail its node: visibility sends
	// are dropped by the simulator for failed senders).
	victim := w.coords[1]
	victimID := victim.ID()
	done := false
	victim.Commit([]record.Update{
		record.Physical("dang/a", 1, record.Value{Attrs: map[string]int64{"x": 7}}),
		record.Physical("dang/b", 1, record.Value{Attrs: map[string]int64{"x": 7}}),
	}, func(r CommitResult) {
		done = true
		w.net.Fail(victimID)
	})
	// The failure fires inside the callback — before finish() sends
	// visibility? No: finish sends visibility then calls done. So
	// instead kill the client while proposals are still in flight.
	w.net.RunFor(30 * time.Millisecond)
	w.net.Fail(victimID)
	w.net.RunFor(30 * time.Second) // let votes land, sweep fire, recovery run
	_ = done
	// All replicas must converge: either both records updated (tx
	// recovered as committed) or neither (recovered as aborted), and
	// no record may keep an outstanding option forever.
	a := w.storedValues("dang/a")
	b := w.storedValues("dang/b")
	for _, e := range a[1:] {
		if !bytes.Equal(e.Value, a[0].Value) {
			t.Fatalf("dang/a replicas diverged")
		}
	}
	for _, e := range b[1:] {
		if !bytes.Equal(e.Value, b[0].Value) {
			t.Fatalf("dang/b replicas diverged")
		}
	}
	if a[0].Value.Decode().Attr("x") != b[0].Value.Decode().Attr("x") {
		t.Fatalf("atomicity violated by recovery: a=%d b=%d", a[0].Value.Decode().Attr("x"), b[0].Value.Decode().Attr("x"))
	}
	// And the records must be writable again by a live coordinator.
	val, ver, _ := w.read(0, "dang/a")
	if !w.commit(0, record.Physical("dang/a", ver, val.WithAttr("x", 42))).Committed {
		t.Fatal("record still blocked after dangling-tx recovery")
	}
}

func TestEmptyTransactionCommits(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 15)
	if !w.commit(0).Committed {
		t.Fatal("empty transaction should trivially commit")
	}
}

func TestDeterministicOutcomes(t *testing.T) {
	run := func() (int64, int64) {
		w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 5, 77)
		w.commit(0, record.Insert("d/1", record.Value{Attrs: map[string]int64{"x": 0}}))
		w.settle()
		var results []CommitResult
		for ci := 0; ci < 5; ci++ {
			w.commitAsync(ci, &results, record.Physical("d/1", 1,
				record.Value{Attrs: map[string]int64{"x": int64(ci)}}))
		}
		w.net.RunUntil(func() bool { return len(results) == 5 }, time.Minute)
		var commits, aborts int64
		for _, c := range w.coords {
			m := c.Metrics()
			commits += m.Commits
			aborts += m.Aborts
		}
		return commits, aborts
	}
	c1, a1 := run()
	c2, a2 := run()
	if c1 != c2 || a1 != a2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", c1, a1, c2, a2)
	}
}
