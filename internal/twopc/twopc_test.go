package twopc

import (
	"testing"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
)

type world struct {
	net    *simnet.Net
	cl     *topology.Cluster
	parts  []*Participant
	coords []*Coordinator
}

func newWorld(t *testing.T, clients int, seed int64, cons []record.Constraint) *world {
	t.Helper()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: clients, ClientDC: -1})
	net := simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), JitterFrac: 0.05, Seed: seed})
	w := &world{net: net, cl: cl}
	for _, n := range cl.Storage {
		w.parts = append(w.parts, NewParticipant(n.ID, net, kv.NewMemory(), cons, 10*time.Second))
	}
	for _, c := range cl.Clients {
		w.coords = append(w.coords, NewCoordinator(c.ID, c.DC, net, cl, 3*time.Second))
	}
	return w
}

func (w *world) commit(t *testing.T, ci int, ups ...record.Update) bool {
	t.Helper()
	var res *bool
	w.coords[ci].Commit(ups, func(ok bool) { res = &ok })
	if !w.net.RunUntil(func() bool { return res != nil }, time.Minute) {
		t.Fatal("2PC transaction never settled")
	}
	return *res
}

func TestCommitAppliesEverywhere(t *testing.T) {
	w := newWorld(t, 1, 1, nil)
	if !w.commit(t, 0, record.Insert("k1", record.Value{Attrs: map[string]int64{"x": 5}})) {
		t.Fatal("2PC insert aborted")
	}
	w.net.RunFor(2 * time.Second)
	for i, p := range w.parts {
		v, ver, ok := p.store.Get("k1")
		if !ok || ver != 1 || v.Attr("x") != 5 {
			t.Fatalf("participant %d state = %v v%d %v", i, v, ver, ok)
		}
	}
}

func TestTwoRoundTripLatency(t *testing.T) {
	w := newWorld(t, 1, 2, nil)
	start := w.net.Now()
	if !w.commit(t, 0, record.Insert("k2", record.Value{})) {
		t.Fatal("insert aborted")
	}
	elapsed := w.net.Now().Sub(start)
	// Client 0 in us-west waits for ALL five DCs twice: the farthest
	// is ap-sg at 90ms one-way → ≥ 2 × 180ms = 360ms.
	if elapsed < 340*time.Millisecond {
		t.Fatalf("2PC commit took %v, expected ≥ ~360ms (two full round trips)", elapsed)
	}
}

func TestStaleVreadAborts(t *testing.T) {
	w := newWorld(t, 2, 3, nil)
	if !w.commit(t, 0, record.Insert("k3", record.Value{Attrs: map[string]int64{"x": 1}})) {
		t.Fatal("insert aborted")
	}
	w.net.RunFor(time.Second)
	if !w.commit(t, 1, record.Physical("k3", 1, record.Value{Attrs: map[string]int64{"x": 2}})) {
		t.Fatal("valid update aborted")
	}
	w.net.RunFor(time.Second)
	if w.commit(t, 0, record.Physical("k3", 1, record.Value{Attrs: map[string]int64{"x": 99}})) {
		t.Fatal("stale update committed")
	}
	w.net.RunFor(time.Second)
	v, _, _ := w.parts[0].store.Get("k3")
	if v.Attr("x") != 2 {
		t.Fatalf("value = %d, want 2", v.Attr("x"))
	}
}

func TestAtomicityAcrossRecords(t *testing.T) {
	w := newWorld(t, 1, 4, nil)
	if !w.commit(t, 0,
		record.Insert("a", record.Value{Attrs: map[string]int64{"x": 1}}),
		record.Insert("b", record.Value{Attrs: map[string]int64{"x": 1}}),
	) {
		t.Fatal("setup aborted")
	}
	w.net.RunFor(time.Second)
	if w.commit(t, 0,
		record.Physical("a", 1, record.Value{Attrs: map[string]int64{"x": 2}}),
		record.Physical("b", 42, record.Value{Attrs: map[string]int64{"x": 2}}), // stale
	) {
		t.Fatal("partially-valid transaction committed")
	}
	w.net.RunFor(time.Second)
	for _, p := range w.parts {
		a, _, _ := p.store.Get("a")
		if a.Attr("x") != 1 {
			t.Fatalf("aborted transaction leaked a write: %v", a)
		}
	}
}

func TestConcurrentConflictOneWins(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		w := newWorld(t, 2, 100+seed, nil)
		if !w.commit(t, 0, record.Insert("k4", record.Value{Attrs: map[string]int64{"x": 0}})) {
			t.Fatal("insert aborted")
		}
		w.net.RunFor(time.Second)
		results := 0
		commits := 0
		for i := 0; i < 2; i++ {
			v := int64(i + 10)
			w.coords[i].Commit([]record.Update{
				record.Physical("k4", 1, record.Value{Attrs: map[string]int64{"x": v}}),
			}, func(ok bool) {
				results++
				if ok {
					commits++
				}
			})
		}
		if !w.net.RunUntil(func() bool { return results == 2 }, time.Minute) {
			t.Fatal("racing transactions never settled")
		}
		if commits > 1 {
			t.Fatalf("seed %d: both conflicting 2PC transactions committed", seed)
		}
	}
}

func TestConstraintEnforced(t *testing.T) {
	cons := []record.Constraint{record.MinBound("stock", 0)}
	w := newWorld(t, 1, 5, cons)
	if !w.commit(t, 0, record.Insert("item", record.Value{Attrs: map[string]int64{"stock": 2}})) {
		t.Fatal("insert aborted")
	}
	w.net.RunFor(time.Second)
	if !w.commit(t, 0, record.Commutative("item", map[string]int64{"stock": -2})) {
		t.Fatal("valid decrement aborted")
	}
	w.net.RunFor(time.Second)
	if w.commit(t, 0, record.Commutative("item", map[string]int64{"stock": -1})) {
		t.Fatal("decrement below zero committed")
	}
	w.net.RunFor(time.Second)
	v, _, _ := w.parts[0].store.Get("item")
	if v.Attr("stock") != 0 {
		t.Fatalf("stock = %d, want 0", v.Attr("stock"))
	}
}

func TestDeadDataCenterAborts(t *testing.T) {
	// 2PC needs ALL participants; a dead DC forces a timeout abort —
	// the availability weakness the paper contrasts against.
	w := newWorld(t, 1, 6, nil)
	if !w.commit(t, 0, record.Insert("k5", record.Value{Attrs: map[string]int64{"x": 0}})) {
		t.Fatal("insert aborted")
	}
	w.net.RunFor(time.Second)
	w.net.Fail(topology.StorageID(topology.APTokyo, 0))
	if w.commit(t, 0, record.Physical("k5", 1, record.Value{Attrs: map[string]int64{"x": 1}})) {
		t.Fatal("2PC committed without a participant")
	}
}

func TestLockTimeoutReleases(t *testing.T) {
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 2, ClientDC: -1})
	net := simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), Seed: 7})
	var parts []*Participant
	for _, n := range cl.Storage {
		parts = append(parts, NewParticipant(n.ID, net, kv.NewMemory(), nil, 2*time.Second))
	}
	c0 := NewCoordinator(cl.Clients[0].ID, cl.Clients[0].DC, net, cl, 0) // no prepare timeout
	c1 := NewCoordinator(cl.Clients[1].ID, cl.Clients[1].DC, net, cl, 3*time.Second)

	var setup *bool
	c0.Commit([]record.Update{record.Insert("k6", record.Value{Attrs: map[string]int64{"x": 0}})},
		func(ok bool) { setup = &ok })
	net.RunUntil(func() bool { return setup != nil }, time.Minute)
	net.RunFor(time.Second)

	// Coordinator 0 prepares, then dies before deciding: locks stay.
	// (At 100ms every participant has locked — prepares arrive within
	// ~90ms one-way — but the farthest votes have not returned, so no
	// decision was made.)
	c0.Commit([]record.Update{record.Physical("k6", 1, record.Value{Attrs: map[string]int64{"x": 1}})},
		func(bool) {})
	net.RunFor(100 * time.Millisecond)
	net.Fail(cl.Clients[0].ID)

	// Within the lock window, coordinator 1 is rejected.
	var r1 *bool
	c1.Commit([]record.Update{record.Physical("k6", 1, record.Value{Attrs: map[string]int64{"x": 2}})},
		func(ok bool) { r1 = &ok })
	net.RunUntil(func() bool { return r1 != nil }, time.Minute)
	if *r1 {
		t.Fatal("transaction committed while records were locked")
	}
	// After the lock timeout, writes flow again.
	net.RunFor(3 * time.Second)
	var r2 *bool
	c1.Commit([]record.Update{record.Physical("k6", 1, record.Value{Attrs: map[string]int64{"x": 2}})},
		func(ok bool) { r2 = &ok })
	net.RunUntil(func() bool { return r2 != nil }, time.Minute)
	if !*r2 {
		t.Fatal("locks were never released after coordinator death")
	}
}
