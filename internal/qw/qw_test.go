package qw

import (
	"testing"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
)

type world struct {
	net     *simnet.Net
	cl      *topology.Cluster
	nodes   []*StorageNode
	clients []*Client
}

func newWorld(t *testing.T, w int, clients int, seed int64) *world {
	t.Helper()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: clients, ClientDC: -1})
	net := simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), JitterFrac: 0.05, Seed: seed})
	wd := &world{net: net, cl: cl}
	for _, n := range cl.Storage {
		wd.nodes = append(wd.nodes, NewStorageNode(n.ID, net, kv.NewMemory()))
	}
	for _, c := range cl.Clients {
		wd.clients = append(wd.clients, NewClient(c.ID, c.DC, net, cl, w))
	}
	return wd
}

func TestWriteWaitsForQuorum(t *testing.T) {
	w := newWorld(t, 3, 1, 1)
	start := w.net.Now()
	var done bool
	w.clients[0].Commit([]record.Update{
		record.Insert("k1", record.Value{Attrs: map[string]int64{"x": 1}}),
	}, func(ok bool) { done = ok })
	if !w.net.RunUntil(func() bool { return done }, time.Minute) {
		t.Fatal("write never acknowledged")
	}
	// Client 0 is us-west; 3rd ack (self + 2 closest) ≈ RTT to
	// ap-tokyo = 120ms; must be well under the 4th (eu at 170ms).
	elapsed := w.net.Now().Sub(start)
	if elapsed < 100*time.Millisecond || elapsed > 165*time.Millisecond {
		t.Fatalf("QW-3 ack after %v, want ~120-130ms", elapsed)
	}
}

func TestQW4SlowerThanQW3(t *testing.T) {
	run := func(wq int) time.Duration {
		w := newWorld(t, wq, 1, 2)
		start := w.net.Now()
		var done bool
		w.clients[0].Commit([]record.Update{
			record.Insert("k1", record.Value{Attrs: map[string]int64{"x": 1}}),
		}, func(ok bool) { done = ok })
		w.net.RunUntil(func() bool { return done }, time.Minute)
		return w.net.Now().Sub(start)
	}
	if d3, d4 := run(3), run(4); d4 <= d3 {
		t.Fatalf("QW-4 (%v) should wait longer than QW-3 (%v)", d4, d3)
	}
}

func TestEventualConvergenceAndRead(t *testing.T) {
	w := newWorld(t, 3, 2, 3)
	var done bool
	w.clients[0].Commit([]record.Update{
		record.Insert("k2", record.Value{Attrs: map[string]int64{"x": 7}}),
	}, func(bool) { done = true })
	w.net.RunUntil(func() bool { return done }, time.Minute)
	w.net.RunFor(time.Second) // let the slow replicas catch up
	for i, n := range w.nodes {
		v, _, ok := n.store.Get("k2")
		if !ok || v.Attr("x") != 7 {
			t.Fatalf("replica %d did not converge: %v %v", i, v, ok)
		}
	}
	var got record.Value
	var exists, rdone bool
	w.clients[1].Read("k2", func(v record.Value, _ record.Version, ok bool) {
		got, exists, rdone = v, ok, true
	})
	w.net.RunUntil(func() bool { return rdone }, time.Minute)
	if !exists || got.Attr("x") != 7 {
		t.Fatalf("read = %v %v", got, exists)
	}
}

func TestLastWriterWins(t *testing.T) {
	w := newWorld(t, 3, 2, 4)
	var done1 bool
	w.clients[0].Commit([]record.Update{
		record.Insert("k3", record.Value{Attrs: map[string]int64{"x": 1}}),
	}, func(bool) { done1 = true })
	w.net.RunUntil(func() bool { return done1 }, time.Minute)
	w.net.RunFor(time.Second)
	var done2 bool
	w.clients[1].Commit([]record.Update{
		record.Physical("k3", 1, record.Value{Attrs: map[string]int64{"x": 2}}),
	}, func(bool) { done2 = true })
	w.net.RunUntil(func() bool { return done2 }, time.Minute)
	w.net.RunFor(time.Second)
	for i, n := range w.nodes {
		v, _, _ := n.store.Get("k3")
		if v.Attr("x") != 2 {
			t.Fatalf("replica %d kept the older write: %v", i, v)
		}
	}
}

func TestCommutativeApplied(t *testing.T) {
	w := newWorld(t, 4, 2, 5)
	var done bool
	w.clients[0].Commit([]record.Update{
		record.Insert("k4", record.Value{Attrs: map[string]int64{"stock": 10}}),
	}, func(bool) { done = true })
	w.net.RunUntil(func() bool { return done }, time.Minute)
	w.net.RunFor(time.Second)
	results := 0
	for i := 0; i < 2; i++ {
		w.clients[i].Commit([]record.Update{
			record.Commutative("k4", map[string]int64{"stock": -3}),
		}, func(bool) { results++ })
	}
	w.net.RunUntil(func() bool { return results == 2 }, time.Minute)
	w.net.RunFor(time.Second)
	for i, n := range w.nodes {
		v, _, _ := n.store.Get("k4")
		if v.Attr("stock") != 4 {
			t.Fatalf("replica %d stock = %d, want 4", i, v.Attr("stock"))
		}
	}
	if !w.clients[0].SupportsCommutative() {
		t.Fatal("qw should support commutative updates")
	}
}

func TestNoIsolationDocumented(t *testing.T) {
	// Quorum writes provide no write-write conflict detection: two
	// "transactions" writing with the same read version both "commit".
	w := newWorld(t, 3, 2, 6)
	results := 0
	for i := 0; i < 2; i++ {
		v := int64(i + 1)
		w.clients[i].Commit([]record.Update{
			record.Physical("k5", 0, record.Value{Attrs: map[string]int64{"x": v}}),
		}, func(ok bool) {
			if !ok {
				t.Error("qw write reported failure")
			}
			results++
		})
	}
	if !w.net.RunUntil(func() bool { return results == 2 }, time.Minute) {
		t.Fatal("writes never settled")
	}
	// Both committed — the lost-update anomaly MDCC prevents.
}

func TestMultiKeyWrite(t *testing.T) {
	w := newWorld(t, 3, 1, 7)
	var done bool
	w.clients[0].Commit([]record.Update{
		record.Insert("a", record.Value{Attrs: map[string]int64{"x": 1}}),
		record.Insert("b", record.Value{Attrs: map[string]int64{"x": 2}}),
		record.Insert("c", record.Value{Attrs: map[string]int64{"x": 3}}),
	}, func(bool) { done = true })
	if !w.net.RunUntil(func() bool { return done }, time.Minute) {
		t.Fatal("multi-key write never acknowledged")
	}
}
