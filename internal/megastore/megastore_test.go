package megastore

import (
	"fmt"
	"testing"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

type world struct {
	net      *simnet.Net
	cl       *topology.Cluster
	replicas []*Replica
	master   *Master
	clients  []*Client
}

func newWorld(t *testing.T, clients int, clientDC int, seed int64) *world {
	t.Helper()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: clients, ClientDC: clientDC})
	extra := make(map[transport.NodeID]topology.DC)
	for _, dc := range topology.AllDCs() {
		extra[ReplicaIDFor(dc)] = dc
	}
	net := simnet.New(simnet.Options{Latency: cl.LatencyWith(extra), JitterFrac: 0.05, Seed: seed})
	w := &world{net: net, cl: cl}
	var west *Replica
	for _, dc := range topology.AllDCs() {
		r := NewReplica(ReplicaIDFor(dc), net, kv.NewMemory())
		w.replicas = append(w.replicas, r)
		if dc == topology.USWest {
			west = r
		}
	}
	w.master = NewMaster(net, cl, west)
	for _, c := range cl.Clients {
		w.clients = append(w.clients, NewClient(c.ID, c.DC, net))
	}
	return w
}

func (w *world) commit(t *testing.T, ci int, ups ...record.Update) bool {
	t.Helper()
	var res *bool
	w.clients[ci].Commit(ups, func(ok bool) { res = &ok })
	if !w.net.RunUntil(func() bool { return res != nil }, time.Minute) {
		t.Fatal("megastore transaction never settled")
	}
	return *res
}

func TestCommitReplicatesInOrder(t *testing.T) {
	w := newWorld(t, 1, int(topology.USWest), 1)
	for i := 0; i < 5; i++ {
		if !w.commit(t, 0, record.Insert(record.Key(fmt.Sprintf("k%d", i)),
			record.Value{Attrs: map[string]int64{"x": int64(i)}})) {
			t.Fatalf("insert %d aborted", i)
		}
	}
	w.net.RunFor(2 * time.Second)
	for ri, r := range w.replicas {
		for i := 0; i < 5; i++ {
			v, _, ok := r.store.Get(record.Key(fmt.Sprintf("k%d", i)))
			if !ok || v.Attr("x") != int64(i) {
				t.Fatalf("replica %d missing k%d", ri, i)
			}
		}
	}
}

func TestLocalMasterSingleRoundTrip(t *testing.T) {
	// Clients and master in us-west: a commit is one Paxos round
	// from us-west (majority: self + 2 closest ≈ RTT to ap-tk 120ms).
	w := newWorld(t, 1, int(topology.USWest), 2)
	start := w.net.Now()
	if !w.commit(t, 0, record.Insert("k", record.Value{})) {
		t.Fatal("insert aborted")
	}
	elapsed := w.net.Now().Sub(start)
	if elapsed < 100*time.Millisecond || elapsed > 200*time.Millisecond {
		t.Fatalf("local-master commit took %v, want ~120-130ms", elapsed)
	}
}

func TestSerializationQueueing(t *testing.T) {
	// 10 simultaneous transactions serialize through one log: the
	// last should wait roughly 10 positions ≈ 10×120ms.
	w := newWorld(t, 10, int(topology.USWest), 3)
	start := w.net.Now()
	var finishTimes []time.Duration
	for i := 0; i < 10; i++ {
		w.clients[i].Commit([]record.Update{
			record.Insert(record.Key(fmt.Sprintf("q%d", i)), record.Value{}),
		}, func(ok bool) {
			finishTimes = append(finishTimes, w.net.Now().Sub(start))
		})
	}
	if !w.net.RunUntil(func() bool { return len(finishTimes) == 10 }, 2*time.Minute) {
		t.Fatal("queued transactions never settled")
	}
	last := finishTimes[len(finishTimes)-1]
	if last < 900*time.Millisecond {
		t.Fatalf("10 serialized txs finished in %v — the log position queue is not serializing", last)
	}
}

func TestConflictAborts(t *testing.T) {
	w := newWorld(t, 2, int(topology.USWest), 4)
	if !w.commit(t, 0, record.Insert("c", record.Value{Attrs: map[string]int64{"x": 0}})) {
		t.Fatal("insert aborted")
	}
	w.net.RunFor(time.Second)
	results, commits := 0, 0
	for i := 0; i < 2; i++ {
		v := int64(i + 1)
		w.clients[i].Commit([]record.Update{
			record.Physical("c", 1, record.Value{Attrs: map[string]int64{"x": v}}),
		}, func(ok bool) {
			results++
			if ok {
				commits++
			}
		})
	}
	if !w.net.RunUntil(func() bool { return results == 2 }, time.Minute) {
		t.Fatal("transactions never settled")
	}
	if commits != 1 {
		t.Fatalf("conflicting megastore txs: %d commits, want 1", commits)
	}
}

func TestRemoteClientPaysMasterTrip(t *testing.T) {
	// A Singapore client must cross to the us-west master and back on
	// top of the Paxos round.
	w := newWorld(t, 1, int(topology.APSingapore), 5)
	start := w.net.Now()
	if !w.commit(t, 0, record.Insert("r", record.Value{})) {
		t.Fatal("insert aborted")
	}
	elapsed := w.net.Now().Sub(start)
	// ≈ RTT(sg,west) 180ms + paxos ~120ms.
	if elapsed < 280*time.Millisecond {
		t.Fatalf("remote commit took %v, want ≥ ~300ms (master trip + Paxos)", elapsed)
	}
}

func TestLocalReads(t *testing.T) {
	w := newWorld(t, 2, -1, 6)
	if !w.commit(t, 0, record.Insert("rd", record.Value{Attrs: map[string]int64{"x": 3}})) {
		t.Fatal("insert aborted")
	}
	w.net.RunFor(2 * time.Second)
	var got *record.Value
	w.clients[1].Read("rd", func(v record.Value, _ record.Version, ok bool) {
		if ok {
			got = &v
		}
	})
	w.net.RunUntil(func() bool { return got != nil }, time.Minute)
	if got.Attr("x") != 3 {
		t.Fatalf("read = %v", got)
	}
}
