package core

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

func newSyncWorld(t *testing.T, syncInterval time.Duration, seed int64) *world {
	t.Helper()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 2, ClientDC: -1})
	net := simnet.New(simnet.Options{
		Latency:     cl.LatencyWith(nil),
		JitterFrac:  0.05,
		ServiceTime: 100 * time.Microsecond,
		Seed:        seed,
	})
	cfg := Defaults(ModeMDCC)
	cfg.PendingTimeout = 0
	cfg.SyncInterval = syncInterval
	w := &world{t: t, net: net, cl: cl}
	for _, n := range cl.Storage {
		w.nodes = append(w.nodes, NewStorageNode(n.ID, n.DC, net, cl, cfg, kv.NewMemory()))
	}
	for _, c := range cl.Clients {
		w.coords = append(w.coords, NewCoordinator(c.ID, c.DC, net, cl, cfg))
	}
	return w
}

// A replica that slept through writes converges via anti-entropy
// without any new writes to the stale records.
func TestAntiEntropyCatchUp(t *testing.T) {
	w := newSyncWorld(t, 500*time.Millisecond, 1)
	// Seed records while everyone is healthy.
	for i := 0; i < 10; i++ {
		if !w.commit(0, record.Insert(record.Key(fmt.Sprintf("ae/%02d", i)),
			record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
			t.Fatal("seed insert failed")
		}
	}
	w.settle()

	// Take Tokyo down and write through the outage.
	victim := topology.StorageID(topology.APTokyo, 0)
	w.net.Fail(victim)
	for i := 0; i < 10; i++ {
		key := record.Key(fmt.Sprintf("ae/%02d", i))
		val, ver, _ := w.read(0, key)
		if !w.commit(0, record.Physical(key, ver, val.WithAttr("x", int64(100+i)))).Committed {
			t.Fatalf("outage write %d failed", i)
		}
		w.settle()
	}

	// Recover Tokyo: it missed every visibility. Without anti-entropy
	// it would stay stale until the records are written again.
	w.net.Recover(victim)
	var tokyo *StorageNode
	for _, n := range w.nodes {
		if n.ID() == victim {
			tokyo = n
		}
	}
	deadline := 60 * time.Second
	ok := w.net.RunUntil(func() bool {
		for i := 0; i < 10; i++ {
			v, _, found := tokyo.Store().Get(record.Key(fmt.Sprintf("ae/%02d", i)))
			if !found || v.Attr("x") != int64(100+i) {
				return false
			}
		}
		return true
	}, deadline)
	if !ok {
		for i := 0; i < 10; i++ {
			v, ver, _ := tokyo.Store().Get(record.Key(fmt.Sprintf("ae/%02d", i)))
			t.Logf("ae/%02d at tokyo: %v v%d", i, v, ver)
		}
		t.Fatal("recovered replica never caught up via anti-entropy")
	}
	if tokyo.Metrics().Synced == 0 {
		t.Fatal("catch-up happened but Synced counter is zero")
	}
}

// Anti-entropy must never regress: a fresh replica syncing with a
// stale one keeps its newer state.
func TestAntiEntropyNeverRegresses(t *testing.T) {
	w := newSyncWorld(t, 300*time.Millisecond, 2)
	if !w.commit(0, record.Insert("ae/r", record.Value{Attrs: map[string]int64{"x": 1}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	// Several updates so versions diverge from 1.
	for i := 0; i < 5; i++ {
		val, ver, _ := w.read(0, "ae/r")
		if !w.commit(0, record.Physical("ae/r", ver, val.WithAttr("x", int64(10+i)))).Committed {
			t.Fatalf("update %d failed", i)
		}
		w.settle()
	}
	// Let anti-entropy churn for a long while; all replicas must hold
	// the final value.
	w.net.RunFor(20 * time.Second)
	for i, n := range w.nodes {
		v, ver, _ := n.Store().Get("ae/r")
		if v.Attr("x") != 14 || ver != 6 {
			t.Fatalf("node %d regressed or lagged: %v v%d, want x=14 v6", i, v, ver)
		}
	}
}

// Sync replies are paginated; the cursor walks the whole key space.
func TestAntiEntropyPagination(t *testing.T) {
	w := newSyncWorld(t, 0, 3) // manual stepping, no timer
	node := w.nodes[0]
	for i := 0; i < 300; i++ {
		_ = node.Store().Put(record.Key(fmt.Sprintf("pg/%04d", i)),
			record.Value{Attrs: map[string]int64{"x": int64(i)}}, 1)
	}
	var replies []MsgSyncReply
	w.net.Register("probe", func(e transport.Envelope) {
		if m, ok := e.Msg.(MsgSyncReply); ok {
			replies = append(replies, m)
		}
	})
	cursor := record.Key("")
	for round := 0; round < 10; round++ {
		w.net.Send("probe", node.ID(), MsgSyncReq{ReqID: uint64(round), From: cursor, Limit: 128})
		want := round + 1
		if !w.net.RunUntil(func() bool { return len(replies) == want }, time.Minute) {
			t.Fatal("no sync reply")
		}
		last := replies[len(replies)-1]
		if last.Next == "" {
			break
		}
		cursor = last.Next
	}
	total := 0
	for _, r := range replies {
		total += len(r.Entries)
	}
	if total != 300 {
		t.Fatalf("pagination visited %d entries, want 300", total)
	}
}
