package mtx

import (
	"testing"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// TestReadAtFloorPartitionedMinority pins the floor rule on the real
// coordinator over simnet: a client cut off with two replicas that lag
// its floor spends exactly the capped number of quorum re-reads and
// reports the miss (met=false) with the best version it could reach;
// after the heal one quorum re-read meets the floor; and an absent key
// with no floor is met without any re-read.
func TestReadAtFloorPartitionedMinority(t *testing.T) {
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: int(topology.APSingapore)})
	net := simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), Seed: 1})
	cfg := core.Defaults(core.ModeMDCC)
	const key = record.Key("floor/k")
	minority := map[topology.DC]bool{topology.APSingapore: true, topology.APTokyo: true}
	var near, far []transport.NodeID
	for _, n := range cl.Storage {
		store := kv.NewMemory()
		ver := record.Version(3)
		if minority[n.DC] {
			ver = 1
			near = append(near, n.ID)
		} else {
			far = append(far, n.ID)
		}
		if err := store.Put(key, record.Value{Attrs: map[string]int64{"v": int64(ver)}}, ver); err != nil {
			t.Fatal(err)
		}
		core.NewStorageNode(n.ID, n.DC, net, cl, cfg, store)
	}
	client := cl.Clients[0]
	co := core.NewCoordinator(client.ID, client.DC, net, cl, cfg)
	net.Partition(append(near, client.ID), far)

	type answer struct {
		ver         record.Version
		exists, met bool
		fired       int
		rereads     int
	}
	read := func(k record.Key, floor record.Version) answer {
		var a answer
		net.At(0, func() {
			ReadAtFloor(
				func(cb ReadFunc) { co.Read(k, cb) },
				func(cb ReadFunc) { a.rereads++; co.ReadQuorum(k, cb) },
				floor,
				func(_ record.Value, ver record.Version, exists, met bool) {
					a.ver, a.exists, a.met = ver, exists, met
					a.fired++
				})
		})
		net.RunFor(time.Minute)
		return a
	}

	if a := read(key, 3); a.fired != 1 || a.met || !a.exists || a.ver != 1 || a.rereads != floorRetries {
		t.Fatalf("partitioned below the floor: %+v, want one unmet answer at v1 after %d re-reads", a, floorRetries)
	}
	if a := read("floor/absent", 0); a.fired != 1 || !a.met || a.exists || a.rereads != 0 {
		t.Fatalf("absent key without a floor: %+v, want met with no re-read", a)
	}
	net.HealAll()
	if a := read(key, 3); a.fired != 1 || !a.met || a.ver != 3 || a.rereads != 1 {
		t.Fatalf("healed: %+v, want the floor met at v3 by one quorum re-read", a)
	}
}

// TestFloorsRaiseRule pins which events move a session's floor: nothing
// before Enable; afterwards a consumed read and an acknowledged physical
// write (to the version it read plus one) raise it and nothing lowers
// it; a commutative delta, whose resulting version is unknown, raises
// nothing.
func TestFloorsRaiseRule(t *testing.T) {
	var f Floors
	f.Read("k", 7)
	f.Committed([]record.Update{record.Physical("k", 7, record.Value{})})
	if got := f.Floor("k"); got != 0 {
		t.Fatalf("floor %d before Enable, want 0", got)
	}
	f.Enable()
	f.Read("k", 3)
	f.Read("k", 2)
	if got := f.Floor("k"); got != 3 {
		t.Fatalf("floor %d after reads at 3 then 2, want 3", got)
	}
	f.Committed([]record.Update{
		record.Physical("k", 3, record.Value{}),
		record.Commutative("d", map[string]int64{"x": 1}),
	})
	if k, d := f.Floor("k"), f.Floor("d"); k != 4 || d != 0 {
		t.Fatalf("floors after commit: k=%d d=%d, want 4 and 0", k, d)
	}
}
