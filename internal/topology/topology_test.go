package topology

import (
	"testing"
	"time"

	"mdcc/internal/paxos"
	"mdcc/internal/record"
)

func TestDCNames(t *testing.T) {
	names := map[DC]string{
		USWest: "us-west", USEast: "us-east", EUIreland: "eu-ie",
		APSingapore: "ap-sg", APTokyo: "ap-tk",
	}
	for dc, want := range names {
		if dc.String() != want {
			t.Errorf("%d.String() = %q, want %q", dc, dc.String(), want)
		}
	}
	if DC(99).String() != "dc99" {
		t.Errorf("unknown DC String = %q", DC(99).String())
	}
	if len(AllDCs()) != 5 {
		t.Fatalf("AllDCs = %d entries, want 5", len(AllDCs()))
	}
}

func TestLatencyMatrixSymmetricPositive(t *testing.T) {
	for _, a := range AllDCs() {
		for _, b := range AllDCs() {
			d := OneWay(a, b)
			if d <= 0 {
				t.Fatalf("OneWay(%v,%v) = %v, want > 0", a, b, d)
			}
			if OneWay(a, b) != OneWay(b, a) {
				t.Fatalf("matrix asymmetric for %v,%v", a, b)
			}
			if a == b && d > time.Millisecond {
				t.Fatalf("intra-DC latency %v too large", d)
			}
			if a != b && d < 10*time.Millisecond {
				t.Fatalf("inter-DC latency %v suspiciously small", d)
			}
		}
	}
	if RTT(USWest, USEast) != 2*OneWay(USWest, USEast) {
		t.Fatal("RTT != 2x one-way")
	}
}

// TestQuorums pins ⌊n/2⌋+1 and ⌈3n/4⌉ for both entry points to the
// one formula (paxos.NewQuorum, which Quorums returns).
func TestQuorums(t *testing.T) {
	cases := []struct{ n, classic, fast int }{
		{1, 1, 1},
		{2, 2, 2},
		{3, 2, 3},
		{4, 3, 3},
		{5, 3, 4},
		{6, 4, 5},
		{7, 4, 6},
		{8, 5, 6},
		{9, 5, 7},
	}
	for _, c := range cases {
		if cl, fa := Quorums(c.n); cl != c.classic || fa != c.fast {
			t.Errorf("Quorums(%d) = %d,%d want %d,%d", c.n, cl, fa, c.classic, c.fast)
		}
		if q := paxos.NewQuorum(c.n); q.N != c.n || q.Classic != c.classic || q.Fast != c.fast {
			t.Errorf("paxos.NewQuorum(%d) = %+v want classic %d fast %d", c.n, q, c.classic, c.fast)
		}
	}
}

// Fast Paxos quorum requirement: any two fast quorums and one classic
// quorum must intersect: 2*fast + classic > 2*n.
func TestQuorumIntersection(t *testing.T) {
	for n := 3; n <= 15; n++ {
		cl, fa := Quorums(n)
		if cl+fa <= n {
			t.Errorf("n=%d: classic+fast = %d <= n, quorums may not intersect", n, cl+fa)
		}
		if 2*fa+cl <= 2*n {
			t.Errorf("n=%d: 2*fast+classic = %d <= 2n, fast quorum rule violated", n, 2*fa+cl)
		}
	}
}

func TestClusterLayout(t *testing.T) {
	c := NewCluster(Layout{NodesPerDC: 4, Clients: 10, ClientDC: -1})
	if len(c.Storage) != 20 {
		t.Fatalf("storage nodes = %d, want 20", len(c.Storage))
	}
	if len(c.Clients) != 10 {
		t.Fatalf("clients = %d, want 10", len(c.Clients))
	}
	if c.ReplicationFactor() != 5 {
		t.Fatalf("replication = %d, want 5", c.ReplicationFactor())
	}
	// Clients spread round-robin across DCs.
	seen := map[DC]int{}
	for _, n := range c.Clients {
		seen[n.DC]++
	}
	if len(seen) != 5 {
		t.Fatalf("geo-distributed clients cover %d DCs, want 5", len(seen))
	}
}

func TestClusterPinnedClients(t *testing.T) {
	c := NewCluster(Layout{NodesPerDC: 1, Clients: 5, ClientDC: int(USWest)})
	for _, n := range c.Clients {
		if n.DC != USWest {
			t.Fatalf("pinned client in %v, want us-west", n.DC)
		}
	}
}

func TestReplicasOnePerDC(t *testing.T) {
	c := NewCluster(Layout{NodesPerDC: 4, Clients: 0, ClientDC: -1})
	reps := c.Replicas("item/00042")
	if len(reps) != 5 {
		t.Fatalf("replicas = %d, want 5", len(reps))
	}
	dcs := map[DC]bool{}
	for _, id := range reps {
		dc, ok := c.NodeDC(id)
		if !ok {
			t.Fatalf("replica %s unknown to cluster", id)
		}
		if dcs[dc] {
			t.Fatalf("two replicas in %v", dc)
		}
		dcs[dc] = true
	}
	// Same shard in every DC, named as StorageID names it.
	shard := c.Shard("item/00042")
	for i, dc := range c.StorageDCs {
		if want := StorageID(dc, shard); reps[i] != want || c.ReplicaIn("item/00042", dc) != want {
			t.Fatalf("%v: Replicas %s, ReplicaIn %s, want %s", dc, reps[i], c.ReplicaIn("item/00042", dc), want)
		}
	}
	// Both answer from the table compiled with the cluster: routing a
	// key formats no node id.
	if n := testing.AllocsPerRun(100, func() {
		_ = c.Replicas("item/00042")
		_ = c.ReplicaIn("item/00042", APTokyo)
	}); n != 0 {
		t.Fatalf("routing one key allocates %v objects", n)
	}
}

func TestShardStableAndInRange(t *testing.T) {
	c := NewCluster(Layout{NodesPerDC: 4, Clients: 0, ClientDC: -1})
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		k := record.Key(string(rune('a'+i%26)) + string(rune('0'+i%10)) + "key")
		s := c.Shard(k)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		if s != c.Shard(k) {
			t.Fatal("Shard not deterministic")
		}
		counts[s]++
	}
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d never used — bad distribution %v", i, counts)
		}
	}
}

func TestClusterLatencyFunc(t *testing.T) {
	c := NewCluster(Layout{NodesPerDC: 1, Clients: 2, ClientDC: -1})
	lat := c.LatencyWith(nil)
	// client0 is in USWest, store in USEast.
	d := lat(ClientID(0), StorageID(USEast, 0))
	if d != OneWay(USWest, USEast) {
		t.Fatalf("latency = %v, want %v", d, OneWay(USWest, USEast))
	}
	if lat(StorageID(USWest, 0), StorageID(USWest, 0)) > time.Millisecond {
		t.Fatal("self latency should be intra-DC")
	}
}

func TestNodeDCUnknown(t *testing.T) {
	c := NewCluster(Layout{NodesPerDC: 1, Clients: 0, ClientDC: -1})
	if _, ok := c.NodeDC("ghost"); ok {
		t.Fatal("unknown node resolved to a DC")
	}
}
