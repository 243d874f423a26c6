package core

import (
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
)

// A coordinator names its own incarnation: rebuilt on the same node id
// at a later instant it mints lanes and read-request ids its
// predecessors never used, with nothing passed in by the caller. One
// built at the simulator's zero instant mints the bare "<id>#<seq>".
func TestCoordinatorIncarnationsAreDisjoint(t *testing.T) {
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: -1})
	net := simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), Seed: 1})
	id := cl.Clients[0].ID

	lanes := map[string]bool{}
	reqs := map[uint64]bool{}
	// build constructs an incarnation, mints one transaction id and a
	// burst of read requests, and checks none was ever minted before.
	build := func() TxID {
		t.Helper()
		c := NewCoordinator(id, topology.USWest, net, cl, Defaults(ModeMDCC))
		tx := c.txID()
		if lane := laneOf(tx); lanes[lane] {
			t.Fatalf("incarnation built at %v re-minted lane %q", net.Now().Sub(time.Unix(0, 0)), lane)
		} else {
			lanes[lane] = true
		}
		for i := 0; i < 1000; i++ {
			c.Read("k", func(record.Value, record.Version, bool) {})
		}
		for req := range c.reads {
			if reqs[req] {
				t.Fatalf("incarnation built at %v re-minted read request id %d", net.Now().Sub(time.Unix(0, 0)), req)
			}
			reqs[req] = true
		}
		return tx
	}

	if tx, want := build(), TxID(string(id)+"#1"); tx != want {
		t.Fatalf("first incarnation at the zero instant minted %q, want %q", tx, want)
	}
	net.RunFor(1500 * time.Millisecond)
	build()
	net.RunFor(time.Millisecond) // the token's resolution
	build()
}
