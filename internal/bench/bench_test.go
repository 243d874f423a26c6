package bench

import (
	"testing"
	"time"

	"mdcc/internal/microbench"
	"mdcc/internal/record"
	"mdcc/internal/topology"
)

func microRun(t *testing.T, proto Protocol, clients int, seed int64) *Result {
	t.Helper()
	w := NewWorld(Options{
		Protocol:    proto,
		NodesPerDC:  2,
		Clients:     clients,
		ClientDC:    -1,
		Seed:        seed,
		Constraints: []record.Constraint{microbench.Constraint()},
	})
	wl := microbench.New(microbench.Defaults())
	return Run(w, wl, RunConfig{Warmup: 5 * time.Second, Measure: 20 * time.Second})
}

func TestMicrobenchOnMDCC(t *testing.T) {
	res := microRun(t, ProtoMDCC, 10, 1)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if res.Aborts > res.Commits/10 {
		t.Fatalf("uncontended run aborted too much: %d commits %d aborts", res.Commits, res.Aborts)
	}
	med := res.WriteLat.Median()
	// One wide-area round trip to a fast quorum: roughly 170-260 ms
	// depending on client DC.
	if med < 120 || med > 320 {
		t.Fatalf("MDCC median = %.0fms, want one-round-trip scale (~170-260)", med)
	}
}

func TestMicrobenchAllProtocolsRun(t *testing.T) {
	for _, p := range []Protocol{ProtoFast, ProtoMulti, Proto2PC, ProtoQW3, ProtoQW4, ProtoMegastore} {
		res := microRun(t, p, 5, 2)
		if res.Commits == 0 {
			t.Fatalf("%s: no commits", p)
		}
		if res.WriteLat.N() == 0 {
			t.Fatalf("%s: no latencies recorded", p)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-shape test skipped in -short")
	}
	// Paper medians: MDCC 245 < Fast 276 < Multi 388 < 2PC 543.
	med := map[Protocol]float64{}
	for _, p := range []Protocol{ProtoMDCC, ProtoFast, ProtoMulti, Proto2PC} {
		res := microRun(t, p, 20, 3)
		med[p] = res.WriteLat.Median()
		t.Logf("%-6s median %.0fms commits %d aborts %d", p, med[p], res.Commits, res.Aborts)
	}
	if !(med[ProtoMDCC] <= med[ProtoFast]+25) {
		t.Errorf("MDCC (%.0f) should not be slower than Fast (%.0f)", med[ProtoMDCC], med[ProtoFast])
	}
	if !(med[ProtoFast] < med[ProtoMulti]) {
		t.Errorf("Fast (%.0f) should beat Multi (%.0f)", med[ProtoFast], med[ProtoMulti])
	}
	if !(med[ProtoMulti] < med[Proto2PC]) {
		t.Errorf("Multi (%.0f) should beat 2PC (%.0f)", med[ProtoMulti], med[Proto2PC])
	}
}

func TestFailureEventSchedule(t *testing.T) {
	w := NewWorld(Options{
		Protocol:    ProtoMDCC,
		NodesPerDC:  1,
		Clients:     5,
		ClientDC:    int(topology.USWest),
		Seed:        4,
		Constraints: []record.Constraint{microbench.Constraint()},
	})
	wl := microbench.New(microbench.Defaults())
	res := Run(w, wl, RunConfig{
		Warmup:  2 * time.Second,
		Measure: 30 * time.Second,
		Events: []Event{
			{At: 15 * time.Second, Do: func(w *World) { w.FailDC(topology.USEast) }},
		},
	})
	if res.Commits == 0 {
		t.Fatal("no commits across the failure")
	}
	// Commits must continue after the failure: look at the series.
	pre, npre := res.Series.MeanBetween(0, 15*time.Second)
	post, npost := res.Series.MeanBetween(15*time.Second, 32*time.Second)
	if npre == 0 || npost == 0 {
		t.Fatalf("series empty around failure: pre=%d post=%d", npre, npost)
	}
	if post <= pre {
		t.Logf("note: post-failure mean %.0fms <= pre %.0fms (allowed, but paper saw an increase)", post, pre)
	}
}

func TestPreloadReachesAllShards(t *testing.T) {
	w := NewWorld(Options{Protocol: ProtoMDCC, NodesPerDC: 4, Clients: 1, ClientDC: -1, Seed: 5})
	wl := microbench.New(microbench.Options{Items: 100,
		InitialStockMin: 10, InitialStockMax: 10, LocalMasterFrac: -1})
	w.Preload(wl.Preload(w.Net.Rand()))
	// Every key must be present at its replicas.
	for i := 0; i < 100; i++ {
		key := microbench.ItemKey(i)
		found := 0
		for _, s := range w.stores {
			if _, _, ok := s.Get(key); ok {
				found++
			}
		}
		if found != 5 {
			t.Fatalf("item %d present at %d stores, want 5 (one per DC)", i, found)
		}
	}
}
