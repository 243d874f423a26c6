package core

import (
	"path/filepath"
	"testing"
	"time"

	"mdcc/internal/check"
	"mdcc/internal/mtx"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
	"mdcc/internal/wal"
)

// durableWorld is the crash/restart test harness: a 5-DC cluster
// whose storage nodes live on WALs so they can be killed and rebooted
// mid-protocol.
type durableWorld struct {
	t        *testing.T
	net      *simnet.Net
	cl       *topology.Cluster
	cfg      Config
	dir      string
	nodes    []*StorageNode
	durables []*DurableState
	coords   []*Coordinator
}

func newDurableWorld(t *testing.T, seed int64) *durableWorld {
	t.Helper()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 3, ClientDC: -1})
	net := simnet.New(simnet.Options{
		Latency:     cl.LatencyWith(nil),
		JitterFrac:  0.05,
		ServiceTime: 100 * time.Microsecond,
		Seed:        seed,
	})
	cfg := Defaults(ModeMDCC)
	cfg.PendingTimeout = 2 * time.Second
	cfg.SyncInterval = 500 * time.Millisecond
	w := &durableWorld{t: t, net: net, cl: cl, cfg: cfg, dir: t.TempDir()}
	for _, n := range cl.Storage {
		ds, err := OpenDurableOpts(filepath.Join(w.dir, string(n.ID)), DurableOptions{NoSync: true})
		if err != nil {
			t.Fatalf("open durable: %v", err)
		}
		w.durables = append(w.durables, ds)
		w.nodes = append(w.nodes, NewDurableStorageNode(n.ID, n.DC, net, cl, cfg, ds))
	}
	for _, c := range cl.Clients {
		w.coords = append(w.coords, NewCoordinator(c.ID, c.DC, net, cl, cfg))
	}
	return w
}

func (w *durableWorld) crash(i int) {
	w.net.Crash(w.cl.Storage[i].ID)
	w.nodes[i].Halt()
	if err := w.durables[i].Close(); err != nil {
		w.t.Fatalf("close durable: %v", err)
	}
}

func (w *durableWorld) restart(i int) {
	n := w.cl.Storage[i]
	ds, err := OpenDurableOpts(filepath.Join(w.dir, string(n.ID)), DurableOptions{NoSync: true})
	if err != nil {
		w.t.Fatalf("reopen durable: %v", err)
	}
	w.durables[i] = ds
	w.net.Recover(n.ID)
	w.nodes[i] = NewDurableStorageNode(n.ID, n.DC, w.net, w.cl, w.cfg, ds)
}

// TestCrashRestartFromWALMidPhase2 kills an acceptor while a stream
// of transactions is mid-protocol (Phase2 messages and visibility in
// flight), restarts it from its WAL, and asserts that no
// acknowledged commit is lost and every internal/check invariant
// holds over the full history.
func TestCrashRestartFromWALMidPhase2(t *testing.T) {
	w := newDurableWorld(t, 7)
	hist := check.New()
	clients := make([]mtx.Client, len(w.coords))
	for i, c := range w.coords {
		clients[i] = hist.Client(i, c.Client())
	}

	// Preload one commutative counter on every replica (version 1, as
	// check expects for preloaded keys).
	key := record.Key("acct/x")
	initial := map[record.Key]record.Value{
		key: {Attrs: map[string]int64{"bal": 100}},
	}
	for _, ds := range w.durables {
		if err := ds.Store.Put(key, initial[key], 1); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}

	// Closed-loop traffic from every client for 20 virtual seconds:
	// enough that the crash at t=4s lands mid-Phase2 for several
	// transactions and recovery has to finish them.
	deadline := w.net.Now().Add(20 * time.Second)
	acked := 0
	var loop func(ci int)
	loop = func(ci int) {
		if !w.net.Now().Before(deadline) {
			return
		}
		clients[ci].Commit([]record.Update{
			record.Commutative(key, map[string]int64{"bal": 1}),
		}, func(bool) {
			acked++
			loop(ci)
		})
	}
	for ci := range clients {
		ci := ci
		w.net.At(0, func() { loop(ci) })
	}

	const victim = 1 // us-east replica
	w.net.At(4*time.Second, func() { w.crash(victim) })
	w.net.At(10*time.Second, func() { w.restart(victim) })

	w.net.RunFor(20 * time.Second)
	// Quiesce: in-flight commits settle, sweeps rebroadcast lost
	// visibility, anti-entropy catches the restarted replica up.
	w.net.RunFor(20 * time.Second)

	commits, aborts := hist.Summary()
	if commits == 0 {
		t.Fatal("no transaction committed")
	}
	t.Logf("acked=%d commits=%d aborts=%d", acked, commits, aborts)

	// The WAL must have restored committed state at reboot: the
	// restarted replica's version can only have grown from what it
	// crashed with, and after anti-entropy it matches its peers.
	final := func(k record.Key) (record.Value, record.Version, bool) {
		var bv record.Value
		var bver record.Version
		found := false
		for _, ds := range w.durables {
			v, ver, ok := ds.Store.Get(k)
			if ok && (!found || ver > bver) {
				bv, bver, found = v, ver, true
			}
		}
		return bv, bver, found
	}
	if errs := hist.Validate(initial, final, nil); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("invariant: %v", e)
		}
	}
	_, wantVer, _ := final(key)
	v, ver, ok := w.durables[victim].Store.Get(key)
	if !ok || ver != wantVer {
		t.Errorf("restarted replica did not catch up: ver=%d want %d (ok=%v)", ver, wantVer, ok)
	}
	if want := int64(100) + int64(commits); v.Attr("bal") != want {
		t.Errorf("restarted replica bal=%d, want %d", v.Attr("bal"), want)
	}
}

// TestRestartReplaysDecisionLog asserts the restart-idempotence the
// decision records exist for: a commutative option executed before the
// crash must not be applied a second time when its visibility is
// re-delivered to the restarted incarnation.
func TestRestartReplaysDecisionLog(t *testing.T) {
	w := newDurableWorld(t, 3)
	key := record.Key("acct/y")
	for _, ds := range w.durables {
		if err := ds.Store.Put(key, record.Value{Attrs: map[string]int64{"bal": 10}}, 1); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	var res *CommitResult
	opt := record.Commutative(key, map[string]int64{"bal": 5})
	w.coords[0].Commit([]record.Update{opt}, func(r CommitResult) { res = &r })
	if !w.net.RunUntil(func() bool { return res != nil }, time.Minute) || !res.Committed {
		t.Fatalf("commit did not settle: %+v", res)
	}
	w.net.RunFor(3 * time.Second) // visibility lands everywhere

	const victim = 2
	v, ver, _ := w.durables[victim].Store.Get(key)
	if v.Attr("bal") != 15 || ver != 2 {
		t.Fatalf("pre-crash state bal=%d ver=%d, want 15/2", v.Attr("bal"), ver)
	}
	w.crash(victim)
	w.restart(victim)

	// Replayed from WAL: committed value and version survive.
	v, ver, _ = w.durables[victim].Store.Get(key)
	if v.Attr("bal") != 15 || ver != 2 {
		t.Fatalf("WAL replay lost state: bal=%d ver=%d, want 15/2", v.Attr("bal"), ver)
	}

	// Re-deliver the visibility the incarnation already executed; the
	// replayed decision log must swallow it.
	id := w.cl.Storage[victim].ID
	w.net.Send(w.cl.Clients[0].ID, id, MsgVisibility{
		Opt:    Option{Tx: res.Tx, Coord: w.cl.Clients[0].ID, Update: opt},
		Commit: true,
	})
	w.net.RunFor(2 * time.Second)
	v, ver, _ = w.durables[victim].Store.Get(key)
	if v.Attr("bal") != 15 || ver != 2 {
		t.Errorf("duplicate visibility re-applied after restart: bal=%d ver=%d, want 15/2", v.Attr("bal"), ver)
	}
}

// TestRefusedSettleLeavesNothingOnDisk: when the disk refuses the
// decision record of a committing visibility, nothing of that settle
// survives a reopen — not the decision, not the summary bit, not the
// put behind them — so the restarted replica can tell from its own
// state that the option did not take effect here, and applies it
// exactly once when the visibility arrives again. Both ways a disk
// refuses are covered: a write torn before its first byte, and a sync
// that fails after the frame was written.
func TestRefusedSettleLeavesNothingOnDisk(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*wal.Faults)
	}{
		{"torn write", func(f *wal.Faults) { f.TornWrite(0) }},
		{"failed sync", func(f *wal.Faults) { f.FailSync(true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: -1})
			net := simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), Seed: 1})
			sn := cl.Storage[0]
			dir := t.TempDir()
			faults := wal.NewFaults()
			open := func() (*DurableState, *StorageNode) {
				ds, err := OpenDurableOpts(dir, DurableOptions{NoSync: true, Faults: faults})
				if err != nil {
					t.Fatal(err)
				}
				return ds, NewDurableStorageNode(sn.ID, sn.DC, net, cl, Defaults(ModeMDCC), ds)
			}
			const key, tx = record.Key("x"), TxID("c#1")
			want := func(ds *DurableState, when string, x int64, ver record.Version) {
				t.Helper()
				if v, got, _ := ds.Store.Get(key); v.Attr("x") != x || got != ver {
					t.Fatalf("%s: x=%d v%d, want x=%d v%d", when, v.Attr("x"), got, x, ver)
				}
			}
			vis := transport.Envelope{From: "coord", Msg: MsgVisibility{Commit: true, Opt: Option{
				Tx: tx, KeySeq: 1, Coord: "coord", Update: record.Commutative(key, map[string]int64{"x": 5})}}}

			ds, n := open()
			if err := ds.Store.Put(key, record.Value{Attrs: map[string]int64{"x": 10}}, 1); err != nil {
				t.Fatal(err)
			}
			tc.arm(faults)
			n.handle(vis)
			if n.DurabilityError() == nil {
				t.Fatal("the refused settle did not degrade the node")
			}
			n.Halt()
			ds.Close()
			faults.FailSync(false) // the operator replaced the disk

			ds, n = open()
			defer ds.Close()
			want(ds, "after reopen", 10, 1)
			r := n.rs(key)
			if _, ok := r.decided.get(&n.lanes, tx); ok {
				t.Error("after reopen the decided log holds the refused decision")
			}
			if r.decided.summary().contains(&n.lanes, laneOf(tx), 1) {
				t.Error("after reopen the lineage summary holds the refused option")
			}
			n.handle(vis)
			want(ds, "redelivered visibility", 15, 2)
			n.handle(vis)
			want(ds, "visibility delivered a third time", 15, 2)
		})
	}
}
