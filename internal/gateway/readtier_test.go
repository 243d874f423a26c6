package gateway

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/kv"
	"mdcc/internal/mtx"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// readOnce drives one ReadFloor to completion on the simulated net.
func readOnce(w *testWorld, key record.Key, floor record.Version) (val record.Value, ver record.Version, exists bool, served bool) {
	w.net.At(0, func() {
		w.gw.ReadFloor(key, floor, func(v record.Value, vr record.Version, ok bool) {
			val, ver, exists, served = v, vr, ok, true
		})
	})
	w.net.RunFor(5 * time.Second)
	return
}

// TestReadTierServesFromMemory pins the tentpole behavior: after one
// cold-miss RPC fill, steady-state reads are served from the
// gateway's feed-materialized memory with zero additional RPCs, and
// a committed write becomes visible to those memory reads through the
// visibility feed alone.
func TestReadTierServesFromMemory(t *testing.T) {
	key := record.Key("stock/read")
	w := newTestWorld(t, Tuning{}, []record.Constraint{record.MinBound("units", 0)})
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 100}})
	w.net.RunFor(3 * time.Second) // feeds subscribe, hellos land

	if _, ver, exists, served := readOnce(w, key, 0); !served || !exists || ver != 1 {
		t.Fatalf("cold read: served=%v exists=%v ver=%d", served, exists, ver)
	}
	m := w.gw.Metrics()
	if m.ReadRPCs != 1 {
		t.Fatalf("cold read should cost exactly one RPC fill, got %+v", m)
	}

	// Steady state: every further read is a memory hit.
	const n = 50
	hits := 0
	w.net.At(0, func() {
		for i := 0; i < n; i++ {
			w.gw.ReadFloor(key, 0, func(_ record.Value, ver record.Version, ok bool) {
				if ok && ver == 1 {
					hits++
				}
			})
		}
	})
	w.net.RunFor(time.Second)
	if hits != n {
		t.Fatalf("served %d of %d steady-state reads", hits, n)
	}
	m = w.gw.Metrics()
	if m.ReadRPCs != 1 || m.LocalReads < n {
		t.Fatalf("steady-state reads still cost RPCs: %+v", m)
	}
	if m.FeedsLive == 0 || m.MaterializedKeys == 0 {
		t.Fatalf("gauges claim a dead tier under a live feed: %+v", m)
	}

	// A committed write must reach memory readers via the feed alone.
	w.net.At(0, func() {
		w.gw.Commit([]record.Update{record.Commutative(key, map[string]int64{"units": -5})},
			func(ok bool, err error) {
				if !ok || err != nil {
					t.Errorf("commit: ok=%v err=%v", ok, err)
				}
			})
	})
	w.net.RunFor(5 * time.Second)
	rpcsBefore := w.gw.Metrics().ReadRPCs
	val, ver, exists, served := readOnce(w, key, 0)
	if !served || !exists || ver != 2 || val.Attr("units") != 95 {
		t.Fatalf("post-write read: served=%v exists=%v ver=%d units=%d", served, exists, ver, val.Attr("units"))
	}
	if w.gw.Metrics().ReadRPCs != rpcsBefore {
		t.Fatalf("post-write read paid an RPC despite the feed")
	}
}

// TestReadTierSingleFlightCoalescing pins the cold-miss stampede:
// concurrent reads of one unmaterialized key share a single MsgRead.
func TestReadTierSingleFlightCoalescing(t *testing.T) {
	const n = 40
	key := record.Key("stock/coal")
	w := newTestWorld(t, Tuning{}, nil)
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 7}})
	w.net.RunFor(3 * time.Second)

	served := 0
	w.net.At(0, func() {
		for i := 0; i < n; i++ {
			w.gw.ReadFloor(key, 0, func(_ record.Value, ver record.Version, ok bool) {
				if ok && ver == 1 {
					served++
				}
			})
		}
	})
	w.net.RunFor(5 * time.Second)
	if served != n {
		t.Fatalf("served %d of %d stampede reads", served, n)
	}
	m := w.gw.Metrics()
	if m.ReadRPCs != 1 || m.ReadCoalesced != n-1 {
		t.Fatalf("stampede cost %d RPCs (%d coalesced), want 1 (%d)", m.ReadRPCs, m.ReadCoalesced, n-1)
	}
}

// TestGatewayReadsAreTheCallersOwn: a caller may edit the value it
// read — as it does before a Physical commit — and no other reader
// sees the edit, neither the readers that shared its fallback RPC nor
// the memory copy the gateway serves next.
func TestGatewayReadsAreTheCallersOwn(t *testing.T) {
	key := record.Key("stock/own")
	w := newTestWorld(t, Tuning{}, nil)
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 7}})
	w.net.RunFor(3 * time.Second)

	// Each reader checks what it got, then scribbles on it.
	var seen []int64
	read := func(v record.Value, ver record.Version, ok bool) {
		if !ok || ver != 1 {
			t.Errorf("read answered exists=%v ver=%d", ok, ver)
			return
		}
		seen = append(seen, v.Attr("units"))
		v.Attrs["units"] = 999
	}
	check := func(stage string) {
		t.Helper()
		for i, units := range seen {
			if units != 7 {
				t.Fatalf("%s: reader %d of %d read units=%d, another reader's edit", stage, i+1, len(seen), units)
			}
		}
		seen = seen[:0]
	}

	// The coalesced fallback: three cold reads share one RPC.
	const n = 3
	w.net.At(0, func() {
		for i := 0; i < n; i++ {
			w.gw.ReadFloor(key, 0, read)
		}
	})
	w.net.RunFor(5 * time.Second)
	if m := w.gw.Metrics(); m.ReadRPCs != 1 || m.ReadCoalesced != n-1 || len(seen) != n {
		t.Fatalf("cold reads: %d answered, %d RPCs, %d coalesced; want %d, 1, %d", len(seen), m.ReadRPCs, m.ReadCoalesced, n, n-1)
	}
	check("coalesced fallback")

	// The memory hit: the installed copy is served again and again.
	w.net.At(0, func() {
		for i := 0; i < n; i++ {
			w.gw.ReadFloor(key, 0, read)
		}
	})
	w.net.RunFor(time.Second)
	if m := w.gw.Metrics(); m.LocalReads != n || len(seen) != n {
		t.Fatalf("warm reads: %d answered, %d from memory; want %d from memory", len(seen), m.LocalReads, n)
	}
	check("memory hit")
}

// TestReadTierFloorFillsOnce pins the end of the gateway's ladder: a
// floor above everything the local replica has skips the memory copy
// and gets one fill of the local replica, answered at its version. The
// gateway re-reads nothing for the floor; that is mtx.ReadAtFloor's.
func TestReadTierFloorFillsOnce(t *testing.T) {
	key := record.Key("stock/floor")
	w := newTestWorld(t, Tuning{}, nil)
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 1}})
	w.net.RunFor(3 * time.Second)

	// Warm the memory copy (version 1).
	readOnce(w, key, 0)
	// A floor of 99 can be met by nobody; the memory copy must not
	// answer it, and one fill must.
	_, ver, exists, served := readOnce(w, key, 99)
	if !served || !exists || ver != 1 {
		t.Fatalf("floored read: served=%v exists=%v ver=%d", served, exists, ver)
	}
	m := w.gw.Metrics()
	if m.ReadRPCs != 2 || m.ReadQuorums != 0 || m.LocalReads != 0 {
		t.Fatalf("floored read took %d fills, %d quorum reads, %d memory hits; want 2 fills in all, 0, 0",
			m.ReadRPCs, m.ReadQuorums, m.LocalReads)
	}
}

// TestReadAtFloorOverGateway runs the client contract's floor rule
// over a gateway: the local replica holds version 1 and three of the
// other four replicas version 3, so only a quorum meets a floor of 3.
// The gateway's floored read answers version 1, and mtx.ReadAtFloor's
// one re-read through ReadQuorum meets the floor.
func TestReadAtFloorOverGateway(t *testing.T) {
	key := record.Key("stock/quorum")
	w := newTestWorld(t, Tuning{}, nil)
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 1}})
	w.net.RunFor(3 * time.Second)
	// Written after the warm-up, so anti-entropy has not yet carried
	// version 3 to the local replica when the read starts.
	ahead := 0
	for i, n := range w.cl.Storage {
		if n.Index == w.cl.Shard(key) && n.DC != topology.USWest && ahead < 3 {
			_ = w.stores[i].Put(key, record.Value{Attrs: map[string]int64{"units": 3}}, 3)
			ahead++
		}
	}

	const floor = 3
	rereads, answered := 0, 0
	var got record.Version
	var met bool
	w.net.At(0, func() {
		mtx.ReadAtFloor(
			func(cb mtx.ReadFunc) { w.gw.ReadFloor(key, floor, cb) },
			func(cb mtx.ReadFunc) { rereads++; w.gw.ReadQuorum(key, cb) },
			floor,
			func(_ record.Value, ver record.Version, _, ok bool) { answered++; got, met = ver, ok })
	})
	w.net.RunFor(5 * time.Second)
	if answered != 1 || !met || got != floor || rereads != 1 {
		t.Fatalf("answered %d times at v%d (met=%v) after %d re-reads; want once at v%d after 1",
			answered, got, met, rereads, floor)
	}
	if m := w.gw.Metrics(); m.ReadRPCs != 1 || m.ReadQuorums != 1 {
		t.Fatalf("%d fills and %d quorum reads, want 1 and 1", m.ReadRPCs, m.ReadQuorums)
	}
}

// TestReadTierFeedGapResync forces a sequence hole — the gateway node
// is partitioned from its local shard for less than feedTTL while
// commits keep dirtying the key, so messages are lost but no
// resubscription happens in between — and requires the gap to be
// detected on the first post-heal message and resynced with catch-up,
// after which memory reads serve the post-partition state with no
// extra RPC.
func TestReadTierFeedGapResync(t *testing.T) {
	key := record.Key("stock/gap")
	w := newTestWorld(t, Tuning{}, nil)
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 50}})
	w.net.RunFor(3 * time.Second)
	readOnce(w, key, 0) // materialize

	// Cut ONLY the gateway node off from the key's local shard: the
	// coordinator still commits (all five replicas vote), the
	// shard still executes visibility and streams it — onto the floor.
	shard := w.cl.ReplicaIn(key, topology.USWest)
	cut := func() {
		w.net.Partition([]transport.NodeID{w.gw.ID()}, []transport.NodeID{shard})
	}
	commit := func(delta int64) {
		w.net.At(0, func() {
			w.gw.Commit([]record.Update{record.Commutative(key, map[string]int64{"units": delta})},
				func(ok bool, err error) {
					if !ok || err != nil {
						t.Errorf("commit: ok=%v err=%v", ok, err)
					}
				})
		})
	}
	w.net.At(0, cut)
	commit(-1)
	commit(-1)
	// 1s < feedTTL (2s): keepalives and the two feed updates are
	// lost, but the liveness probe does not resubscribe yet — the hole
	// must be found by sequence numbers, not by the silence timer.
	w.net.RunFor(1000 * time.Millisecond)
	w.net.HealAll()
	commit(-1)
	w.net.RunFor(5 * time.Second)

	m := w.gw.Metrics()
	if m.FeedGaps == 0 {
		t.Fatalf("lost feed messages went undetected: %+v", m)
	}
	rpcs := m.ReadRPCs
	val, ver, exists, served := readOnce(w, key, 0)
	if !served || !exists || ver != 4 || val.Attr("units") != 47 {
		t.Fatalf("post-resync read: served=%v exists=%v ver=%d units=%d", served, exists, ver, val.Attr("units"))
	}
	if got := w.gw.Metrics().ReadRPCs; got != rpcs {
		t.Fatalf("post-resync read paid an RPC (%d -> %d); catch-up did not rematerialize", rpcs, got)
	}
}

// TestReadTierSubscriberRestart models a gateway restart: a fresh
// incarnation (same node ids, same constructor) starts with an empty
// store, must resubscribe under a fresh epoch, and must not consume
// the dead incarnation's stream state.
func TestReadTierSubscriberRestart(t *testing.T) {
	key := record.Key("stock/restart")
	w := newTestWorld(t, Tuning{}, nil)
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 9}})
	w.net.RunFor(3 * time.Second)
	readOnce(w, key, 0)

	// Stop the old incarnation (its timers must die with it — the
	// hard-crash variant is covered by the read-storm scenario's
	// CrashGateway nemesis) and boot a replacement on the same node ids.
	w.gw.Close()
	w.gw = New(topology.USWest, w.net, w.cl, w.cfg, Tuning{})
	w.net.RunFor(3 * time.Second) // hellos under the new epoch land

	m := w.gw.Metrics()
	if m.FeedsLive == 0 {
		t.Fatalf("restarted gateway never re-established its feeds: %+v", m)
	}
	// Cold store: first read pays one RPC fill, then memory serves.
	if _, ver, exists, served := readOnce(w, key, 0); !served || !exists || ver != 1 {
		t.Fatalf("post-restart read: served=%v exists=%v ver=%d", served, exists, ver)
	}
	if _, _, _, served := readOnce(w, key, 0); !served {
		t.Fatal("second post-restart read not served")
	}
	m = w.gw.Metrics()
	if m.ReadRPCs != 1 || m.LocalReads == 0 {
		t.Fatalf("restarted tier not serving from memory after one fill: %+v", m)
	}
}

// TestReadTierPublisherRestartDetected pins the sequence-aliasing
// hazard: a restarted storage node loses its subscriber table, and a
// same-epoch re-registration restarts its stream at Seq 1 — whose low
// numbers alias the gateway's already-consumed ones and would be
// discarded as duplicates, silently losing the fresh incarnation's
// messages. The publisher boot id must turn that into a detected gap
// and a resync.
func TestReadTierPublisherRestartDetected(t *testing.T) {
	key := record.Key("stock/boot")
	w := newTestWorld(t, Tuning{}, nil)
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 3}})
	w.net.RunFor(3 * time.Second)
	readOnce(w, key, 0) // stream consumed: boot pinned

	shard := w.cl.ReplicaIn(key, topology.USWest)
	w.gw.mu.Lock()
	fs := w.gw.feeds[shard]
	epoch, seq, boot := fs.epoch, fs.expect, fs.boot
	w.gw.mu.Unlock()
	if boot == 0 {
		t.Fatal("no boot id pinned after consuming the stream")
	}
	gaps := w.gw.Metrics().FeedGaps
	// A "restarted publisher": same epoch, a perfectly in-order
	// sequence number, different boot. Without the boot check this is
	// consumed as contiguous — with it, it must resync.
	w.net.At(0, func() {
		w.net.Send(shard, w.gw.ID(), core.MsgVisibilityFeed{Epoch: epoch, Seq: seq, Boot: boot + 1})
	})
	w.net.RunFor(3 * time.Second)
	m := w.gw.Metrics()
	if m.FeedGaps == gaps {
		t.Fatalf("publisher restart not detected as a gap: %+v", m)
	}
	if m.FeedsLive == 0 {
		t.Fatalf("stream did not recover after the resync: %+v", m)
	}
}

// TestReadTierSurvivesDupReorder runs the feed under heavy message
// duplication and reordering: duplicates must be discarded by
// sequence (never applied twice, never mistaken for gaps that wedge
// the stream), reorder-induced holes must resync, and the tier must
// end live and correct.
func TestReadTierSurvivesDupReorder(t *testing.T) {
	key := record.Key("stock/dup")
	w := newTestWorld(t, Tuning{}, nil)
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 1000}})
	w.net.RunFor(3 * time.Second)
	readOnce(w, key, 0)

	w.net.SetDupProb(0.25)
	w.net.SetReorder(0.25, 80*time.Millisecond)
	const n = 30
	committed := 0
	w.net.At(0, func() {
		for i := 0; i < n; i++ {
			w.gw.Commit([]record.Update{record.Commutative(key, map[string]int64{"units": -1})},
				func(ok bool, err error) {
					if ok && err == nil {
						committed++
					}
				})
		}
	})
	w.net.RunFor(20 * time.Second)
	w.net.SetDupProb(0)
	w.net.SetReorder(0, 0)
	w.net.RunFor(5 * time.Second) // stream settles, keepalives resume

	val, ver, exists, served := readOnce(w, key, 0)
	if !served || !exists {
		t.Fatal("read not served after chaos")
	}
	if want := int64(1000 - committed); val.Attr("units") != want {
		t.Fatalf("units = %d, want %d (%d committed)", val.Attr("units"), want, committed)
	}
	if want := record.Version(1 + committed); ver != want {
		t.Fatalf("version = %d, want %d", ver, want)
	}
	m := w.gw.Metrics()
	if m.FeedStaleMsgs == 0 && m.FeedGaps == 0 {
		t.Fatalf("chaos produced neither discarded duplicates nor resynced gaps: %+v", m)
	}
	if m.FeedsLive == 0 {
		t.Fatalf("stream wedged after chaos: %+v", m)
	}
}

// TestReadTierPublisherChurnedOut pins feed recovery under node
// churn: the gateway's feed publisher (its DC's shard replica) is not
// restarted but *replaced* — a brand-new machine at the same slot
// with empty disks, a fresh subscriber table and a fresh boot id. The
// gateway must notice the publisher's death and resubscribe to the
// replacement; the replacement must rebuild the committed state it
// never had from its quorum over anti-entropy; and a post-churn
// commit must reach memory readers through the NEW feed alone.
func TestReadTierPublisherChurnedOut(t *testing.T) {
	key := record.Key("stock/churned")
	w := newTestWorld(t, Tuning{}, nil)
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 500}})
	w.net.RunFor(3 * time.Second)
	readOnce(w, key, 0) // materialize; feed live, boot pinned

	shard := w.cl.ReplicaIn(key, topology.USWest)
	idx := -1
	for i, n := range w.cl.Storage {
		if n.ID == shard {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("no us-west replica for the key")
	}
	resubs := w.gw.Metrics().FeedResubs

	// Churn the publisher out: crash it, then boot the replacement on
	// wiped disks. The replacement syncs so its quorum can rebuild the
	// state the new machine never held.
	w.net.Crash(shard)
	w.nodes[idx].Halt()
	w.net.RunFor(time.Second)
	w.stores[idx] = kv.NewMemory()
	w.net.Recover(shard)
	w.nodes[idx] = core.NewStorageNode(shard, topology.USWest, w.net, w.cl, w.cfg, w.stores[idx])
	// The silence passes feedTTL, the gateway resubscribes to the
	// fresh incarnation, and anti-entropy pulls the key back.
	w.net.RunFor(8 * time.Second)

	m := w.gw.Metrics()
	if m.FeedResubs == resubs {
		t.Fatalf("no resubscription after the publisher was churned out: %+v", m)
	}
	if m.FeedsLive == 0 {
		t.Fatalf("feed not live on the replacement publisher: %+v", m)
	}
	if _, ver, ok := w.stores[idx].Get(key); !ok || ver != 1 {
		t.Fatalf("replacement did not rebuild %s from its quorum: ok=%v ver=%d", key, ok, ver)
	}

	// The resubscription's catch-up asked an empty machine, so the old
	// memory copy is rightly unconfirmed: the first post-churn read is
	// a single RPC refill that re-registers the key with the new feed.
	if _, ver, exists, served := readOnce(w, key, 0); !served || !exists || ver != 1 {
		t.Fatalf("post-churn refill read: served=%v exists=%v ver=%d", served, exists, ver)
	}

	// From here the replacement's feed owns visibility: a commit must
	// reach memory readers through it alone — no further RPCs.
	w.net.At(0, func() {
		w.gw.Commit([]record.Update{record.Commutative(key, map[string]int64{"units": -5})},
			func(ok bool, err error) {
				if !ok || err != nil {
					t.Errorf("post-churn commit: ok=%v err=%v", ok, err)
				}
			})
	})
	w.net.RunFor(5 * time.Second)
	rpcs := w.gw.Metrics().ReadRPCs
	val, ver, exists, served := readOnce(w, key, 0)
	if !served || !exists || ver != 2 || val.Attr("units") != 495 {
		t.Fatalf("post-churn read: served=%v exists=%v ver=%d units=%d", served, exists, ver, val.Attr("units"))
	}
	if got := w.gw.Metrics().ReadRPCs; got != rpcs {
		t.Fatalf("post-churn read paid an RPC (%d -> %d): the replacement's feed is not feeding memory", rpcs, got)
	}
}

// TestKillAndCloseAnswerHeldReads pins the teardown half of the client
// contract: every read the gateway holds past the memory rung — a
// single-flight fill, the waiter sharing it, a quorum read, and the
// tier-less per-read RPC — is answered absent exactly once by Kill and
// by Close (after the transactions, in registration order), late
// replies never re-fire a callback, and every call made afterwards
// answers at once.
func TestKillAndCloseAnswerHeldReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		tier bool
		kill bool
	}{
		{"kill", true, true},
		{"close", true, false},
		{"kill without read tier", false, true},
		{"close without read tier", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld(t, Tuning{CoalesceWindow: -1, DisableReadTier: !tc.tier}, nil)
			for _, key := range []record.Key{"held/a", "held/b", "held/c"} {
				w.preload(key, record.Value{Attrs: map[string]int64{"x": 1}})
			}
			w.net.RunFor(3 * time.Second) // feeds subscribe, hellos land

			var order []string
			fired := map[string]int{}
			read := func(name string) func(record.Value, record.Version, bool) {
				return func(_ record.Value, ver record.Version, exists bool) {
					if ver != 0 || exists {
						t.Errorf("%s answered v%d exists=%v, want absent", name, ver, exists)
					}
					fired[name]++
					order = append(order, name)
				}
			}
			commit := func(name string) func(bool, error) {
				return func(ok bool, err error) {
					// Kill fails what it dispatched; Close lets it drain.
					if tc.kill != errors.Is(err, ErrOutcomeUnknown) || tc.kill == ok {
						t.Errorf("%s settled ok=%v err=%v", name, ok, err)
					}
					fired[name]++
					order = append(order, name)
				}
			}
			want := []string{"fill", "waiter", "quorum", "plain"}
			w.net.At(0, func() {
				w.gw.ReadFloor("held/a", 0, read("fill"))
				w.gw.Commit([]record.Update{record.Commutative("held/a", map[string]int64{"x": 1})}, commit("tx1"))
				w.gw.ReadFloor("held/a", 0, read("waiter"))
				w.gw.ReadQuorum("held/a", read("quorum"))
				w.gw.Commit([]record.Update{record.Commutative("held/b", map[string]int64{"x": 1})}, commit("tx2"))
				w.gw.Read("held/c", read("plain"))
				if tc.kill {
					w.gw.Kill()
					want = append([]string{"tx1", "tx2"}, want...) // transactions first
				} else {
					w.gw.Close()
				}
			})
			w.net.RunFor(time.Millisecond)
			if fmt.Sprint(order) != fmt.Sprint(want) {
				t.Fatalf("teardown answered %v, want %v", order, want)
			}

			// A closed gateway answers at once, on the caller's stack.
			after := 0
			absent := func(_ record.Value, ver record.Version, exists bool) {
				if ver == 0 && !exists {
					after++
				}
			}
			w.gw.ReadFloor("held/a", 0, absent)
			w.gw.ReadQuorum("held/a", absent)
			w.gw.Commit([]record.Update{record.Commutative("held/a", map[string]int64{"x": 1})},
				func(ok bool, err error) {
					if !ok && errors.Is(err, ErrClosed) {
						after++
					}
				})
			if after != 3 {
				t.Fatalf("%d of 3 calls on a closed gateway answered at once", after)
			}

			// Replies still in flight (Close leaves the nodes up) must not
			// re-fire anything.
			w.net.RunFor(10 * time.Second)
			for _, name := range append(want, "tx1", "tx2") {
				if fired[name] != 1 {
					t.Fatalf("%q answered %d times", name, fired[name])
				}
			}
		})
	}
}
