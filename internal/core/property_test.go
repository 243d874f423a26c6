package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
)

// Property tests: run randomized workloads over randomized network
// schedules (jitter, message drops, node crashes) and assert the
// protocol invariants from DESIGN.md §5 — constraint safety, no lost
// updates, replica convergence, atomic durability.

type propWorld struct {
	net    *simnet.Net
	cl     *topology.Cluster
	nodes  []*StorageNode
	coords []*Coordinator
}

func newPropWorld(cfg Config, clients int, seed int64, dropProb float64) *propWorld {
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: clients, ClientDC: -1})
	net := simnet.New(simnet.Options{
		Latency:     cl.LatencyWith(nil),
		JitterFrac:  0.15,
		ServiceTime: 100 * time.Microsecond,
		DropProb:    dropProb,
		Seed:        seed,
	})
	w := &propWorld{net: net, cl: cl}
	for _, n := range cl.Storage {
		w.nodes = append(w.nodes, NewStorageNode(n.ID, n.DC, net, cl, cfg, kv.NewMemory()))
	}
	for _, c := range cl.Clients {
		w.coords = append(w.coords, NewCoordinator(c.ID, c.DC, net, cl, cfg))
	}
	return w
}

// TestPropertyConstraintUnderChaos: with demarcation enabled, no
// schedule of commutative decrements — including message drops — may
// drive the committed stock below the bound.
func TestPropertyConstraintUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property test skipped in -short")
	}
	for seed := int64(0); seed < 12; seed++ {
		cfg := Defaults(ModeMDCC)
		cfg.PendingTimeout = 2 * time.Second
		cfg.Constraints = []record.Constraint{record.MinBound("stock", 0)}
		drop := 0.0
		if seed%3 == 1 {
			drop = 0.02
		}
		w := newPropWorld(cfg, 5, 1000+seed, drop)
		rng := rand.New(rand.NewSource(seed))

		const initial = 25
		var setup *CommitResult
		w.coords[0].Commit([]record.Update{
			record.Insert("p/stock", record.Value{Attrs: map[string]int64{"stock": initial}}),
		}, func(r CommitResult) { setup = &r })
		if !w.net.RunUntil(func() bool { return setup != nil }, time.Minute) || !setup.Committed {
			t.Fatalf("seed %d: setup failed", seed)
		}
		w.net.RunFor(3 * time.Second)

		// 40 decrements of 1..3, issued in random bursts.
		total := 0
		committedDelta := int64(0)
		results := 0
		launch := func(ci int, amt int64) {
			w.coords[ci].Commit([]record.Update{
				record.Commutative("p/stock", map[string]int64{"stock": -amt}),
			}, func(r CommitResult) {
				results++
				if r.Committed {
					committedDelta += amt
				}
			})
		}
		for total < 40 {
			burst := 1 + rng.Intn(5)
			for b := 0; b < burst && total < 40; b++ {
				amt := int64(1 + rng.Intn(3))
				ci := rng.Intn(5)
				total++
				at := time.Duration(rng.Intn(4000)) * time.Millisecond
				a, c := amt, ci
				w.net.At(3*time.Second+at, func() { launch(c, a) })
			}
		}
		if !w.net.RunUntil(func() bool { return results == total }, 5*time.Minute) {
			t.Fatalf("seed %d: only %d/%d decrements settled", seed, results, total)
		}
		w.net.RunFor(15 * time.Second) // drain visibility + sweeps

		if committedDelta > initial {
			t.Fatalf("seed %d: committed %d units against stock %d", seed, committedDelta, initial)
		}
		for i, n := range w.nodes {
			v, _, ok := n.Store().Get("p/stock")
			if !ok {
				continue
			}
			if v.Attr("stock") < 0 {
				t.Fatalf("seed %d: node %d stock=%d < 0", seed, i, v.Attr("stock"))
			}
		}
		// With no drops every replica must converge exactly.
		if drop == 0 {
			want := int64(initial) - committedDelta
			for i, n := range w.nodes {
				v, _, _ := n.Store().Get("p/stock")
				if v.Attr("stock") != want {
					t.Fatalf("seed %d: node %d stock=%d, want %d", seed, i, v.Attr("stock"), want)
				}
			}
		}
	}
}

// TestPropertyNoLostUpdates: randomized read-modify-write races on a
// counter; the final committed value must equal the number of
// committed increments (every commit's effect survives).
func TestPropertyNoLostUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property test skipped in -short")
	}
	for seed := int64(0); seed < 10; seed++ {
		cfg := Defaults(ModeMDCC)
		cfg.PendingTimeout = 2 * time.Second
		w := newPropWorld(cfg, 5, 2000+seed, 0)
		rng := rand.New(rand.NewSource(seed))

		var setup *CommitResult
		w.coords[0].Commit([]record.Update{
			record.Insert("p/ctr", record.Value{Attrs: map[string]int64{"n": 0}}),
		}, func(r CommitResult) { setup = &r })
		if !w.net.RunUntil(func() bool { return setup != nil }, time.Minute) || !setup.Committed {
			t.Fatalf("seed %d: setup failed", seed)
		}
		w.net.RunFor(3 * time.Second)

		const attempts = 30
		results, commits := 0, 0
		// Each attempt: read then physical increment with the read
		// version — classic OCC read-modify-write.
		attempt := func(ci int) {
			w.coords[ci].Read("p/ctr", func(v record.Value, ver record.Version, ok bool) {
				if !ok {
					results++
					return
				}
				w.coords[ci].Commit([]record.Update{
					record.Physical("p/ctr", ver, v.WithAttr("n", v.Attr("n")+1)),
				}, func(r CommitResult) {
					results++
					if r.Committed {
						commits++
					}
				})
			})
		}
		for i := 0; i < attempts; i++ {
			ci := rng.Intn(5)
			at := time.Duration(rng.Intn(25000)) * time.Millisecond
			c := ci
			w.net.At(3*time.Second+at, func() { attempt(c) })
		}
		if !w.net.RunUntil(func() bool { return results == attempts }, 10*time.Minute) {
			t.Fatalf("seed %d: only %d/%d RMWs settled", seed, results, attempts)
		}
		w.net.RunFor(15 * time.Second)

		// Final value must equal commit count — a lost update would
		// make it smaller.
		var final *record.Value
		w.coords[0].Read("p/ctr", func(v record.Value, _ record.Version, _ bool) { final = &v })
		w.net.RunUntil(func() bool { return final != nil }, time.Minute)
		if final.Attr("n") != int64(commits) {
			t.Fatalf("seed %d: final counter %d != %d commits (lost update)", seed, final.Attr("n"), commits)
		}
	}
}

// TestPropertyCrashConvergence: crash random storage nodes (at most
// one DC at a time) while writing; surviving replicas must converge
// and every settled transaction must be atomic.
func TestPropertyCrashConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property test skipped in -short")
	}
	for seed := int64(0); seed < 8; seed++ {
		cfg := Defaults(ModeMDCC)
		cfg.PendingTimeout = 2 * time.Second
		cfg.OptionTimeout = 700 * time.Millisecond
		w := newPropWorld(cfg, 5, 3000+seed, 0)
		rng := rand.New(rand.NewSource(seed))

		keys := []record.Key{"c/a", "c/b", "c/c"}
		var setup *CommitResult
		ups := make([]record.Update, 0, len(keys))
		for _, k := range keys {
			ups = append(ups, record.Insert(k, record.Value{Attrs: map[string]int64{"x": 0}}))
		}
		w.coords[0].Commit(ups, func(r CommitResult) { setup = &r })
		if !w.net.RunUntil(func() bool { return setup != nil }, time.Minute) || !setup.Committed {
			t.Fatalf("seed %d: setup failed", seed)
		}
		w.net.RunFor(3 * time.Second)

		// Crash one random DC's storage node mid-run, recover later.
		victimDC := topology.DC(rng.Intn(topology.NumDCs))
		victim := topology.StorageID(victimDC, 0)
		w.net.At(5*time.Second, func() { w.net.Fail(victim) })
		w.net.At(20*time.Second, func() { w.net.Recover(victim) })

		const attempts = 20
		results := 0
		for i := 0; i < attempts; i++ {
			ci := rng.Intn(5)
			key := keys[rng.Intn(len(keys))]
			at := time.Duration(3000+rng.Intn(25000)) * time.Millisecond
			c, k, n := ci, key, int64(i+1)
			w.net.At(at, func() {
				w.coords[c].Read(k, func(v record.Value, ver record.Version, ok bool) {
					if !ok {
						results++
						return
					}
					w.coords[c].Commit([]record.Update{
						record.Physical(k, ver, v.WithAttr("x", n)),
					}, func(CommitResult) { results++ })
				})
			})
		}
		if !w.net.RunUntil(func() bool { return results == attempts }, 10*time.Minute) {
			t.Fatalf("seed %d: only %d/%d writes settled", seed, results, attempts)
		}
		w.net.RunFor(30 * time.Second) // sweeps, catch-up

		// Surviving (never-failed) replicas of each key must agree.
		for _, k := range keys {
			var ref *kv.Entry
			for _, n := range w.nodes {
				if n.ID() == victim {
					continue // the crashed node may legitimately lag
				}
				v, ver, _ := n.Store().GetEncoded(k)
				e := kv.Entry{Key: k, Value: v, Version: ver}
				if ref == nil {
					ref = &e
					continue
				}
				if !bytes.Equal(e.Value, ref.Value) || e.Version != ref.Version {
					t.Fatalf("seed %d: survivors diverged on %s: %v v%d vs %v v%d",
						seed, k, ref.Value, ref.Version, e.Value, e.Version)
				}
			}
		}
	}
}

// TestPropertyManyKeysParallel: independent transactions on disjoint
// keys must all commit on the fast path regardless of schedule.
func TestPropertyManyKeysParallel(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := Defaults(ModeMDCC)
		cfg.PendingTimeout = 0
		w := newPropWorld(cfg, 5, 4000+seed, 0)
		const n = 25
		results, commits := 0, 0
		for i := 0; i < n; i++ {
			ci := i % 5
			key := record.Key(fmt.Sprintf("pk/%d", i))
			w.coords[ci].Commit([]record.Update{
				record.Insert(key, record.Value{Attrs: map[string]int64{"x": int64(i)}}),
			}, func(r CommitResult) {
				results++
				if r.Committed {
					commits++
				}
			})
		}
		if !w.net.RunUntil(func() bool { return results == n }, time.Minute) {
			t.Fatalf("seed %d: only %d/%d settled", seed, results, n)
		}
		if commits != n {
			t.Fatalf("seed %d: %d/%d disjoint inserts committed", seed, commits, n)
		}
	}
}
