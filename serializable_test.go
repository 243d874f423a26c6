package mdcc

import (
	"sync"
	"testing"
)

// The classic write-skew anomaly: two doctors are on call; each
// transaction reads both records and, if the other is still on call,
// takes itself off. Under read committed both can commit (leaving
// nobody on call); with read-set validation (§4.4) at most one may.
func TestWriteSkewPreventedBySerializable(t *testing.T) {
	offCalls := 0 // anti-vacuity: someone must actually go off call
	for seed := int64(0); seed < 6; seed++ {
		c := startTestCluster(t, ClusterConfig{Seed: seed})
		s := c.Session(USWest)
		ok, err := s.Commit(
			Insert("oncall/alice", Value{Attrs: map[string]int64{"oncall": 1}}),
			Insert("oncall/bob", Value{Attrs: map[string]int64{"oncall": 1}}),
		)
		if err != nil || !ok {
			t.Fatalf("setup: %v %v", ok, err)
		}
		// Both racers must start from the setup, whichever DC they read in.
		waitEverywhere(t, c, "oncall/alice", atVersion(1))
		waitEverywhere(t, c, "oncall/bob", atVersion(1))

		// goOffCall reports whether the doctor actually went off call:
		// the transaction committed AND contained the self-write. A
		// racer that loses the race cleanly — it reads the peer already
		// off call and declines to write — still commits (a read-check-
		// only transaction), which is NOT the anomaly; counting bare
		// commit success here was this test's historic flake: under
		// -race scheduling the two "racers" often run back to back, the
		// second legitimately commits empty, and the test cried write
		// skew with the database in a perfectly legal state.
		goOffCall := func(sess *Session, self, other Key) bool {
			wrote := false
			ok, err := sess.TransactSerializable(1, func(tx *TxView) error {
				wrote = false
				me, myVer, _ := tx.Read(self)
				peer, _, _ := tx.Read(other)
				if peer.Attr("oncall") == 1 {
					tx.Write(self, myVer, me.WithAttr("oncall", 0))
					wrote = true
				}
				return nil
			})
			if err != nil {
				// A transient timeout under heavy machine load reports an
				// unknown outcome, not a committed one; it cannot witness
				// the write-skew anomaly, so treat it as "did not go off
				// call" rather than failing the harness.
				t.Logf("seed %d: transient commit error: %v", seed, err)
				return false
			}
			return ok && wrote
		}

		var wg sync.WaitGroup
		var okAlice, okBob bool
		wg.Add(2)
		go func() {
			defer wg.Done()
			okAlice = goOffCall(c.Session(USWest), "oncall/alice", "oncall/bob")
		}()
		go func() {
			defer wg.Done()
			okBob = goOffCall(c.Session(APTokyo), "oncall/bob", "oncall/alice")
		}()
		wg.Wait()

		if okAlice && okBob {
			t.Fatalf("seed %d: write skew — both doctors went off call", seed)
		}
		// Check the database itself too, not just the reported
		// outcomes: even if a slow commit was reported as a timeout
		// above, the final state must never show both off call.
		waitFor(t, "post-run visibility", func() bool {
			_, verA, okA, _ := s.Read("oncall/alice")
			_, verB, okB, _ := s.Read("oncall/bob")
			wantA, wantB := Version(1), Version(1)
			if okAlice {
				wantA = 2
			}
			if okBob {
				wantB = 2
			}
			return okA && okB && verA >= wantA && verB >= wantB
		})
		a, _, _, _ := s.Read("oncall/alice")
		b, _, _, _ := s.Read("oncall/bob")
		if a.Attr("oncall") == 0 && b.Attr("oncall") == 0 {
			t.Fatalf("seed %d: write skew in final state — nobody on call", seed)
		}
		if okAlice || okBob {
			offCalls++
		}
		c.Close()
	}
	// Tolerating transient commit errors above must not let a
	// regression that fails EVERY serializable commit pass vacuously:
	// across six seeds, at least one racer must have actually won.
	if offCalls == 0 {
		t.Fatal("no racer ever went off call across all seeds — serializable commits may be failing wholesale")
	}
}

// Read checks commit when nothing changed and abort when the read-set
// was invalidated.
func TestReadCheckSemantics(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	if ok, _ := s.Commit(Insert("rc/1", Value{Attrs: map[string]int64{"x": 1}})); !ok {
		t.Fatal("insert failed")
	}
	// Every replica must hold the version a check names before it votes
	// on the check, or a straggler's rejection races the test.
	const ver = Version(1)
	waitEverywhere(t, c, "rc/1", atVersion(ver))
	// Valid read check commits (and does not bump the version).
	if ok, err := s.Commit(ReadCheck("rc/1", ver)); err != nil || !ok {
		t.Fatalf("valid read check: %v %v", ok, err)
	}
	_, ver2, _, _ := s.Read("rc/1")
	if ver2 != ver {
		t.Fatalf("read check bumped version %d -> %d", ver, ver2)
	}
	// Invalidate and recheck. The committed check stays a pending
	// option at each replica until its visibility message lands, and a
	// write that outruns it there is rejected (in contract): retry.
	v, _, _, _ := s.Read("rc/1")
	waitFor(t, "update once the read check settled", func() bool {
		ok, _ := s.Commit(Physical("rc/1", ver, v.WithAttr("x", 2)))
		return ok
	})
	waitEverywhere(t, c, "rc/1", atVersion(ver+1))
	if ok, _ := s.Commit(ReadCheck("rc/1", ver)); ok {
		t.Fatal("stale read check committed")
	}
}

// A transaction mixing a read check with a write is atomic: the write
// must not apply when the check fails.
func TestReadCheckGuardsWrites(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USEast)
	if ok, _ := s.Commit(
		Insert("g/data", Value{Attrs: map[string]int64{"x": 1}}),
		Insert("g/out", Value{Attrs: map[string]int64{"sum": 0}}),
	); !ok {
		t.Fatal("setup failed")
	}
	const dataVer, outVer = Version(1), Version(1)
	waitEverywhere(t, c, "g/data", atVersion(dataVer))
	waitEverywhere(t, c, "g/out", atVersion(outVer))
	// Invalidate g/data.
	v, _, _, _ := s.Read("g/data")
	if ok, _ := s.Commit(Physical("g/data", dataVer, v.WithAttr("x", 2))); !ok {
		t.Fatal("invalidation failed")
	}
	waitEverywhere(t, c, "g/data", atVersion(dataVer+1))
	// Now try to write g/out guarded by the stale read of g/data.
	out, _, _, _ := s.Read("g/out")
	ok, _ := s.Commit(
		ReadCheck("g/data", dataVer),
		Physical("g/out", outVer, out.WithAttr("sum", 99)),
	)
	if ok {
		t.Fatal("transaction with a failed read check committed")
	}
	for i := 0; i < 50; i++ {
		if o, _, _, _ := s.Read("g/out"); o.Attr("sum") == 99 {
			t.Fatal("guarded write leaked despite failed read check")
		}
	}
}
