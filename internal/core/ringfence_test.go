package core

import (
	"fmt"
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/ring"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// TestRingFenceRefusesAndCoordinatorReroutesOnce: a shard move
// re-homes a key while a private coordinator's fast proposal for it is
// in flight. Every node of the old group refuses the proposal with
// WrongGroup instead of voting; the coordinator re-dispatches it under
// the new ring exactly once (a one-option MsgProposeBatch to each new
// replica), and the new group learns it on the fast path — no recovery
// — so the transaction commits there, and its replicas then hold the
// write while the old group's never see it.
func TestRingFenceRefusesAndCoordinatorReroutesOnce(t *testing.T) {
	w, oldReps := commitAcrossShardMove(t, ModeMDCC)

	var refusals int64
	for _, id := range oldReps {
		refusals += w.node(id).Metrics().WrongGroupRefusals
	}
	if refusals != int64(len(oldReps)) {
		t.Errorf("old group refused %d proposals, want one per replica (%d)", refusals, len(oldReps))
	}
	m := w.coords[0].Metrics()
	if m.WrongGroupReroutes != 1 {
		t.Errorf("coordinator rerouted %d times, want exactly 1", m.WrongGroupReroutes)
	}
	if m.FastLearns != 1 || m.Recoveries != 0 {
		t.Errorf("coordinator learned the option by %d fast learns and %d recoveries, want the rerouted proposal's one fast learn",
			m.FastLearns, m.Recoveries)
	}
}

// TestRingFenceLeaderRefusesAndCoordinatorReroutesOnce is the Multi
// twin: the coordinator routes the write through the record's master,
// so the old group's refusal comes from leaderPropose, as a one-vote
// MsgVoteBatch. Exactly one node refuses, the coordinator reroutes once
// to the new group's master, and the transaction commits there through
// its classic round, without a recovery.
func TestRingFenceLeaderRefusesAndCoordinatorReroutesOnce(t *testing.T) {
	w, oldReps := commitAcrossShardMove(t, ModeMulti)

	var refusals int64
	for _, id := range oldReps {
		refusals += w.node(id).Metrics().WrongGroupRefusals
	}
	if refusals != 1 {
		t.Errorf("old group refused %d proposals, want the master's one", refusals)
	}
	m := w.coords[0].Metrics()
	if m.WrongGroupReroutes != 1 {
		t.Errorf("coordinator rerouted %d times, want exactly 1", m.WrongGroupReroutes)
	}
	if m.FastLearns != 0 || m.Recoveries != 0 {
		t.Errorf("coordinator learned the option by %d fast learns and %d recoveries, want the new master's classic learn alone",
			m.FastLearns, m.Recoveries)
	}
}

// commitAcrossShardMove commits one write, under mode, to a key that a
// shard move re-homes from group 0 to group 1 while the write's
// proposals are in flight. It fails t unless the write commits, every
// replica of the new group holds it and none of the old group does,
// and returns the world and the old group's replicas.
func commitAcrossShardMove(t *testing.T, mode Mode) (*world, []transport.NodeID) {
	t.Helper()
	w := newWorldOn(t, cfgNoSweep(mode), topology.Layout{NodesPerDC: 2, Groups: 1, Clients: 1, ClientDC: -1}, 1)
	cl, net := w.cl, w.net

	next := cl.Ring().Current().Map().WithGroup(1)
	var key record.Key
	for i := 0; key == ""; i++ {
		if k := record.Key(fmt.Sprintf("moved/%d", i)); ring.Compile(next).Owner(string(k)) == 1 {
			key = k
		}
	}
	oldReps := cl.Replicas(key)

	var res *CommitResult
	w.coords[0].Commit([]record.Update{record.Physical(key, 0, record.Value{Attrs: map[string]int64{"n": 7}})},
		func(r CommitResult) { res = &r })
	// The proposals left for group 0 with Commit; none has arrived.
	if !cl.Ring().Install(next) {
		t.Fatal("ring install refused")
	}
	newReps := cl.Replicas(key)
	if !net.RunUntil(func() bool { return res != nil }, time.Minute) {
		t.Fatal("commit did not settle within a simulated minute")
	}
	if !res.Committed {
		t.Fatalf("commit after reroute = %+v, want committed", *res)
	}
	w.settle()

	for _, id := range newReps {
		if v, ver, ok := w.node(id).Store().Get(key); !ok || ver != 1 || v.Attr("n") != 7 {
			t.Errorf("new-group replica %s holds %v@%d (present %v), want n=7@1", id, v.Attrs, ver, ok)
		}
	}
	for _, id := range oldReps {
		if _, _, ok := w.node(id).Store().Get(key); ok {
			t.Errorf("old-group replica %s applied a write for a key it no longer owns", id)
		}
	}
	return w, oldReps
}
