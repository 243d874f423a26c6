package core

import (
	"fmt"
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/ring"
	"mdcc/internal/topology"
)

// TestRingFenceRefusesAndCoordinatorReroutesOnce: a shard move
// re-homes a key while a private coordinator's fast proposal for it is
// in flight. Every node of the old group refuses the proposal with
// WrongGroup instead of voting; the coordinator re-dispatches it under
// the new ring exactly once (its only MsgProposeFast send), and the
// new group learns it on the fast path — no recovery — so the
// transaction commits there, and its replicas then hold the write while
// the old group's never see it.
func TestRingFenceRefusesAndCoordinatorReroutesOnce(t *testing.T) {
	w := newWorldOn(t, cfgNoSweep(ModeMDCC), topology.Layout{NodesPerDC: 2, Groups: 1, Clients: 1, ClientDC: -1}, 1)
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
}
