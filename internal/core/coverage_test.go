package core

import (
	"testing"
	"time"

	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

func TestReadQuorumReturnsFreshest(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 60)
	if !w.commit(0, record.Insert("q/1", record.Value{Attrs: map[string]int64{"x": 1}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	// Make one replica stale by failing it through an update.
	victim := topology.StorageID(topology.USWest, 0) // the client's local replica
	val, ver, _ := w.read(0, "q/1")
	w.net.Fail(victim)
	if !w.commit(0, record.Physical("q/1", ver, val.WithAttr("x", 2))).Committed {
		t.Fatal("update failed")
	}
	w.net.RunFor(3 * time.Second)
	w.net.Recover(victim)
	// Local read (us-west) may see the stale version 1; quorum read
	// must see version 2.
	var qval record.Value
	var qver record.Version
	var qok, done bool
	w.coords[0].ReadQuorum("q/1", func(v record.Value, vr record.Version, ok bool) {
		qval, qver, qok, done = v, vr, ok, true
	})
	if !w.net.RunUntil(func() bool { return done }, time.Minute) {
		t.Fatal("quorum read never settled")
	}
	if !qok || qver != 2 || qval.Attr("x") != 2 {
		t.Fatalf("quorum read = %v v%d %v, want x=2 v2", qval, qver, qok)
	}
}

func TestReadQuorumAbsentKey(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 61)
	var done, exists bool
	w.coords[0].ReadQuorum("q/none", func(_ record.Value, _ record.Version, ok bool) {
		exists, done = ok, true
	})
	if !w.net.RunUntil(func() bool { return done }, time.Minute) {
		t.Fatal("quorum read never settled")
	}
	if exists {
		t.Fatal("phantom record from quorum read")
	}
}

func TestReadRetriesAcrossDCs(t *testing.T) {
	// Local replica dead: the plain read must fail over to the next
	// data center after its timeout.
	cfg := cfgNoSweep(ModeMDCC)
	cfg.ReadTimeout = 300 * time.Millisecond
	w := newWorld(t, cfg, 1, 1, 62)
	if !w.commit(0, record.Insert("q/2", record.Value{Attrs: map[string]int64{"x": 5}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	w.net.Fail(topology.StorageID(topology.USWest, 0)) // client 0 is us-west
	val, _, ok := w.read(0, "q/2")
	if !ok || val.Attr("x") != 5 {
		t.Fatalf("failover read = %v %v", val, ok)
	}
	if m := w.coords[0].Metrics(); m.ReadRetries == 0 {
		t.Fatalf("expected read retries, got %+v", m)
	}
}

func TestReadFailsWhenAllDCsDead(t *testing.T) {
	cfg := cfgNoSweep(ModeMDCC)
	cfg.ReadTimeout = 200 * time.Millisecond
	w := newWorld(t, cfg, 1, 1, 63)
	for _, dc := range topology.AllDCs() {
		w.net.Fail(topology.StorageID(dc, 0))
	}
	_, _, ok := w.read(0, "q/3")
	if ok {
		t.Fatal("read succeeded with every replica dead")
	}
	if m := w.coords[0].Metrics(); m.ReadFails == 0 {
		t.Fatalf("ReadFails not counted: %+v", m)
	}
}

func TestAbandonLeadershipOnPreemption(t *testing.T) {
	// A leader with in-flight Phase2a gets preempted by a higher
	// ballot: it must abandon, requeue, and still settle the option.
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 64)
	if !w.commit(0, record.Insert("ab/1", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	ldr := w.nodes[0] // us-west
	// Promise a very high ballot at a quorum of acceptors so the
	// upcoming Phase2a is refused.
	high := paxos.Classic(99, "usurper")
	for i := 0; i < 3; i++ {
		w.nodes[i].handle(transport.Envelope{From: "usurper-node", Msg: MsgPhase1a{Key: "ab/1", Ballot: high}})
	}
	// Now ask us-west to lead an option classically.
	opt := Option{
		Tx:       "tx-preempt",
		Coord:    w.coords[0].ID(),
		Update:   record.Physical("ab/1", 1, record.Value{Attrs: map[string]int64{"x": 1}}),
		WriteSet: []record.Key{"ab/1"},
	}
	var learned *MsgLearned
	w.net.Register(w.coords[0].ID(), func(e transport.Envelope) {
		if m, ok := e.Msg.(MsgLearned); ok && learned == nil {
			learned = &m
		}
	})
	ldr.handle(transport.Envelope{Msg: MsgStartRecovery{Key: "ab/1", Opt: opt, HasOpt: true}})
	if !w.net.RunUntil(func() bool { return learned != nil }, time.Minute) {
		t.Fatal("preempted leader never settled the option")
	}
}

func TestUpdateKindUnknownRejected(t *testing.T) {
	n, _ := unitNode(t, ModeMDCC, nil)
	opt := Option{Update: record.Update{Kind: record.UpdateKind(99), Key: "k"}}
	if d, _ := n.evalOption(n.row(opt.Update.Key), nil, opt, true); d != DecReject {
		t.Fatal("unknown update kind accepted")
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 5, 0}, {-3, 5, 0}, {1, 5, 1}, {5, 5, 1}, {6, 5, 2}, {10, 5, 2},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestOptionStringForms(t *testing.T) {
	id := OptionID{Tx: "t1", Key: "k"}
	if id.String() != "t1@k" {
		t.Fatalf("OptionID.String = %q", id.String())
	}
	if record.ReadCheck("k", 3).String() == "" {
		t.Fatal("ReadCheck String empty")
	}
}

func TestCustomMasterDC(t *testing.T) {
	cfg := cfgNoSweep(ModeMulti)
	cfg.MasterDC = func(record.Key) topology.DC { return topology.APTokyo }
	w := newWorld(t, cfg, 1, 1, 65)
	res := w.commit(0, record.Insert("cm/1", record.Value{Attrs: map[string]int64{"x": 1}}))
	if !res.Committed {
		t.Fatal("commit via custom master failed")
	}
	// The Tokyo node must have acted as leader (phase2 proposals).
	var tokyo *StorageNode
	for _, n := range w.nodes {
		if n.ID() == topology.StorageID(topology.APTokyo, 0) {
			tokyo = n
		}
	}
	if tokyo.lr("cm/1").seq == 0 {
		t.Fatal("custom master never led")
	}
}
