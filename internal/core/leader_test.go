package core

import (
	"testing"
	"time"

	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// TestLeaderContention: two nodes both try to lead the same record
// (the fallback-leader scenario); ballots must serialize them and the
// option must be decided exactly once.
func TestLeaderContention(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 700+seed)
		if !w.commit(0, record.Insert("lc/1", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
			t.Fatal("insert failed")
		}
		w.settle()
		// Send the same recovery request to two different would-be
		// leaders simultaneously.
		opt := Option{
			Tx:       "tx-contend",
			Coord:    w.coords[0].ID(),
			Update:   record.Physical("lc/1", 1, record.Value{Attrs: map[string]int64{"x": 7}}),
			WriteSet: []record.Key{"lc/1"}, KeySeq: 1, WriteSeqs: []uint64{1},
		}
		var learned []MsgLearned
		w.net.Register(w.coords[0].ID(), func(e transport.Envelope) {
			if m, ok := e.Msg.(MsgLearned); ok {
				learned = append(learned, m)
			}
		})
		l1 := topology.StorageID(topology.USEast, 0)
		l2 := topology.StorageID(topology.APTokyo, 0)
		w.net.Send("test", l1, MsgStartRecovery{Key: "lc/1", Opt: opt, HasOpt: true})
		w.net.Send("test", l2, MsgStartRecovery{Key: "lc/1", Opt: opt, HasOpt: true})
		if !w.net.RunUntil(func() bool { return len(learned) >= 1 }, time.Minute) {
			t.Fatalf("seed %d: contended option never learned", seed)
		}
		w.net.RunFor(5 * time.Second)
		// All Learned notifications must agree.
		first := learned[0].Decision
		for _, m := range learned {
			if m.Decision != first {
				t.Fatalf("seed %d: divergent decisions: %v", seed, learned)
			}
		}
	}
}

// TestPhase1SurvivesLostMessages: a takeover whose first Phase1a
// messages are lost to all but one peer hears from no classic quorum.
// The leader asks again while the attempt is open, so the option queued
// behind it is still decided; without that the attempt held the
// record's leadership, and every option queued behind it, for good.
func TestPhase1SurvivesLostMessages(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 43)
	const key = record.Key("p1/1")
	if !w.commit(0, record.Insert(key, record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	leader := topology.StorageID(topology.USWest, 0)
	// Every peer but one drops the first Phase1a it gets: with the
	// leader's own reply that is two of five, one short of a quorum.
	var peers, lost int
	for _, id := range w.cl.Replicas(key) {
		n, drop := w.node(id), id != leader && peers > 0
		if id != leader {
			peers++
		}
		w.net.Register(id, func(env transport.Envelope) {
			if _, ok := env.Msg.(MsgPhase1a); ok && drop {
				drop = false
				lost++
				return
			}
			n.handle(env)
		})
	}
	var learned []Decision
	w.net.Register("stray", func(env transport.Envelope) {
		if m, ok := env.Msg.(MsgLearned); ok {
			learned = append(learned, m.Decision)
		}
	})
	opt := Option{
		Tx: "stray#1", Coord: "stray", KeySeq: 1,
		WriteSet: []record.Key{key}, WriteSeqs: []uint64{1},
		Update: record.Physical(key, 1, record.Value{Attrs: map[string]int64{"x": 7}}),
	}
	w.net.Send("stray", leader, MsgStartRecovery{Key: key, Opt: opt, HasOpt: true})
	if !w.net.RunUntil(func() bool { return len(learned) > 0 }, 10*time.Second) {
		t.Fatalf("the option was never decided (%d Phase1a lost)", lost)
	}
	if lost != 3 || learned[0] != DecAccept {
		t.Fatalf("%d Phase1a lost, learned %v; want 3 lost and accept", lost, learned)
	}
}

// TestRecoverOptUnknownOptionRejected: a recovery query for an option
// no replica has ever seen must come back rejected (so the dangling
// transaction can abort deterministically).
func TestRecoverOptUnknownOptionRejected(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 42)
	if !w.commit(0, record.Insert("ro/1", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	var got []MsgOptDecided
	w.net.Register("prober", func(e transport.Envelope) {
		if m, ok := e.Msg.(MsgOptDecided); ok {
			got = append(got, m)
		}
	})
	leader := topology.StorageID(topology.USWest, 0)
	w.net.Send("prober", leader, MsgRecoverOpt{ReqID: 1, Tx: "ghost-tx", Key: "ro/1"})
	if !w.net.RunUntil(func() bool { return len(got) >= 1 }, time.Minute) {
		t.Fatal("recovery query never answered")
	}
	if got[0].Decision != DecReject {
		t.Fatalf("unknown option decided %v, want reject", got[0].Decision)
	}
	// And the answer is now stable: ask again.
	w.net.Send("prober", leader, MsgRecoverOpt{ReqID: 2, Tx: "ghost-tx", Key: "ro/1"})
	if !w.net.RunUntil(func() bool { return len(got) >= 2 }, time.Minute) {
		t.Fatal("second recovery query never answered")
	}
	if got[1].Decision != DecReject {
		t.Fatal("recovery decision not stable")
	}
}

// TestEnableFastAdvancesBallot: after EnableFast the acceptor must be
// in a fast ballot that outranks the classic one.
func TestEnableFastAdvancesBallot(t *testing.T) {
	n, _ := unitNode(t, ModeMDCC, nil)
	r := n.rs("k")
	promised := func() paxos.Ballot {
		p, _ := n.ballots("k", r)
		return p
	}
	classic := paxos.Classic(3, "ldr")
	n.onPhase1a("ldr", MsgPhase1a{Key: "k", Ballot: classic})
	if promised().Cmp(classic) != 0 {
		t.Fatalf("promise not taken: %v", promised())
	}
	n.onEnableFast(MsgEnableFast{Key: "k", Ballot: classic.NextFast()})
	if !promised().Fast {
		t.Fatal("record not back in fast mode")
	}
	if !classic.Less(promised()) {
		t.Fatal("fast ballot does not outrank the classic one")
	}
	// A stale EnableFast (lower ballot) must be ignored.
	n.onEnableFast(MsgEnableFast{Key: "k", Ballot: paxos.FastBallot(1)})
	if promised().Cmp(classic.NextFast()) != 0 {
		t.Fatal("stale EnableFast regressed the ballot")
	}
}

// TestForwardedProposalHint: proposals to a record in a classic
// window are forwarded and the coordinator is told who leads.
func TestForwardedProposalHint(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 43)
	if !w.commit(0, record.Insert("fw/1", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	// Force the record into a classic window via recovery.
	leader := topology.StorageID(topology.USWest, 0)
	w.net.Send("test", leader, MsgStartRecovery{Key: "fw/1"})
	w.net.RunFor(3 * time.Second)

	// A fast proposal must now be forwarded, not voted.
	var votes []MsgVote
	w.net.Register("watcher", func(e transport.Envelope) {
		if m, ok := e.Msg.(MsgVoteBatch); ok {
			votes = append(votes, m.Votes...)
		}
	})
	opt := Option{
		Tx:       "tx-fw",
		Coord:    "watcher",
		Update:   record.Physical("fw/1", 1, record.Value{Attrs: map[string]int64{"x": 1}}),
		WriteSet: []record.Key{"fw/1"}, KeySeq: 1, WriteSeqs: []uint64{1},
	}
	w.net.Send("watcher", topology.StorageID(topology.USEast, 0), MsgProposeBatch{Opts: []Option{opt}})
	if !w.net.RunUntil(func() bool { return len(votes) >= 1 }, time.Minute) {
		t.Fatal("no reply to forwarded proposal")
	}
	if !votes[0].Forwarded || votes[0].Leader == "" {
		t.Fatalf("expected a forwarded hint, got %+v", votes[0])
	}
}

// TestMaxLatencyBoundedUnderConflict: even heavily conflicting
// transactions settle within a few recovery rounds (no livelock).
func TestMaxLatencyBoundedUnderConflict(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 5, 44)
	if !w.commit(0, record.Insert("ml/1", record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	start := w.net.Now()
	var results []CommitResult
	for round := 0; round < 3; round++ {
		for ci := 0; ci < 5; ci++ {
			w.commitAsync(ci, &results, record.Physical("ml/1", 1,
				record.Value{Attrs: map[string]int64{"x": int64(round*10 + ci)}}))
		}
	}
	if !w.net.RunUntil(func() bool { return len(results) == 15 }, 2*time.Minute) {
		t.Fatalf("only %d/15 settled", len(results))
	}
	elapsed := w.net.Now().Sub(start)
	if elapsed > 30*time.Second {
		t.Fatalf("conflicting batch took %v — recovery is thrashing", elapsed)
	}
	commits := 0
	for _, r := range results {
		if r.Committed {
			commits++
		}
	}
	if commits > 1 {
		t.Fatalf("%d of 15 same-vread writers committed", commits)
	}
}
