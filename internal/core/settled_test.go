package core

import (
	"slices"
	"testing"
	"time"

	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/transport"
)

// withSettled returns n's summary of key plus opt settled as d: the
// lineage a peer's base carries once opt executed (or was discarded)
// there.
func withSettled(n *StorageNode, key record.Key, opt Option, d Decision) LineageSummary {
	var p packedLineage
	p.tail().union(&n.lanes, n.rs(key).decided.summary().unpack(&n.lanes))
	p.tail().add(&n.lanes, laneOf(opt.Tx), opt.KeySeq, d != DecAccept, false)
	if d == DecAccept {
		p.tail().mark(false, true)
	}
	return p.unpack(&n.lanes)
}

// TestLeaderNeverRedecidesSettledOption: a leader must not decide an
// option its own summary already holds as settled. The option is a
// physical write at read version 1. While the leader's round for it is
// open, a peer's base reaches the leader through adoptBase carrying the
// option as settled: as accepted (it committed and executed there; the
// base is at version 2, so re-evaluated the option would be rejected),
// or as rejected (discarded there; the base is the unchanged version 1,
// so re-evaluated it would be accepted). Either way a fresh decision
// would contradict the settled one, and it would reach the option's
// coordinator (MsgLearned) and the recoverer asking for it
// (MsgOptDecided): the recoverer would then finish the transaction on
// the remaining replicas the other way.
//
// A queued option never enters a cstruct; its coordinator and the
// recoverer hear the settled decision when Phase 1 finishes. For one
// already proposed, the round's quorum learns the settled decision, not
// the round's own: coordinator and recoverer hear it, under MDCC the
// drained γ window reopens fast ballots, and the option's visibility
// takes it out of the leader's cstruct.
func TestLeaderNeverRedecidesSettledOption(t *testing.T) {
	const key = record.Key("settled/1")
	run := func(t *testing.T, mode Mode, queued bool, settled Decision, ready func(l *leaderRec) bool) {
		cfg := cfgNoSweep(mode)
		cfg.SyncInterval = 0
		cfg.Gamma = 1 // one learned option drains the classic window
		w := newWorld(t, cfg, 1, 1, 47)
		if !w.commit(0, record.Insert(key, record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
			t.Fatal("insert failed")
		}
		w.settle()
		opt := Option{
			Tx: "stray#1", Coord: "stray", KeySeq: 1,
			WriteSet: []record.Key{key}, WriteSeqs: []uint64{1},
			Update: record.Physical(key, 1, record.Value{Attrs: map[string]int64{"x": 7}}),
		}
		ldr := w.node(w.node(w.cl.Replicas(key)[0]).leaderFor(key))

		// Every answer about opt, and every cstruct the leader ships.
		var learned, decided []Decision
		var shipped int
		seqAtAdoption := ^uint64(0)
		w.net.Register("stray", func(env transport.Envelope) {
			if m, ok := env.Msg.(MsgLearned); ok && m.OptID == opt.ID() {
				learned = append(learned, m.Decision)
			}
		})
		w.net.Register("prober", func(env transport.Envelope) {
			if m, ok := env.Msg.(MsgOptDecided); ok {
				decided = append(decided, m.Decision)
			}
		})
		for _, id := range w.cl.Replicas(key) {
			n := w.node(id)
			w.net.Register(id, func(env transport.Envelope) {
				if m, ok := env.Msg.(MsgPhase2a); ok && env.From == ldr.ID() && m.Seq > seqAtAdoption &&
					optIndex(m.CStruct, opt.ID()) >= 0 {
					shipped++
				}
				n.handle(env)
			})
		}

		w.net.Send("prober", ldr.ID(), MsgRecoverOpt{ReqID: 1, Tx: opt.Tx, Key: key, KeySeq: 1, Opt: opt, HasOpt: true})
		if !w.net.RunUntil(func() bool { l, ok := ldr.ldrs[key]; return ok && ready(l) }, time.Second) {
			t.Fatal("the leader never took the option up")
		}
		seqAtAdoption = ldr.ldrs[key].seq
		fastAtAdoption := ldr.m.EnableFast
		base, ver, _ := ldr.Store().GetEncoded(key)
		if settled == DecAccept {
			base, ver = opt.Update.NewValue, 2
		}
		if !ldr.adoptBase(key, base, ver, withSettled(ldr, key, opt, settled)) {
			t.Fatal("the peer's base was not adopted")
		}
		if d, ok := ldr.settled(ldr.rs(key), opt.Tx, opt.KeySeq); !ok || d != settled {
			t.Fatalf("after adoption the leader reads %v, %v for the option, want %v", d, ok, settled)
		}
		w.net.RunFor(5 * time.Second)

		for _, d := range append(learned, decided...) {
			if d != settled {
				t.Errorf("the leader answered %v for an option its summary holds as %v (learned %v, decided %v)",
					d, settled, learned, decided)
				break
			}
		}
		if len(learned) == 0 || len(decided) == 0 {
			t.Errorf("coordinator answered %v, recoverer answered %v; want both answered", learned, decided)
		}
		l := ldr.ldrs[key]
		if d, ok := l.learned.get(&ldr.lanes, opt.Tx); ok && d != settled {
			t.Errorf("the leader learned %v for an option its summary holds as %v", d, settled)
		}
		if _, got, _ := ldr.Store().GetEncoded(key); got != ver {
			t.Errorf("leader at v%d, want the adopted v%d", got, ver)
		}
		if !queued {
			if len(l.props) != 0 {
				t.Errorf("round still open (%d proposals)", len(l.props))
			}
			if mode == ModeMDCC && (l.owned || ldr.m.EnableFast == fastAtAdoption) {
				t.Errorf("fast ballots never reopened (owned %v, EnableFast %d → %d)",
					l.owned, fastAtAdoption, ldr.m.EnableFast)
			}
			// The coordinator's visibility, once it learned, leaves no
			// copy in the cstruct for later options to be weighed against.
			ldr.handle(transport.Envelope{From: opt.Coord, To: ldr.ID(), Msg: visibilityFor(opt, settled == DecAccept)})
			if optIndex(l.cstruct, opt.ID()) >= 0 {
				t.Error("the option's visibility left it in the leader's cstruct")
			}
			return
		}
		if shipped > 0 || optIndex(l.cstruct, opt.ID()) >= 0 {
			t.Errorf("the settled option entered the cstruct (%d Phase2a messages proposed it)", shipped)
		}
	}

	for _, settled := range []Decision{DecAccept, DecReject} {
		// Queued behind Phase 1 on a leader that does not own the record.
		t.Run("queued/"+settled.String(), func(t *testing.T) {
			run(t, ModeMDCC, true, settled, func(l *leaderRec) bool {
				if l.owned {
					t.Fatal("the leader already owns the record")
				}
				return len(l.queue) == 1 && l.phase1 != nil
			})
		})
		// In the cstruct, its Phase2a out, no quorum of Phase2b yet: on
		// a Multi master, which owns classic ballot 1 and proposes at
		// once, and on an MDCC leader after its Phase 1.
		for _, mode := range []Mode{ModeMulti, ModeMDCC} {
			t.Run("between Phase2a and quorum/"+mode.String()+"/"+settled.String(), func(t *testing.T) {
				run(t, mode, false, settled, func(l *leaderRec) bool {
					return len(l.props) == 1 && optIndex(l.cstruct, OptionID{Tx: "stray#1", Key: key}) >= 0
				})
			})
		}
	}
}

// TestSettledAnswersFromSummary: every call site that asks whether an
// option settled answers from the lineage summary when the decided log
// cannot: after the option's decided-log entry was released, and when
// the option settled on this replica only through a peer's base
// (adoptBase), which leaves no entry at all. The record holds an
// unresolved vote for the option from before it settled.
func TestSettledAnswersFromSummary(t *testing.T) {
	const key = record.Key("k")
	opt := Option{
		Tx: "c0#1", Coord: "c0", KeySeq: 1,
		WriteSet: []record.Key{key}, WriteSeqs: []uint64{1},
		Update: record.Physical(key, 1, record.Value{Attrs: map[string]int64{"x": 7}}),
	}
	ways := []struct {
		name   string
		settle func(n *StorageNode, d Decision)
	}{
		{"released", func(n *StorageNode, d Decision) {
			row := n.row(key)
			r := row.r
			n.settleOption(key, r, d, opt)
			if d == DecAccept {
				n.applyUpdate(row, opt.Update)
			}
			// What a release of every entry leaves: the summary and the
			// class lock.
			r.decided = decidedLog{buf: slices.Clone(r.decided.summary()), kind: r.decided.kind}
		}},
		{"adopted", func(n *StorageNode, d Decision) {
			base, ver, _ := n.store.GetEncoded(key)
			if d == DecAccept {
				base, ver = opt.Update.NewValue, 2
			}
			if !n.adoptBase(key, base, ver, withSettled(n, key, opt, d)) {
				t.Fatal("the base was not adopted")
			}
		}},
	}
	// Each call site gets the node with opt settled as d, and what the
	// node sends to opt's coordinator or to a recoverer.
	sites := []struct {
		name  string
		check func(t *testing.T, n *StorageNode, d Decision, sent func() []transport.Message)
	}{
		{"voteFor resends the decision", func(t *testing.T, n *StorageNode, d Decision, _ func() []transport.Message) {
			if v := n.voteFor(n.row(key), opt); v.Decision != d || v.Forwarded {
				t.Fatalf("vote %+v, want the settled %v", v, d)
			}
		}},
		{"onVisibility skips", func(t *testing.T, n *StorageNode, d Decision, _ func() []transport.Message) {
			_, ver, _ := n.store.GetEncoded(key)
			n.onVisibility(visibilityFor(opt, d != DecAccept))
			n.onVisibility(visibilityFor(opt, d == DecAccept))
			if _, got, _ := n.store.GetEncoded(key); got != ver || n.rs(key).decided.len() != 0 {
				t.Fatalf("a settled option's visibility was applied: v%d → v%d, %d decided entries",
					ver, got, n.rs(key).decided.len())
			}
		}},
		{"onPhase2a skips", func(t *testing.T, n *StorageNode, d Decision, _ func() []transport.Message) {
			n.onPhase2a("ldr", MsgPhase2a{Key: key, Ballot: paxos.Classic(1, "ldr"), Seq: 1,
				CStruct: []VotedOption{{Opt: opt, Decision: DecAccept}}})
			if n.rs(key).voteIndex(opt.ID()) >= 0 {
				t.Fatal("a settled option was adopted into the cstruct")
			}
		}},
		{"leaderPropose answers", func(t *testing.T, n *StorageNode, d Decision, sent func() []transport.Message) {
			n.handle(transport.Envelope{From: opt.Coord, To: n.id, Msg: MsgProposeLeader{Opt: opt}})
			msgs := sent()
			if len(msgs) != 1 {
				t.Fatalf("the leader sent %v, want one MsgLearned", msgs)
			}
			if m, ok := msgs[0].(MsgLearned); !ok || m.Decision != d {
				t.Fatalf("the leader answered %+v, want MsgLearned %v", msgs[0], d)
			}
			if l := n.ldrs[key]; len(l.queue) != 0 || len(l.cstruct) != 0 {
				t.Fatal("the leader took a settled option up")
			}
		}},
		{"onRecoverOpt answers", func(t *testing.T, n *StorageNode, d Decision, sent func() []transport.Message) {
			n.handle(transport.Envelope{From: opt.Coord, To: n.id,
				Msg: MsgRecoverOpt{ReqID: 1, Tx: opt.Tx, Key: key, KeySeq: opt.KeySeq}})
			msgs := sent()
			if len(msgs) != 1 {
				t.Fatalf("the leader sent %v, want one MsgOptDecided", msgs)
			}
			if m, ok := msgs[0].(MsgOptDecided); !ok || m.Decision != d {
				t.Fatalf("the leader answered %+v, want MsgOptDecided %v", msgs[0], d)
			}
		}},
		{"sweepPending releases the vote", func(t *testing.T, n *StorageNode, d Decision, sent func() []transport.Message) {
			n.sweepPending()
			if n.rs(key).voteIndex(opt.ID()) >= 0 {
				t.Fatal("the sweep kept a settled option's vote")
			}
		}},
	}
	for _, way := range ways {
		for _, d := range []Decision{DecAccept, DecReject} {
			for _, site := range sites {
				t.Run(way.name+"/"+d.String()+"/"+site.name, func(t *testing.T) {
					n, net := unitNode(t, ModeMDCC, nil)
					var got []transport.Message
					net.Register(opt.Coord, func(env transport.Envelope) { got = append(got, env.Msg) })
					sent := func() []transport.Message { net.RunFor(time.Second); return got }
					_ = n.store.Put(key, record.Value{Attrs: map[string]int64{"x": 0}}, 1)
					n.castVote(n.rs(key), opt, DecAccept, ReasonNone)
					way.settle(n, d)
					if dd, ok := n.settled(n.rs(key), opt.Tx, opt.KeySeq); !ok || dd != d || n.rs(key).decided.len() != 0 {
						t.Fatalf("settled reads %v, %v with %d decided entries; want %v from the summary alone",
							dd, ok, n.rs(key).decided.len(), d)
					}
					site.check(t, n, d, sent)
				})
			}
		}
	}
}

// TestRecoveryAppliesOwnStuckVote: a leader's summary learns settles
// through base adoption, so its answer to a recovery can be an accept
// without contents while the recovering replica itself still lacks the
// update. The recoverer holds the option in its own stuck vote, and
// sends its visibility from that copy. The leader here settled the
// option only through adoptBase; another replica holds the vote; anti-
// entropy is off, so nothing else would bring the update there.
func TestRecoveryAppliesOwnStuckVote(t *testing.T) {
	const key = record.Key("stuck/1")
	cfg := cfgNoSweep(ModeMDCC)
	cfg.SyncInterval = 0
	w := newWorld(t, cfg, 1, 1, 48)
	if !w.commit(0, record.Insert(key, record.Value{Attrs: map[string]int64{"x": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	opt := Option{
		Tx: "stray#1", Coord: "stray", KeySeq: 1,
		WriteSet: []record.Key{key}, WriteSeqs: []uint64{1},
		Update: record.Physical(key, 1, record.Value{Attrs: map[string]int64{"x": 7}}),
	}
	ldr := w.node(w.node(w.cl.Replicas(key)[0]).leaderFor(key))
	var holder *StorageNode
	for _, id := range w.cl.Replicas(key) {
		if id != ldr.ID() {
			holder = w.node(id)
			break
		}
	}
	holder.castVote(holder.rs(key), opt, DecAccept, ReasonNone)
	if !ldr.adoptBase(key, opt.Update.NewValue, 2, withSettled(ldr, key, opt, DecAccept)) {
		t.Fatal("the leader did not adopt the peer's base")
	}

	holder.after(0, func() { holder.startTxRecovery(opt) })
	w.net.RunFor(time.Second)
	if _, ver, _ := holder.Store().GetEncoded(key); ver != 2 {
		t.Errorf("after one recovery round the vote holder is at v%d, want v2", ver)
	}
	if holder.rs(key).voteIndex(opt.ID()) >= 0 {
		t.Error("after one recovery round the vote holder still holds its vote")
	}
	if len(holder.recoveries) != 0 {
		t.Errorf("%d recoveries still open", len(holder.recoveries))
	}
}
