package core

import (
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// sendTap records what a coordinator hands to the network, and when.
type sendTap struct {
	transport.Network
	sent []tapped
}

type tapped struct {
	at  time.Time
	to  transport.NodeID
	msg transport.Message
}

func (s *sendTap) Send(from, to transport.NodeID, msg transport.Message) {
	s.sent = append(s.sent, tapped{at: s.Now(), to: to, msg: msg})
	s.Network.Send(from, to, msg)
}

// visibilityOf reports whether msg is the visibility of tx's option.
func visibilityOf(msg transport.Message, tx TxID) bool {
	v, ok := msg.(MsgVisibility)
	return ok && v.Commit && v.Opt.Tx == tx
}

// TestVisibilityRidesNextSend: a coordinator's visibility leaves with its
// next message to each replica, ahead of it in one envelope; with no such
// message it leaves on its own within the linger; and a read the
// coordinator sends right after a commit sees the write.
func TestVisibilityRidesNextSend(t *testing.T) {
	cfg := cfgNoSweep(ModeMDCC)
	w := newWorld(t, cfg, 1, 1, 1)
	tap := &sendTap{Network: w.net}
	cn := w.cl.Clients[0]
	w.coords[0] = NewCoordinator(cn.ID, cn.DC, tap, w.cl, cfg) // replaces the plain one's handler
	c := w.coords[0]
	reps := w.cl.Replicas("k/1")
	insert := func(key record.Key, x int64) []record.Update {
		return []record.Update{record.Insert(key, record.Value{Attrs: map[string]int64{"x": x}})}
	}

	// Two back-to-back commits: the second's propose to every replica
	// carries the first's visibility ahead of it.
	first := w.commit(0, insert("k/1", 1)...)
	if !first.Committed {
		t.Fatal("first commit aborted")
	}
	mark := len(tap.sent)
	var second *CommitResult
	var secondAt time.Time
	c.Commit(insert("k/2", 2), func(r CommitResult) { second, secondAt = &r, w.net.Now() })
	proposes := tap.sent[mark:]
	if len(proposes) != len(reps) {
		t.Fatalf("second commit sent %d envelopes, want one per replica (%d)", len(proposes), len(reps))
	}
	for i, s := range proposes {
		b, ok := s.msg.(transport.Batch)
		if s.to != reps[i] || !ok || len(b.Items) != 2 {
			t.Fatalf("envelope %d to %s is %T %+v, want a two-item Batch to %s", i, s.to, s.msg, s.msg, reps[i])
		}
		if !visibilityOf(b.Items[0].Msg, first.Tx) {
			t.Errorf("to %s: first item %T, want the first commit's visibility", s.to, b.Items[0].Msg)
		}
		if pb, ok := b.Items[1].Msg.(MsgProposeBatch); !ok || len(pb.Opts) != 1 || pb.Opts[0].Update.Key != "k/2" {
			t.Errorf("to %s: second item %T, want the second commit's propose", s.to, b.Items[1].Msg)
		}
	}
	for _, s := range tap.sent[:mark] {
		if visibilityOf(s.msg, first.Tx) {
			t.Fatalf("the first commit's visibility left on its own at %v, before the next send", s.at)
		}
	}

	// A lone commit's visibility leaves by itself within the linger.
	if !w.net.RunUntil(func() bool { return second != nil }, time.Minute) || !second.Committed {
		t.Fatal("second commit did not commit")
	}
	mark = len(tap.sent)
	w.net.RunFor(10 * BatchWindow)
	var got []transport.NodeID
	for _, s := range tap.sent[mark:] {
		if !visibilityOf(s.msg, second.Tx) {
			t.Fatalf("unexpected %T to %s after the second commit", s.msg, s.to)
		}
		if late := s.at.Sub(secondAt); late > BatchWindow {
			t.Errorf("visibility to %s left %v after the commit, past the %v linger", s.to, late, BatchWindow)
		}
		got = append(got, s.to)
	}
	if len(got) != len(reps) {
		t.Fatalf("lone visibility went to %v, want every replica %v", got, reps)
	}

	// A read sent right after a commit returns the committed version.
	var ver record.Version
	var val record.Value
	var read bool
	c.Commit(insert("k/3", 7), func(r CommitResult) {
		if !r.Committed {
			t.Error("third commit aborted")
		}
		c.Read("k/3", func(v record.Value, vr record.Version, ok bool) { val, ver, read = v, vr, ok })
	})
	if !w.net.RunUntil(func() bool { return read }, time.Minute) {
		t.Fatal("read after commit did not return the row")
	}
	if ver != 1 || val.Attr("x") != 7 {
		t.Fatalf("read after commit = %v v%d, want x=7 v1", val, ver)
	}
}

// TestSendQueueRule pins the one outbound queue under a window (a
// gateway's coordinator): more than batchMax sends to one node in one
// instant arrive in send order, in ⌈n/batchMax⌉ envelopes, the last when
// the window closes; a propose waits for the window; and visibility
// leaves with the next propose to its replica, in one envelope, or alone
// when its own window closes. (With no window, TestVisibilityRidesNextSend
// pins the rule.)
func TestSendQueueRule(t *testing.T) {
	t.Run("order and size", func(t *testing.T) {
		net := simnet.New(simnet.Options{Seed: 1}) // 1ms uniform latency
		cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: -1})
		c := NewCoordinator("coord", topology.USWest, net, cl, Defaults(ModeMDCC))
		c.SetBatchWindow(BatchWindow)
		var got []int
		var arrived []time.Duration
		start := net.Now()
		net.Register("sink", func(env transport.Envelope) {
			arrived = append(arrived, net.Now().Sub(start))
			switch m := env.Msg.(type) {
			case transport.Batch:
				for _, it := range m.Items {
					got = append(got, it.Msg.(int))
				}
			case int:
				got = append(got, m)
			}
		})
		const n = 2*batchMax + 22
		net.At(0, func() {
			for i := 0; i < n; i++ {
				c.send("sink", i)
			}
		})
		net.RunFor(time.Second)

		if len(got) != n {
			t.Fatalf("sink received %d messages, want %d", len(got), n)
		}
		for i, m := range got {
			if m != i {
				t.Fatalf("message %d arrived as the %dth", m, i)
			}
		}
		want := []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond + BatchWindow}
		if len(arrived) != len(want) {
			t.Fatalf("sink received %d envelopes, want %d", len(arrived), len(want))
		}
		for i := range want {
			if arrived[i] != want[i] {
				t.Errorf("envelope %d arrived at %v, want %v", i, arrived[i], want[i])
			}
		}
		if env, batched, singles := c.Batches(); env != 3 || batched != n || singles != 0 {
			t.Errorf("Batches() = %d, %d, %d; want 3, %d, 0", env, batched, singles, n)
		}
	})

	t.Run("visibility", func(t *testing.T) {
		cfg := cfgNoSweep(ModeMDCC)
		w := newWorld(t, cfg, 1, 1, 1)
		tap := &sendTap{Network: w.net}
		cn := w.cl.Clients[0]
		w.coords[0] = NewCoordinator(cn.ID, cn.DC, tap, w.cl, cfg)
		c := w.coords[0]
		c.SetBatchWindow(BatchWindow)
		reps := w.cl.Replicas("k/1")
		insert := func(key record.Key, x int64) []record.Update {
			return []record.Update{record.Insert(key, record.Value{Attrs: map[string]int64{"x": x}})}
		}

		// A lone commit: its proposes wait for the window, its visibility
		// leaves alone when the window it opened closes. The world charges
		// every event 100µs of service, so the timers closing one instant's
		// windows run one after another, within slack.
		const slack = time.Millisecond
		start := w.net.Now()
		var first *CommitResult
		var firstAt time.Time
		c.Commit(insert("k/1", 1), func(r CommitResult) { first, firstAt = &r, w.net.Now() })
		if !w.net.RunUntil(func() bool { return first != nil }, time.Minute) || !first.Committed {
			t.Fatal("first commit did not commit")
		}
		if len(tap.sent) != len(reps) {
			t.Fatalf("first commit sent %d envelopes, want one per replica (%d)", len(tap.sent), len(reps))
		}
		for _, s := range tap.sent {
			_, ok := s.msg.(MsgProposeBatch)
			if wait := s.at.Sub(start); !ok || wait < BatchWindow || wait > BatchWindow+slack {
				t.Errorf("to %s: %T %v after the commit began, want the propose when the %v window closes",
					s.to, s.msg, wait, BatchWindow)
			}
		}
		mark := len(tap.sent)
		w.net.RunFor(10 * BatchWindow)
		if len(tap.sent)-mark != len(reps) {
			t.Fatalf("first commit's visibility left in %d envelopes, want one per replica", len(tap.sent)-mark)
		}
		for _, s := range tap.sent[mark:] {
			if wait := s.at.Sub(firstAt); !visibilityOf(s.msg, first.Tx) || wait < BatchWindow || wait > BatchWindow+slack {
				t.Errorf("to %s: %T %v after the commit, want its visibility alone when the %v window closes",
					s.to, s.msg, wait, BatchWindow)
			}
		}

		// A commit whose callback commits again: the next propose to
		// each replica carries the visibility, in one envelope.
		mark = len(tap.sent)
		var second, third *CommitResult
		c.Commit(insert("k/2", 2), func(r CommitResult) {
			second = &r
			c.Commit(insert("k/3", 3), func(r CommitResult) { third = &r })
		})
		if !w.net.RunUntil(func() bool { return third != nil }, time.Minute) || !second.Committed || !third.Committed {
			t.Fatal("second or third commit did not commit")
		}
		rode := 0
		for _, s := range tap.sent[mark:] {
			if visibilityOf(s.msg, second.Tx) {
				t.Fatalf("the second commit's visibility left alone to %s", s.to)
			}
			b, ok := s.msg.(transport.Batch)
			if !ok {
				continue
			}
			if len(b.Items) != 2 || !visibilityOf(b.Items[0].Msg, second.Tx) {
				t.Fatalf("to %s: a Batch of %d items, want the second commit's visibility and the third's propose", s.to, len(b.Items))
			}
			if pb, ok := b.Items[1].Msg.(MsgProposeBatch); !ok || pb.Opts[0].Update.Key != "k/3" {
				t.Errorf("to %s: second item %T, want the third commit's propose", s.to, b.Items[1].Msg)
			}
			rode++
		}
		if rode != len(reps) {
			t.Errorf("visibility rode %d proposes, want one per replica (%d)", rode, len(reps))
		}
	})
}

// nullNet delivers nothing and never fires a timer, so a coordinator
// driven by hand on it allocates only what its own code does. It keeps
// the last message sent.
type nullNet struct{ last transport.Message }

func (*nullNet) Register(transport.NodeID, transport.Handler)                  {}
func (n *nullNet) Send(_, _ transport.NodeID, msg transport.Message)           { n.last = msg }
func (*nullNet) After(transport.NodeID, time.Duration, func()) transport.Timer { return nullTimer{} }
func (*nullNet) Now() time.Time                                                { return time.Time{} }

type nullTimer struct{}

func (nullTimer) Stop() bool { return true }

// TestOneShardCommitBuildsOnce: a write set within one shard sends every
// replica the same propose message and queues every replica the same
// visibility message, and a whole commit — propose, a fast quorum of
// votes, visibility — costs a pinned number of allocations. A change
// that moves the count updates the pin and says why.
func TestOneShardCommitBuildsOnce(t *testing.T) {
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: -1})
	cn := cl.Clients[0]
	tap := &sendTap{Network: &nullNet{}}
	c := NewCoordinator(cn.ID, cn.DC, tap, cl, Defaults(ModeMDCC))
	reps := cl.Replicas("k/1")
	ups := []record.Update{
		record.Insert("k/1", record.Value{Attrs: map[string]int64{"x": 1}}),
		record.Insert("k/2", record.Value{Attrs: map[string]int64{"x": 2}}),
	}
	done := func(CommitResult) {}
	vote := func(opts []Option) {
		for _, rep := range reps[:c.q.Fast] {
			for _, o := range opts {
				c.onVote(rep, MsgVote{OptID: o.ID(), Decision: DecAccept})
			}
		}
	}

	c.Commit(ups, done)
	if len(tap.sent) != len(reps) {
		t.Fatalf("commit sent %d messages, want %d", len(tap.sent), len(reps))
	}
	opts := tap.sent[0].msg.(MsgProposeBatch).Opts
	for _, s := range tap.sent {
		if pb := s.msg.(MsgProposeBatch); &pb.Opts[0] != &opts[0] {
			t.Errorf("propose to %s built apart from the others", s.to)
		}
	}
	vote(opts)
	shared := c.vis[reps[0]].head.(MsgVisibilityBatch).Items
	for _, rep := range reps {
		q := c.vis[rep]
		if vb, ok := q.head.(MsgVisibilityBatch); !ok || &vb.Items[0] != &shared[0] || len(q.rest) != 0 {
			t.Fatalf("visibility queued for %s: %+v, want the one shared message", rep, q)
		}
	}
	c.FlushVisibility()

	// The parent of this change, which boxed each replica's propose and
	// visibility apart, allocated 38 objects for one key and 55 for two.
	nn := tap.Network.(*nullNet)
	for keys, pinned := range map[int]float64{1: 17, 2: 23} {
		c = NewCoordinator(cn.ID, cn.DC, nn, cl, Defaults(ModeMDCC))
		allocs := testing.AllocsPerRun(200, func() {
			c.Commit(ups[:keys], done)
			vote(nn.last.(MsgProposeBatch).Opts)
			c.FlushVisibility()
		})
		if allocs != pinned {
			t.Errorf("a one-shard %d-key commit allocates %v objects, pinned at %v", keys, allocs, pinned)
		}
	}
}
