package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"mdcc/internal/clock"
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/kv"
	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
	"mdcc/internal/wal"
)

// The ladder measures each layer alone, through its public functions,
// with fixed iteration counts. It does not depend on the workload.

// ladder appends every ladder metric to rep.
func ladder(rep *report, o options) error {
	scale := 1
	if o.quick {
		scale = 10
	}
	dir := filepath.Join(o.scratch, fmt.Sprintf("ladder-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	rungs := []func(*report, int, string) error{codecRung, tcpRung, localRung, walRung, kvRung, coreRung, gatewayRung}
	for _, rung := range rungs {
		if err := rung(rep, scale, dir); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	return nil
}

// nsPerOp times n calls of f, five times, and returns the median.
func nsPerOp(n int, f func()) float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		runs = append(runs, float64(time.Since(t0))/float64(n))
	}
	return median(runs)
}

func sampleOption(i int) core.Option {
	key := record.Key(fmt.Sprintf("k/%06d", i))
	return core.Option{
		Tx: core.TxID(fmt.Sprintf("session1.1#%d", i)), Coord: "session1",
		Update:   record.Physical(key, 7, record.Value{Attrs: map[string]int64{counterAttr: int64(i)}}),
		WriteSet: []record.Key{key}, KeySeq: uint64(i), WriteSeqs: []uint64{uint64(i)},
	}
}

func codecRung(rep *report, scale int, _ string) error {
	var opts []core.Option
	var votes []core.MsgVote
	var vis []core.MsgVisibility
	var cstruct []core.VotedOption
	for i := 0; i < 3; i++ {
		o := sampleOption(i)
		opts = append(opts, o)
		votes = append(votes, core.MsgVote{OptID: o.ID(), Ballot: paxos.FastBallot(0), Decision: core.Decision(1)})
		vis = append(vis, core.MsgVisibility{Opt: o, Commit: true})
		cstruct = append(cstruct, core.VotedOption{Opt: o, Decision: core.Decision(1)})
	}
	samples := []struct {
		name string
		msg  transport.Message
	}{
		{"ProposeBatch", core.MsgProposeBatch{Opts: opts}},
		{"VoteBatch", core.MsgVoteBatch{Votes: votes}},
		{"VisibilityBatch", core.MsgVisibilityBatch{Items: vis}},
		{"Phase2a", core.MsgPhase2a{Key: opts[0].Update.Key, Ballot: paxos.Classic(3, "us-west/store0"), Seq: 9, CStruct: cstruct}},
		{"TxReq", gateway.MsgTx{ReqID: 42, Updates: []record.Update{opts[0].Update}}},
	}
	for _, s := range samples {
		env := transport.Envelope{From: "us-west/store0", To: "gw/us-west/c0", Msg: s.msg}
		buf, err := transport.AppendEnvelope(nil, env)
		if err != nil {
			return fmt.Errorf("codec %s: %w", s.name, err)
		}
		enc := nsPerOp(20000/scale, func() { buf, _ = transport.AppendEnvelope(buf[:0], env) })
		dec := nsPerOp(20000/scale, func() { _, err = transport.DecodeFrame(buf) })
		if err != nil {
			return fmt.Errorf("codec %s: decode: %w", s.name, err)
		}
		rep.add("transport.codec.encode_ns."+s.name, enc, "ns")
		rep.add("transport.codec.decode_ns."+s.name, dec, "ns")
		rep.add("transport.codec.bytes."+s.name, float64(len(buf)), "B")
	}
	return nil
}

// flood sends n messages from a to b, never more than window ahead of
// the receiver (the transports drop, not block, when a queue is full),
// and returns messages per second.
func flood(net transport.Network, recv *atomic.Int64, n, window int) float64 {
	base := recv.Load()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for int64(i)-(recv.Load()-base) >= int64(window) {
			runtime.Gosched()
		}
		net.Send("a", "b", core.MsgRead{ReqID: uint64(i), Key: "k/000001"})
	}
	for recv.Load()-base < int64(n) {
		runtime.Gosched()
	}
	return float64(n) / time.Since(t0).Seconds()
}

func tcpRung(rep *report, scale int, _ string) error {
	a, b := transport.NewTCP(nil), transport.NewTCP(nil)
	defer a.Close()
	defer b.Close()
	addrA, err := a.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	addrB, err := b.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	a.AddRoute("b", addrB)
	b.AddRoute("a", addrA)
	var recv atomic.Int64
	var echo atomic.Bool
	echo.Store(true)
	pong := make(chan struct{}, 1)
	a.Register("a", func(transport.Envelope) { pong <- struct{}{} })
	b.Register("b", func(env transport.Envelope) {
		recv.Add(1)
		if echo.Load() {
			b.Send("b", "a", env.Msg)
		}
	})
	var rtt []int64
	for i := 0; i < 3000/scale; i++ {
		t0 := time.Now()
		a.Send("a", "b", core.MsgRead{ReqID: uint64(i), Key: "k/000001"})
		select {
		case <-pong:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("tcp echo: no reply")
		}
		rtt = append(rtt, int64(time.Since(t0)))
	}
	echo.Store(false)
	rep.add("transport.tcp.echo_p50_us", 1e3*msSample(rtt[len(rtt)/10:]).Median(), "us")
	rep.add("transport.tcp.msgs_per_s", flood(a, &recv, 200000/scale, 2048), "1/s")
	return nil
}

func localRung(rep *report, scale int, _ string) error {
	var recv atomic.Int64
	instant := transport.NewLocal(nil)
	defer instant.Close()
	instant.Register("b", func(transport.Envelope) { recv.Add(1) })
	rep.add("transport.local.msgs_per_s", flood(instant, &recv, 200000/scale, 2048), "1/s")

	// With latency, Send arms one timer per message.
	delayed := transport.NewLocal(func(_, _ transport.NodeID) time.Duration { return time.Millisecond })
	defer delayed.Close()
	recv.Store(0)
	delayed.Register("b", func(transport.Envelope) { recv.Add(1) })
	n := 50000 / scale
	msg := core.MsgRead{ReqID: 1, Key: "k/000001"}
	perSend := nsPerOp(n, func() { delayed.Send("a", "b", msg) })
	for recv.Load() < int64(5*n) {
		time.Sleep(time.Millisecond)
	}
	rep.add("transport.local.timer_send_ns", perSend, "ns")
	return nil
}

// appendLatencies runs writers goroutines, each appending n records, and
// returns every append's latency and the appends per second.
func appendLatencies(l *wal.Log, writers, n int) (lat []int64, perSec float64, err error) {
	payload := make([]byte, 128)
	all := make([][]int64, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n && errs[w] == nil; i++ {
				s := time.Now()
				errs[w] = l.Append(payload)
				all[w] = append(all[w], int64(time.Since(s)))
			}
		}(w)
	}
	wg.Wait()
	perSec = float64(writers*n) / time.Since(t0).Seconds()
	for w := range all {
		lat = append(lat, all[w]...)
		if errs[w] != nil {
			err = errs[w]
		}
	}
	return lat, perSec, err
}

func walRung(rep *report, scale int, dir string) error {
	for _, writers := range []int{1, 8} {
		l, err := wal.Open(filepath.Join(dir, fmt.Sprintf("wal-w%d", writers)), wal.Options{GroupCommit: true})
		if err != nil {
			return err
		}
		lat, perSec, err := appendLatencies(l, writers, 400/scale+8)
		st := l.Stats()
		l.Close()
		if err != nil {
			return err
		}
		rep.add(fmt.Sprintf("wal.append_p50_us.w%d", writers), 1e3*msSample(lat).Median(), "us")
		if writers == 8 {
			rep.add("wal.appends_per_s.w8", perSec, "1/s")
			rep.add("wal.appends_per_fsync.w8", ratio(float64(st.SyncedAppends), float64(st.Syncs)), "1")
		}
	}
	return nil
}

func kvRung(rep *report, scale int, dir string) error {
	n := 100000 / scale
	keys := make([]record.Key, n)
	for i := range keys {
		keys[i] = record.Key(fmt.Sprintf("k/%06d", i))
	}
	val := record.Value{Attrs: map[string]int64{counterAttr: 1}}
	mem := kv.NewMemory()
	t0 := time.Now()
	for i, k := range keys {
		if err := mem.Put(k, val, record.Version(i)); err != nil {
			return err
		}
	}
	rep.add("kv.put_ns.mem", float64(time.Since(t0))/float64(n), "ns")
	i := 0
	rep.add("kv.get_ns", nsPerOp(n, func() { mem.Get(keys[i%n]); i += stride }), "ns")

	st, err := kv.Open(filepath.Join(dir, "kv"), false)
	if err != nil {
		return err
	}
	defer st.Close()
	var lat []int64
	for i := 0; i < 400/scale+8; i++ {
		s := time.Now()
		if err := st.Put(keys[i], val, 1); err != nil {
			return err
		}
		lat = append(lat, int64(time.Since(s)))
	}
	rep.add("kv.put_p50_us.durable", 1e3*msSample(lat).Median(), "us")
	return nil
}

// pumpNet is a transport.Network run by one goroutine: Send and zero
// timers queue, pump delivers until nothing is left. Every message is
// delivered, so timers that guard against loss never fire.
type pumpNet struct {
	handlers map[transport.NodeID]transport.Handler
	queue    []func()
	// observe, when set, sees every delivery to target with its handler
	// time and the heap objects it allocated.
	target  transport.NodeID
	observe func(msg transport.Message, ns int64, allocs uint64)
}

type neverTimer struct{}

func (neverTimer) Stop() bool { return true }

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (p *pumpNet) Register(id transport.NodeID, h transport.Handler) { p.handlers[id] = h }
func (p *pumpNet) Now() time.Time                                    { return time.Now() }

func (p *pumpNet) Send(from, to transport.NodeID, msg transport.Message) {
	p.queue = append(p.queue, func() {
		h, env := p.handlers[to], transport.Envelope{From: from, To: to, Msg: msg}
		if to != p.target || p.observe == nil {
			h(env)
			return
		}
		a0, t0 := heapObjects(), time.Now()
		h(env)
		ns := int64(time.Since(t0))
		p.observe(msg, ns, heapObjects()-a0)
	})
}

func (p *pumpNet) After(_ transport.NodeID, d time.Duration, f func()) clock.Timer {
	if d == 0 {
		p.queue = append(p.queue, f)
	}
	return neverTimer{}
}

func (p *pumpNet) pump() {
	for len(p.queue) > 0 {
		f := p.queue[0]
		p.queue = p.queue[1:]
		f()
	}
}

// coreRung drives one coordinator and five in-memory acceptors over a
// pumpNet: the protocol's CPU cost with no network, no goroutines and no
// waiting. One acceptor's handler calls are timed by message type.
func coreRung(rep *report, scale int, _ string) error {
	net := &pumpNet{handlers: make(map[transport.NodeID]transport.Handler)}
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 0, ClientDC: -1})
	cfg := core.Defaults(core.ModeMDCC)
	cfg.PendingTimeout = 0 // no dangling-option sweep: its timer would never fire here
	for _, n := range cl.Storage {
		core.NewStorageNode(n.ID, n.DC, net, cl, cfg, kv.NewMemory())
	}
	co := core.NewCoordinator("session1", homeDC, net, cl, cfg)
	net.target = topology.StorageID(homeDC, 0)

	n := 3000 / scale
	commit := func(up record.Update) (time.Duration, error) {
		var took time.Duration
		var res core.CommitResult
		t0 := time.Now()
		co.Commit([]record.Update{up}, func(r core.CommitResult) { took, res = time.Since(t0), r })
		net.pump()
		if !res.Committed {
			return 0, fmt.Errorf("core rung: %v not committed: %v", up, res.Err)
		}
		return took, nil
	}
	key := func(i int) record.Key { return record.Key(fmt.Sprintf("k/%06d", i)) }
	for i := 0; i < n; i++ {
		if _, err := commit(record.Insert(key(i), record.Value{Attrs: map[string]int64{counterAttr: 0}})); err != nil {
			return err
		}
	}
	var proposeNs, proposeAllocs, proposeN, visNs, visN float64
	net.observe = func(msg transport.Message, ns int64, allocs uint64) {
		switch typeOf(msg) {
		case tProposeFast, tProposeBatch:
			proposeNs, proposeAllocs, proposeN = proposeNs+float64(ns), proposeAllocs+float64(allocs), proposeN+1
		case tVisibility, tVisibilityBatch:
			visNs, visN = visNs+float64(ns), visN+1
		}
	}
	var commitNs []int64
	for i := 0; i < n; i++ {
		took, err := commit(record.Physical(key(i), 1, record.Value{Attrs: map[string]int64{counterAttr: 1}}))
		if err != nil {
			return err
		}
		commitNs = append(commitNs, int64(took))
	}
	rep.add("core.acceptor.propose_ns", ratio(proposeNs, proposeN), "ns")
	rep.add("core.acceptor.visibility_ns", ratio(visNs, visN), "ns")
	rep.add("core.acceptor.allocs_per_propose", ratio(proposeAllocs, proposeN), "1")
	rep.add("core.coord.commit_us.instant", 1e3*msSample(commitNs).Median(), "us")
	return nil
}

// sendHook reports when the first proposal after arm reaches the network.
type sendHook struct {
	transport.Network
	armed atomic.Bool
	at    atomic.Int64 // UnixNano of that Send
}

func (h *sendHook) Send(from, to transport.NodeID, msg transport.Message) {
	if h.armed.Load() && carriesProposal(msg) && h.armed.CompareAndSwap(true, false) {
		h.at.Store(time.Now().UnixNano())
	}
	h.Network.Send(from, to, msg)
}

func carriesProposal(msg transport.Message) bool {
	if b, ok := msg.(transport.Batch); ok {
		for _, it := range b.Items {
			if carriesProposal(it.Msg) {
				return true
			}
		}
		return false
	}
	typ := typeOf(msg)
	return typ == tProposeFast || typ == tProposeBatch
}

// gatewayRung measures admit → dispatch: from Gateway.Commit to the
// transaction's first proposal leaving for the network, once with the
// windows off and once with the default tuning.
func gatewayRung(rep *report, scale int, _ string) error {
	for _, arm := range []struct {
		name string
		tun  gateway.Tuning
	}{
		{"window0", gateway.Tuning{BatchWindow: -1, CoalesceWindow: -1}},
		{"default", gateway.Tuning{}},
	} {
		local := transport.NewLocal(nil)
		hook := &sendHook{Network: local}
		cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 0, ClientDC: -1})
		cfg := core.Defaults(core.ModeMDCC)
		for _, n := range cl.Storage {
			core.NewStorageNode(n.ID, n.DC, hook, cl, cfg, kv.NewMemory())
		}
		gw := gateway.New(homeDC, hook, cl, cfg, arm.tun)
		commit := func(up record.Update) error {
			done := make(chan bool, 1)
			gw.Commit([]record.Update{up}, func(ok bool, _ error) { done <- ok })
			select {
			case ok := <-done:
				if !ok {
					return fmt.Errorf("gateway rung: %v not committed", up)
				}
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("gateway rung: %v timed out", up)
			}
		}
		var lat []int64
		err := func() error {
			defer local.Close()
			defer gw.Close()
			for i := 0; i < 150/scale+10; i++ {
				key := record.Key(fmt.Sprintf("k/%06d", i))
				// Let the last transaction's visibility leave first: its open
				// batch window would otherwise carry this proposal out early
				// or late, depending on how the two happen to interleave.
				time.Sleep(2 * gw.Tuning().BatchWindow)
				hook.armed.Store(true)
				t0 := time.Now().UnixNano()
				if err := commit(record.Insert(key, record.Value{Attrs: map[string]int64{counterAttr: 0}})); err != nil {
					return err
				}
				lat = append(lat, hook.at.Load()-t0)
			}
			return nil
		}()
		if err != nil {
			return err
		}
		rep.add("gateway.admit_us."+arm.name, 1e3*msSample(lat).Median(), "us")
	}
	return nil
}
