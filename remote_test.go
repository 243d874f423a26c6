package mdcc

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/server"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// startTCPDeployment boots a real five-data-center deployment over
// loopback TCP (one transport per DC, as cmd/mdcc-server does) and
// returns its topology. withGateways additionally hosts each DC's
// gateway tier on its server transport (cmd/mdcc-server -gateway).
func startTCPDeployment(t *testing.T, mode Mode, cons []Constraint, withGateways bool) *RemoteTopology {
	topo, _ := deployTCP(t, mode, cons, withGateways)
	return topo
}

// deployTCP is startTCPDeployment that also returns each DC's graceful
// shutdown (server.Close, as mdcc-server runs it on SIGINT); the test's
// cleanup runs those not run before.
func deployTCP(t *testing.T, mode Mode, cons []Constraint, withGateways bool) (*RemoteTopology, map[DC]func()) {
	t.Helper()
	// First pass: bind listeners so we know every address.
	nets := make(map[DC]*transport.TCP)
	addrs := make(map[DC]string)
	for _, dc := range topology.AllDCs() {
		net := transport.NewTCP(nil)
		addr, err := net.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nets[dc], addrs[dc] = net, addr
		t.Cleanup(net.Close)
	}
	// Second pass: install routes, then start each DC as mdcc-server does.
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 0, ClientDC: -1})
	modeName := map[Mode]string{ModeMDCC: "mdcc", ModeFast: "fast", ModeMulti: "multi"}[mode]
	topo := &RemoteTopology{NodesPerDC: 1, Mode: modeName, Addrs: make(map[string]string)}
	stop := make(map[DC]func())
	for _, dc := range topology.AllDCs() {
		net := nets[dc]
		peers := make(map[DC]string)
		for peer, addr := range addrs {
			if peer != dc {
				peers[peer] = addr
			}
		}
		for id, addr := range server.Routes(peers, 1) {
			net.AddRoute(id, addr)
		}
		d, err := server.Start(dc, net, cl, loopbackConfig(mode, cons), nil, withGateways)
		if err != nil {
			t.Fatal(err)
		}
		var once sync.Once
		stop[dc] = func() { once.Do(func() { server.Close(net, d) }) }
		t.Cleanup(stop[dc])
		topo.Addrs[dc.String()] = addrs[dc]
	}
	return topo, stop
}

// loopbackConfig is startTCPDeployment's protocol config: the server's,
// with the timeouts tightened for a loopback "WAN" so recovery paths
// stay fast.
func loopbackConfig(mode Mode, cons []Constraint) core.Config {
	cfg := server.Config(mode, cons)
	cfg.OptionTimeout = 300 * time.Millisecond
	cfg.RecoveryRetry = 200 * time.Millisecond
	return cfg
}

func TestTCPDeploymentEndToEnd(t *testing.T) {
	topo := startTCPDeployment(t, ModeMDCC, []Constraint{MinBound("stock", 0)}, false)
	sess, err := Dial(topo, USWest, "t1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ok, err := sess.Commit(Insert("tcp/1", Value{Attrs: map[string]int64{"stock": 5}}))
	if err != nil || !ok {
		t.Fatalf("insert over TCP: ok=%v err=%v", ok, err)
	}
	waitFor(t, "tcp/1 readable at stock=5", func() bool {
		val, _, exists, err := sess.Read("tcp/1")
		if err != nil {
			t.Fatal(err)
		}
		return exists && val.Attr("stock") == 5
	})

	// Commutative decrement from a second client in another DC.
	sess2, err := Dial(topo, APTokyo, "t2", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	// A replica the insert's visibility has not reached yet rejects the
	// decrement against the stock >= 0 bound, so wait until the second
	// client's own data center reads the insert too.
	waitFor(t, "tcp/1 readable at stock=5 from ap-tk", func() bool {
		val, _, exists, err := sess2.Read("tcp/1")
		if err != nil {
			t.Fatal(err)
		}
		return exists && val.Attr("stock") == 5
	})
	ok, err = sess2.Commit(Commutative("tcp/1", map[string]int64{"stock": -2}))
	if err != nil || !ok {
		t.Fatalf("decrement over TCP: ok=%v err=%v", ok, err)
	}
	waitFor(t, "stock to converge to 3", func() bool {
		val, _, _, err := sess.Read("tcp/1")
		if err != nil {
			t.Fatal(err)
		}
		return val.Attr("stock") == 3
	})
}

func TestTCPConflictDetection(t *testing.T) {
	topo := startTCPDeployment(t, ModeMDCC, nil, false)
	a, err := Dial(topo, USWest, "a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(topo, USEast, "b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if ok, err := a.Commit(Insert("tcp/c", Value{Attrs: map[string]int64{"x": 0}})); err != nil || !ok {
		t.Fatalf("insert: %v %v", ok, err)
	}
	var ver Version
	waitFor(t, "tcp/c insert visibility", func() bool {
		var exists bool
		_, ver, exists, _ = a.Read("tcp/c")
		return exists
	})
	okA, _ := a.Commit(Physical("tcp/c", ver, Value{Attrs: map[string]int64{"x": 1}}))
	okB, _ := b.Commit(Physical("tcp/c", ver, Value{Attrs: map[string]int64{"x": 2}}))
	if okA && okB {
		t.Fatal("both conflicting writers committed over TCP")
	}
}

// TestGatewayRPCOutcomeUnknown pins the client-visible unknown-outcome
// surface: a gateway that accepts a transaction and never acknowledges
// it (crash, partition, lost reply) must fail the session's Commit
// with the typed *OutcomeUnknownError — carrying the submission id —
// after the settle deadline, well before the generic session timeout
// would fire. Blind retries are unsafe on this error (the transaction
// may still commit), which is why it is distinct from ErrTimeout.
// A clientID names a seat, not a process lifetime: a second Dial under
// the same id (mdcc-client's default id is its pid, a constant in a
// container) registers the same coordinator node, and its first write to
// a key its predecessor wrote must be applied, not answered from the
// predecessor's settled decision.
func TestDialReusedClientID(t *testing.T) {
	topo := startTCPDeployment(t, ModeMDCC, nil, false)
	first, err := Dial(topo, USWest, "seat", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := first.Commit(Insert("seat/1", Value{Attrs: map[string]int64{"n": 1}})); err != nil || !ok {
		t.Fatalf("first session's insert: ok=%v err=%v", ok, err)
	}
	waitFor(t, "the insert to be visible", func() bool {
		_, ver, _, err := first.ReadLatest("seat/1")
		return err == nil && ver == 1
	})
	first.Close()
	// The incarnation token resolves one millisecond; no process restart
	// is faster, but two Dials in one test can be.
	time.Sleep(2 * time.Millisecond)

	second, err := Dial(topo, USWest, "seat", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if ok, err := second.Commit(Physical("seat/1", 1, Value{Attrs: map[string]int64{"n": 2}})); err != nil || !ok {
		t.Fatalf("second session's first write: ok=%v err=%v", ok, err)
	}
	waitFor(t, "the second session's acknowledged write to be applied", func() bool {
		v, _, _, err := second.ReadLatest("seat/1")
		return err == nil && v.Attr("n") == 2
	})
}

func TestGatewayRPCOutcomeUnknown(t *testing.T) {
	srv := transport.NewTCP(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	gwID := gateway.GatewayID(USWest)
	// Black-hole gateway: accepts every RPC, replies to none — the
	// observable behavior of a gateway that crashed with the
	// transaction in hand.
	srv.Register(gwID, func(transport.Envelope) {})

	cli := transport.NewTCP(map[transport.NodeID]string{gwID: addr})
	selfAddr, err := cli.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	id := transport.NodeID("client/unknown-outcome-test")
	cli.Hello(addr, id, selfAddr)

	cfg := core.Defaults(ModeMDCC)
	b := &gatewayRPCBackend{id: id, gwID: gwID, net: cli, unknownAfter: 200 * time.Millisecond}
	cli.Register(id, b.handle)
	s := newSession(b, cfg)

	start := time.Now()
	ok, err := s.Commit(Commutative("unk/1", map[string]int64{"x": 1}))
	if ok {
		t.Fatal("black-holed commit reported committed")
	}
	if !errors.Is(err, ErrOutcomeUnknown) {
		t.Fatalf("want ErrOutcomeUnknown, got %v", err)
	}
	var oe *OutcomeUnknownError
	if !errors.As(err, &oe) || oe.TxID == "" {
		t.Fatalf("typed error without a transaction id: %#v", err)
	}
	if elapsed := time.Since(start); elapsed >= s.timeout {
		t.Fatalf("typed error took %v, not faster than the generic session timeout %v", elapsed, s.timeout)
	}
}

// TestGatewayRPCReplyStopsSettleDeadline: the reply that claims an RPC
// commit stops the commit's settle-deadline timer, so a deadline does
// not outlive the call it guards.
func TestGatewayRPCReplyStopsSettleDeadline(t *testing.T) {
	cli := transport.NewTCP(nil)
	t.Cleanup(cli.Close)
	b := &gatewayRPCBackend{id: "client/deadline-test", gwID: gateway.GatewayID(USWest), net: cli, unknownAfter: time.Minute}
	var committed bool
	b.Commit([]Update{Commutative("dl/1", map[string]int64{"x": 1})}, func(ok bool, _ error) { committed = ok })
	b.mu.Lock()
	req := b.seq
	p := b.pending[req]
	b.mu.Unlock()
	if p.deadline == nil {
		t.Fatal("pending commit holds no settle-deadline timer")
	}
	b.handle(transport.Envelope{Msg: gateway.MsgTxReply{ReqID: req, Committed: true}})
	if !committed {
		t.Fatal("the reply did not reach the caller")
	}
	if p.deadline.Stop() {
		t.Fatal("the settle deadline was still armed after the reply claimed the commit")
	}
}

// TestGatewayRPCCarriesRefusal: a refused commit reaches a DialGateway
// session as the error an in-process session gets, not as a plain
// abort. A write-set naming a key twice returns ErrRepeatedKey, a
// Transact staging one runs its function once and returns that error
// (a plain abort would run it three times), and the key stays writable.
func TestGatewayRPCCarriesRefusal(t *testing.T) {
	topo, _ := deployTCP(t, ModeMDCC, nil, true)
	sess, err := DialGateway(topo, USWest, "refused", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	add := Commutative("ref/a", map[string]int64{"x": 1})
	if ok, err := sess.Commit(add, add); ok || !errors.Is(err, ErrRepeatedKey) {
		t.Fatalf("Commit(a, a) = %v, %v; want false, ErrRepeatedKey", ok, err)
	}
	runs := 0
	ok, err := sess.Transact(3, func(tx *TxView) error {
		runs++
		tx.Add("ref/a", map[string]int64{"x": 1})
		tx.Add("ref/a", map[string]int64{"x": 2})
		return nil
	})
	if ok || !errors.Is(err, ErrRepeatedKey) || runs != 1 {
		t.Fatalf("Transact(3) staging ref/a twice = %v, %v after %d runs; want false, ErrRepeatedKey after 1", ok, err, runs)
	}
	if ok, err := sess.Commit(Insert("ref/a", Value{Attrs: map[string]int64{"x": 5}})); !ok || err != nil {
		t.Fatalf("a single write after the refusals: Commit = %v, %v", ok, err)
	}
}

func TestRemoteTopologyParsing(t *testing.T) {
	path := t.TempDir() + "/topo.json"
	blob := `{
	  "nodesPerDC": 2,
	  "mode": "multi",
	  "addrs": {"us-west": "a:1", "us-east": "b:2", "eu-ie": "c:3", "ap-sg": "d:4", "ap-tk": "e:5"},
	  "constraints": [{"attr": "stock", "min": 0}]
	}`
	if err := writeFile(path, blob); err != nil {
		t.Fatal(err)
	}
	topo, err := LoadRemoteTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NodesPerDC != 2 {
		t.Fatalf("nodesPerDC = %d", topo.NodesPerDC)
	}
	mode, err := topo.ModeValue()
	if err != nil || mode != ModeMulti {
		t.Fatalf("mode = %v %v", mode, err)
	}
	cons := topo.ConstraintList()
	if len(cons) != 1 || cons[0].Attr != "stock" || *cons[0].Min != 0 {
		t.Fatalf("constraints = %+v", cons)
	}
	routes, err := topo.routes()
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 20 { // per DC: two storage nodes and the two gateway-tier ids
		t.Fatalf("routes = %d entries, want 20", len(routes))
	}
	if _, err := ParseDC("mars"); err == nil {
		t.Fatal("ParseDC accepted nonsense")
	}
	if _, err := ParseMode("nonsense"); err == nil {
		t.Fatal("ParseMode accepted nonsense")
	}
}

// TestRemoteTopologyRejectsUnknownKeys: a topology file carrying a key
// the schema does not have — the removed "codec" setting, or a typo —
// is refused with an error naming the key, instead of booting a
// deployment that quietly ignores it.
func TestRemoteTopologyRejectsUnknownKeys(t *testing.T) {
	for key, blob := range map[string]string{
		"codec": `{"nodesPerDC": 1, "mode": "mdcc", "codec": "gob", "addrs": {"us-west": "a:1"}}`,
		"adrs":  `{"nodesPerDC": 1, "mode": "mdcc", "adrs": {"us-west": "a:1"}}`,
	} {
		path := t.TempDir() + "/topo.json"
		if err := writeFile(path, blob); err != nil {
			t.Fatal(err)
		}
		_, err := LoadRemoteTopology(path)
		if err == nil {
			t.Fatalf("topology with unknown key %q loaded", key)
		}
		if !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("error %q does not name the key %q", err, key)
		}
	}
}

// TestRemoteTopologyRefusesMeaninglessValues: two values the schema
// can hold but a deployment cannot mean are refused at load, with an
// error naming the key or attribute. A negative nodesPerDC used to run
// as 1, and a constraint whose min exceeds its max loaded and then
// refused every write touching its attribute. An absent or 0
// nodesPerDC keeps meaning 1.
func TestRemoteTopologyRefusesMeaninglessValues(t *testing.T) {
	for _, tc := range []struct {
		blob  string
		names string // what the error names; "" = loads
		nodes int
	}{
		{blob: `{"nodesPerDC": -1, "addrs": {"us-west": "a:1"}}`, names: "nodesPerDC"},
		{blob: `{"nodesPerDC": -3, "addrs": {"us-west": "a:1"}}`, names: "nodesPerDC"},
		{blob: `{"constraints": [{"attr": "stock", "min": 5, "max": 2}]}`, names: `"stock"`},
		{blob: `{"constraints": [{"attr": "ok", "min": 0}, {"attr": "seats", "min": 1, "max": 0}]}`, names: `"seats"`},
		{blob: `{"nodesPerDC": 0, "constraints": [{"attr": "stock", "min": 2, "max": 2}]}`, nodes: 1},
		{blob: `{"addrs": {"us-west": "a:1"}}`, nodes: 1},
		{blob: `{"nodesPerDC": 3}`, nodes: 3},
	} {
		path := t.TempDir() + "/topo.json"
		if err := writeFile(path, tc.blob); err != nil {
			t.Fatal(err)
		}
		topo, err := LoadRemoteTopology(path)
		switch {
		case tc.names == "" && err != nil:
			t.Errorf("%s: %v", tc.blob, err)
		case tc.names == "" && topo.NodesPerDC != tc.nodes:
			t.Errorf("%s: nodesPerDC %d, want %d", tc.blob, topo.NodesPerDC, tc.nodes)
		case tc.names != "" && err == nil:
			t.Errorf("%s loaded", tc.blob)
		case tc.names != "" && !strings.Contains(err.Error(), tc.names):
			t.Errorf("%s: error %q does not name %s", tc.blob, err, tc.names)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestCloseSendsOwedVisibility: a one-shot client — dial, commit, close
// at once, as cmd/mdcc-client's set does — leaves nothing for the
// replicas' pending sweep: every replica applies the write well inside
// PendingTimeout.
func TestCloseSendsOwedVisibility(t *testing.T) {
	topo := startTCPDeployment(t, ModeMDCC, nil, false)
	sess, err := Dial(topo, USWest, "once", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := sess.Commit(Insert("once/1", Value{Attrs: map[string]int64{"n": 1}}))
	sess.Close()
	if err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	closed := time.Now()
	within := loopbackConfig(ModeMDCC, nil).PendingTimeout / 5
	for _, dc := range topology.AllDCs() {
		r, err := Dial(topo, dc, "reader-"+dc.String(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for {
			_, ver, _, err := r.Read("once/1")
			if err == nil && ver == 1 {
				break
			}
			if time.Since(closed) > within {
				t.Fatalf("%s's replica does not hold the write %v after the writer closed", dc, within)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestGatewayCloseSendsOwedVisibility: a commit a gateway acknowledged
// just before its server shuts down gracefully reaches every other
// replica well inside PendingTimeout. server.Close has the gateway's
// coordinator send what it still owes, and the transport put it on the
// wire, before it stops the transport.
func TestGatewayCloseSendsOwedVisibility(t *testing.T) {
	topo, stop := deployTCP(t, ModeMDCC, nil, true)
	sess, err := DialGateway(topo, USWest, "once", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ok, err := sess.Commit(Insert("gwonce/1", Value{Attrs: map[string]int64{"n": 1}}))
	stop[USWest]()
	if err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	closed := time.Now()
	within := loopbackConfig(ModeMDCC, nil).PendingTimeout / 5
	for _, dc := range topology.AllDCs() {
		if dc == USWest {
			continue
		}
		r, err := Dial(topo, dc, "reader-"+dc.String(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for {
			_, ver, _, err := r.Read("gwonce/1")
			if err == nil && ver == 1 {
				break
			}
			if time.Since(closed) > within {
				t.Fatalf("%s's replica does not hold the write %v after US-West's server closed", dc, within)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
