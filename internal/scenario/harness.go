package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mdcc/internal/check"
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/kv"
	"mdcc/internal/mtx"
	"mdcc/internal/record"
	"mdcc/internal/ring"
	"mdcc/internal/server"
	"mdcc/internal/simnet"
	"mdcc/internal/stats"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
	"mdcc/internal/wal"
)

// Epilogue pacing: after the traffic window the harness heals every
// fault, waits for in-flight transactions to settle, then lets the
// dangling-option sweep and anti-entropy converge the replicas before
// validating.
const (
	drainBudget   = 4 * time.Minute
	convergeAfter = 30 * time.Second
	sweepTimeout  = 3 * time.Second
	// recoveryWallBound is the documented crash-recovery bound: real
	// (wall-clock) time a storage restart may spend reopening its
	// durable state — snapshot load plus bounded tail replay. Checked
	// on every restart by check.ValidateRecovery; generous against CI
	// scheduling noise, far below an unbounded full-log replay at
	// scale.
	recoveryWallBound = 5 * time.Second
)

// Run is one scenario execution. Nemesis functions receive it to
// schedule fault events; everything else is driven by Scenario.Run.
type Run struct {
	Opts    Options
	Net     *simnet.Net
	Cluster *topology.Cluster
	Cfg     core.Config

	scn     *Scenario
	nodes   []*core.StorageNode // parallel to Cluster.Storage
	dirs    []string
	faults  []*wal.Faults        // per-node disk fault handles (parallel to nodes)
	downDC  map[topology.DC]bool // Fail-style outages to undo at heal
	crashed map[int]bool         // storage index -> awaiting restart

	// Durable-storage observations: the durability gauges captured at
	// each crash (so the restart's replay can be judged against what
	// had actually accumulated), every restart's recovery record, and
	// the injected-fault / wiped-rebuild tallies for the report.
	crashInfo  map[int]core.DurabilityInfo
	recoveries []check.RecoveryRecord
	diskFaults int
	wiped      int
	// Counters of dead storage incarnations (accumulated at crash so a
	// replaced node's checkpoints and degrade latches still show in the
	// report; live incarnations are read at run end).
	deadCheckpoints int64
	deadDegrades    int64
	coords          []*core.Coordinator
	gws             map[topology.DC]*gateway.Gateway // gateway scenarios only
	clients         []mtx.Client
	hist            *check.History
	initial         map[record.Key]record.Value

	// Gateway fault-injection state (gateway scenarios only).
	gwDown         map[topology.DC]bool // crashed, awaiting restart
	gwRetired      []*gateway.Gateway   // dead incarnations (metrics)
	gwUnknownTyped int                  // typed in-process ErrOutcomeUnknown observations

	// Live shard-move state (Scenario.Rebalance and churn QueueMove);
	// see rebalance.go.
	moveQueue  []queuedMove              // pending membership changes, FIFO
	rebMoving  func(record.Key) bool     // keys re-homed by the staged epoch
	rebNext    ring.Epoch                // the staged epoch
	rebFrozen  bool                      // a move is in flight: freeze fence up (freeze..publish)
	rebIssued  map[int]*core.StorageNode // storage idx -> incarnation a pull chain was issued on
	rebDone    map[int]bool              // storage idx -> bootstrap chain complete
	rebAdopted map[int]int               // storage idx -> keys adopted by its chain
	wrongShard int                       // client commits refused by the fence and retried

	// Session-guarantee floors, one per client (gateway scenarios
	// only): the product's own bookkeeping (what
	// Session.EnableSessionGuarantees keeps), fed to the same
	// mtx.ReadAtFloor — and recomputed independently by
	// check.ValidateSessionReads from the history.
	floors []mtx.Floors

	trafficEnd time.Time
	inflight   int
	readFails  int
	lat        *stats.Sample
	events     []string
	tmp        bool // Dir was created by us
}

// Run executes the scenario and returns its validated result.
func (s *Scenario) Run(o Options) (*Result, error) {
	// Sizing: the option, else the scenario's default, else the harness's.
	o.Clients = firstPositive(o.Clients, s.Clients, 50)
	o.NodesPerDC = firstPositive(o.NodesPerDC, s.NodesPerDC, 1)
	o.Duration = firstPositive(o.Duration, s.Duration, time.Minute)
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	r, err := build(s, o)
	if err != nil {
		return nil, err
	}
	defer r.close()
	return r.run()
}

// config is the protocol config a run of s deploys: the server's
// (anti-entropy included), with the harness's sweep, the scenario's own
// knobs and, under Options.Trace, a flight recorder; the whole
// simulated cluster is one process, so one Recorder numbers every
// ring's events in one append order.
// DESIGN.md §14 lists every field it sets.
func (s *Scenario) config(o Options) core.Config {
	cfg := server.Config(core.ModeMDCC, []record.Constraint{
		record.MinBound("bal", 0),
		record.MinBound("units", 0),
	})
	cfg.PendingTimeout = sweepTimeout
	if s.Gamma > 0 {
		cfg.Gamma = s.Gamma
	}
	cfg.MasterDC = s.MasterDC
	cfg.DecidedRetention = s.Retention
	cfg.CheckpointInterval = s.Checkpoint
	if o.Trace {
		cfg.Tracer = trace.New(trace.Config{SlowThreshold: o.TraceSlow})
	}
	return cfg
}

func firstPositive[T int | time.Duration](vals ...T) T {
	for _, v := range vals {
		if v > 0 {
			return v
		}
	}
	return 0
}

func build(s *Scenario, o Options) (*Run, error) {
	cl := topology.NewCluster(topology.Layout{
		NodesPerDC: o.NodesPerDC,
		Groups:     s.Groups,
		Clients:    o.Clients,
		ClientDC:   -1,
	})
	// Gateway scenarios add the gateway nodes (and their coordinators)
	// to the latency map, homed in their data centers.
	var extra map[transport.NodeID]topology.DC
	if s.Gateway {
		extra = server.GatewayPlacement()
	}
	net := simnet.New(simnet.Options{
		Latency:     cl.LatencyWith(extra),
		JitterFrac:  0.10,
		ServiceTime: 250 * time.Microsecond,
		DropProb:    o.DropProb,
		Seed:        o.Seed,
		OnDeliver:   o.onDeliver,
	})
	cfg := s.config(o)
	r := &Run{
		Opts:      o,
		Net:       net,
		Cluster:   cl,
		Cfg:       cfg,
		scn:       s,
		downDC:    make(map[topology.DC]bool),
		crashed:   make(map[int]bool),
		crashInfo: make(map[int]core.DurabilityInfo),
		hist:      check.New(),
		lat:       stats.NewSample(4096),
		gwDown:    make(map[topology.DC]bool),
	}
	if r.Opts.Dir == "" {
		dir, err := os.MkdirTemp("", "mdcc-scenario-")
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		r.Opts.Dir = dir
		r.tmp = true
	}
	for i, n := range cl.Storage {
		dir := filepath.Join(r.Opts.Dir, string(n.ID))
		r.faults = append(r.faults, wal.NewFaults())
		node, err := server.OpenNode(n.ID, n.DC, net, cl, cfg, dir, r.durOpts(i))
		if err != nil {
			r.close()
			return nil, err
		}
		r.dirs = append(r.dirs, dir)
		r.nodes = append(r.nodes, node)
	}
	if s.Gateway {
		// Clients attach to their DC's shared gateway instead of
		// owning coordinators — the serving-tier deployment model. The
		// crash-aware client records outcomes directly so a killed
		// gateway's typed ErrOutcomeUnknown becomes an Orphan entry,
		// never a wrongly recorded abort.
		r.gws = make(map[topology.DC]*gateway.Gateway)
		for _, dc := range topology.AllDCs() {
			r.gws[dc] = gateway.New(dc, net, cl, cfg, gateway.Tuning{})
		}
		r.floors = make([]mtx.Floors, len(cl.Clients))
		for _, c := range cl.Clients {
			r.clients = append(r.clients, gwClient{r: r, dc: c.DC, id: c.Index})
			r.floors[c.Index].Enable()
		}
	} else {
		for _, c := range cl.Clients {
			co := core.NewCoordinator(c.ID, c.DC, net, cl, cfg)
			r.coords = append(r.coords, co)
			r.clients = append(r.clients, r.hist.Client(c.Index, co.Client()))
		}
	}
	r.preload()
	return r, nil
}

// gwClient is the crash-aware client layer: it talks to the DC's
// *current* gateway incarnation (late-bound map lookup, so restarts
// swap the incarnation underneath), records commit outcomes into the
// history, diverts the in-process ErrOutcomeUnknown to Orphan
// entries, and fails fast while the DC's gateway is down (connection
// refused — nothing was submitted, nothing is recorded). What a
// crashing gateway still holds it answers itself (Gateway.Kill: typed
// unknown outcomes for the commits, absent for the reads), so the
// closed loop keeps running and the checker knows what the crash
// swallowed.
type gwClient struct {
	r  *Run
	dc topology.DC
	id int
}

func (gc gwClient) SupportsCommutative() bool { return true }

// refuse models a connection refused by the dead local gateway: the
// failure surfaces after a short reconnect backoff, never
// synchronously (a synchronous failure would let the closed client
// loop recurse without ever yielding to the simulator).
func (gc gwClient) refuse(f func()) {
	gc.r.Net.After(gc.r.Cluster.Clients[gc.id].ID, 100*time.Millisecond, f)
}

// read is the one read entry: the gateway's floored read (floor 0 =
// any committed version), or an up-to-date quorum read.
func (gc gwClient) read(key record.Key, floor record.Version, quorum bool, cb mtx.ReadFunc) {
	switch {
	case gc.r.gwDown[gc.dc]:
		gc.refuse(func() { cb(record.Value{}, 0, false) })
	case quorum:
		gc.r.gws[gc.dc].ReadQuorum(key, cb)
	default:
		gc.r.gws[gc.dc].ReadFloor(key, floor, cb)
	}
}

func (gc gwClient) Read(key record.Key, cb mtx.ReadFunc) { gc.read(key, 0, false, cb) }

func (gc gwClient) Commit(updates []record.Update, done func(bool)) {
	if gc.r.gwDown[gc.dc] {
		gc.refuse(func() { done(false) }) // never submitted, not recorded
		return
	}
	ups := append([]record.Update(nil), updates...)
	sync := true
	gc.r.gws[gc.dc].Commit(updates, func(ok bool, err error) {
		var ws ring.ErrWrongShard
		if errors.As(err, &ws) {
			// Epoch-fence refusal: the transaction touches a shard slice
			// that is frozen for a live move (or was routed under a stale
			// ring epoch). Nothing was admitted, so nothing is recorded —
			// this in-process client sees the typed error and retries
			// after a backoff; the retry re-enters Commit, which
			// re-resolves against whatever ring epoch is current by then.
			// (The RPC surface has no such signal yet: gateway/remote.go
			// answers a fenced MsgTx with Committed:false, a plain abort.)
			gc.r.wrongShard++
			gc.refuse(func() { gc.Commit(ups, done) })
			return
		}
		outcome := ok && err == nil
		if errors.Is(err, gateway.ErrOutcomeUnknown) {
			// The typed unknown-outcome signal (a killed gateway): the
			// op's options may still settle either way, so it enters the
			// history as an Orphan — what an RPC client does with
			// mdcc.ErrOutcomeUnknown, which is this same value.
			gc.r.gwUnknownTyped++
			gc.r.hist.Orphan(gc.id, ups)
		} else {
			gc.r.hist.Record(gc.id, ups, outcome)
		}
		if sync {
			// Admission sheds (ErrOverloaded) can fire synchronously from
			// Gateway.Commit; surfacing them inline would let the closed
			// client loop recurse without yielding to the simulator —
			// same hazard refuse() defends against on the gwDown path.
			gc.refuse(func() { done(outcome) })
			return
		}
		done(outcome)
	})
	sync = false
}

// preload bulk-loads the initial database into every replica's store
// (version 1, as internal/check expects for preloaded keys).
func (r *Run) preload() {
	r.initial = make(map[record.Key]record.Value)
	w := r.scn.Workload
	var entries []kv.Entry
	add := func(key record.Key, val record.Value) {
		entries = append(entries, kv.Entry{Key: key, Value: record.Encode(val), Version: 1})
		r.initial[key] = val
	}
	for i := 0; i < w.Accounts; i++ {
		add(acctKey(i), record.Value{Attrs: map[string]int64{"bal": w.InitialBalance}})
	}
	for i := 0; i < w.StockKeys; i++ {
		add(stockKey(i), record.Value{Attrs: map[string]int64{"units": w.InitialStock}})
	}
	for i := 0; i < w.Items; i++ {
		add(itemKey(i), record.Value{Attrs: map[string]int64{"v": 0}})
	}
	for _, e := range entries {
		shard := r.Cluster.Shard(e.Key)
		for i, n := range r.Cluster.Storage {
			if n.Index == shard {
				_ = r.nodes[i].Store().PutEncoded(e.Key, e.Value, e.Version)
			}
		}
	}
}

func acctKey(i int) record.Key  { return record.Key(fmt.Sprintf("acct/%04d", i)) }
func stockKey(i int) record.Key { return record.Key(fmt.Sprintf("stock/%02d", i)) }
func itemKey(i int) record.Key  { return record.Key(fmt.Sprintf("item/%03d", i)) }

func (r *Run) run() (*Result, error) {
	wallStart := time.Now()
	start := r.Net.Now()
	r.trafficEnd = start.Add(r.Opts.Duration)
	if r.Opts.Faults && r.scn.Nemesis != nil {
		r.scn.Nemesis(r)
	}
	if r.scn.Rebalance != nil {
		// A shard move is an operation, not a fault: it is scheduled
		// regardless of Options.Faults (the nemesis then fires faults
		// into its freeze/bootstrap window when enabled).
		at := time.Duration(float64(r.Opts.Duration) * r.scn.Rebalance.At)
		r.At(at, fmt.Sprintf("begin live shard move: activate group %d", r.scn.Rebalance.AddGroup),
			func() { r.startRebalance() })
	}
	for ci := range r.clients {
		ci := ci
		r.Net.At(0, func() { r.clientLoop(ci) })
	}
	r.Opts.Logf("[%s] traffic window %s, %d clients, seed %d",
		r.scn.Name, r.Opts.Duration, len(r.clients), r.Opts.Seed)
	r.Net.RunFor(r.Opts.Duration)

	// Epilogue 1: heal the world. Every fault the nemesis injected is
	// undone so liveness can be demanded below.
	r.heal()
	// Epilogue 2: drain. Every issued transaction must settle once the
	// network is whole — coordinators keep re-running recovery, so a
	// transaction that cannot settle inside the budget is a liveness
	// violation.
	healedAt := r.Net.Now()
	drained := r.Net.RunUntil(func() bool { return r.inflight == 0 }, drainBudget)
	drainedAt := r.Net.Now()
	// Epilogue 3: converge. Visibility stragglers, the dangling-option
	// sweep and anti-entropy bring all replicas to the same committed
	// state before validation reads it.
	r.Net.RunFor(convergeAfter)

	res := &Result{
		Scenario:  r.scn.Name,
		Seed:      r.Opts.Seed,
		Clients:   len(r.clients),
		Duration:  r.Opts.Duration,
		ReadFails: r.readFails,
		WriteLat:  r.lat,
		Net:       r.Net.Stats(),
		Events:    r.events,
	}
	res.ClusterNodes = len(r.Cluster.Storage) + len(r.Cluster.Clients)
	for _, dc := range topology.AllDCs() {
		res.ClusterNodes += len(r.GatewayIDs(dc))
	}
	res.Converge = drainedAt.Sub(healedAt)
	res.Wall = time.Since(wallStart)
	if res.Wall > 0 {
		res.SimWallRatio = float64(r.Net.Now().Sub(start)) / float64(res.Wall)
	}
	if !drained {
		res.Unresolved = r.inflight
	}
	res.Commits, res.Aborts = r.hist.Summary()
	res.TPS = float64(res.Commits) / r.Opts.Duration.Seconds()
	res.Unknown = r.hist.Unknowns()
	res.UnknownTyped = r.gwUnknownTyped
	for _, c := range r.coords {
		res.Coord.Add(c.Metrics())
	}
	if r.gws != nil {
		var agg gateway.Metrics
		for _, dc := range topology.AllDCs() {
			g := r.gws[dc]
			res.Coord.Add(g.CoordMetrics()) // quiesced: the simulator has stopped
			agg.Add(g.Metrics())
		}
		for _, g := range r.gwRetired { // crashed incarnations' work still counts
			res.Coord.Add(g.CoordMetrics())
			agg.Add(g.Metrics()) // a killed gateway reports its gauges at rest
		}
		agg.Finalize()
		res.Gateway = &agg
	}
	for _, n := range r.nodes {
		res.Nodes.Add(n.Metrics())
	}
	res.Nodes.Checkpoints += r.deadCheckpoints
	res.Nodes.DurabilityFailures += r.deadDegrades
	res.Recoveries = r.recoveries
	res.DiskFaults = r.diskFaults
	res.WipedRebuilds = r.wiped
	// The bounded-recovery contract over every restart the run
	// performed: snapshot-seeded when a checkpoint existed, tail no
	// longer than what accumulated since it, wall time under the
	// documented bound.
	for _, err := range check.ValidateRecovery(r.recoveries, recoveryWallBound) {
		res.Violations = append(res.Violations, err.Error())
	}
	res.RingEpoch = uint64(r.Cluster.Ring().Epoch())
	for _, err := range r.hist.Validate(r.initial, r.finalState, r.Cfg.Constraints) {
		res.Violations = append(res.Violations, err.Error())
	}
	// Exact lineage convergence: after heal + quiesce, every replica of
	// every touched key must hold an identical lineage summary AND
	// identical committed state — strictly stronger than the
	// value-accounting checks above (forked branches can coincidentally
	// sum equal; summary equality cannot be faked).
	touched := make(map[record.Key]bool, len(r.initial))
	for k := range r.initial {
		touched[k] = true
	}
	for _, op := range r.hist.Ops() {
		for _, up := range op.Updates {
			touched[up.Key] = true
		}
	}
	keys := make([]record.Key, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		shard := r.Cluster.Shard(key)
		var states []check.ReplicaState
		for i, nd := range r.Cluster.Storage {
			if nd.Index != shard {
				continue
			}
			val, ver, ok := r.nodes[i].Store().Get(key)
			states = append(states, check.ReplicaState{
				Replica: string(nd.ID),
				Lineage: r.nodes[i].LineageFingerprint(key),
				Value:   val,
				Version: ver,
				Exists:  ok && !val.Tombstone,
			})
		}
		for _, err := range check.ValidateConvergence(key, states) {
			res.Violations = append(res.Violations, err.Error())
		}
	}
	res.Reads = len(r.hist.Reads())
	// Session guarantees over the consumed reads: monotonic reads and
	// read-your-writes per client (the read tier's contract under feed
	// lag, gaps, partitions and gateway crashes).
	for _, err := range r.hist.ValidateSessionReads() {
		res.Violations = append(res.Violations, err.Error())
	}
	// No fabricated futures: every consumed read must be a version the
	// key actually reached (committed versions are monotone, so the
	// post-convergence final version bounds them all).
	for _, ro := range r.hist.Reads() {
		if !ro.Exists {
			continue
		}
		if _, fv, _ := r.finalState(ro.Key); ro.Version > fv {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"check: client %d read %s at version %d beyond final committed version %d (fabricated state)",
				ro.Client, ro.Key, ro.Version, fv))
		}
	}
	sort.Strings(res.Violations)
	if rec := r.Cfg.Tracer; rec != nil {
		res.Phases = rec.Phases()
		res.TraceEvents = rec.Events()
		res.TraceDropped = rec.Dropped()
		res.Timelines = r.assembleTimelines(res.Violations, keys)
	}
	r.Opts.Logf("[%s] done: %d commits, %d aborts, %d violations",
		r.scn.Name, res.Commits, res.Aborts, len(res.Violations))
	return res, nil
}

// assembleTimelines renders the run's diagnosis bundle: the recorder's
// own bundle (trace.Recorder.Bundle: the N slowest transactions, then
// every retained trace), then — per invariant violation — up to three
// transactions whose recorded events touch the violation's keys.
// Deterministic for a fixed seed: retention counts the recorder's
// appends and the rings are in their final, quiesced state.
func (r *Run) assembleTimelines(violations []string, touched []record.Key) []string {
	var out []string
	rec := r.Cfg.Tracer
	for _, t := range rec.Bundle() {
		out = append(out, t.Timeline())
	}
	for _, v := range violations {
		vkeys := check.KeysMentioned(v, touched)
		if len(vkeys) == 0 {
			continue
		}
		ks := make([]string, len(vkeys))
		for i, k := range vkeys {
			ks[i] = string(k)
		}
		block := "violation: " + v + "\n"
		txs := rec.TxsTouching(ks, 3)
		if len(txs) == 0 {
			block += "  (no transactions touching its keys remain in the rings)\n"
		}
		for _, tx := range txs {
			block += rec.Assemble(tx, ks).Timeline()
		}
		out = append(out, block)
	}
	return out
}

// finalState reads the authoritative end-of-run state of a key: the
// freshest committed version among its replicas (committed state is
// monotone in version, and after convergence all replicas agree).
func (r *Run) finalState(key record.Key) (record.Value, record.Version, bool) {
	shard := r.Cluster.Shard(key)
	var bestVal record.Value
	var bestVer record.Version
	found := false
	for i, n := range r.Cluster.Storage {
		if n.Index != shard {
			continue
		}
		val, ver, ok := r.nodes[i].Store().Get(key)
		if ok && (!found || ver > bestVer) {
			bestVal, bestVer, found = val, ver, true
		}
	}
	if !found || bestVal.Tombstone {
		return record.Value{}, bestVer, false
	}
	return bestVal, bestVer, true
}

// readKeyFor picks a read target across the hot stock keys (the
// stampede) and the items (read-your-writes after physical updates).
func readKeyFor(rng *rand.Rand, w Workload) record.Key {
	i := rng.Intn(w.StockKeys + w.Items)
	if i < w.StockKeys {
		return stockKey(i)
	}
	return itemKey(i - w.StockKeys)
}

// clientLoop issues one transaction and reschedules itself until the
// traffic window closes. Closed loop, no think time, as in the
// paper's evaluation setup.
func (r *Run) clientLoop(ci int) {
	if !r.Net.Now().Before(r.trafficEnd) {
		return
	}
	rng := r.Net.Rand()
	c := r.clients[ci]
	w := r.scn.Workload
	began := r.Net.Now()
	r.inflight++
	settle := func(committed bool) {
		r.inflight--
		if committed {
			r.lat.Add(float64(r.Net.Now().Sub(began)) / float64(time.Millisecond))
		}
		r.clientLoop(ci)
	}
	p := rng.Float64()
	switch {
	case p < w.ReadFrac && r.floors != nil && w.StockKeys+w.Items > 0:
		// Session-guaranteed read under the product's own floor rule
		// (mtx.ReadAtFloor, what Session.Read runs): the gateway's
		// floored read, then quorum re-reads while the answer lags the
		// session floor. Only floor-meeting results are consumed and
		// recorded for check.ValidateSessionReads; a miss counts as a
		// failed read, as Session.Read's ErrTimeout would — a
		// minority-side client whose pre-partition write's visibility was
		// cut off can legitimately find NO reachable replica at its floor,
		// which is in-contract, not a tier violation. (The tier's own
		// floor discipline — memory never served below a floor — is pinned
		// by TestReadTierFloorFillsOnce and by the recorded reads.)
		gc := c.(gwClient)
		key := readKeyFor(rng, w)
		floor := r.floors[ci].Floor(key)
		mtx.ReadAtFloor(
			func(cb mtx.ReadFunc) { gc.read(key, floor, false, cb) },
			func(cb mtx.ReadFunc) { gc.read(key, 0, true, cb) },
			floor,
			func(_ record.Value, ver record.Version, exists, met bool) {
				if exists && met {
					r.hist.ObserveRead(ci, key, ver, true)
					r.floors[ci].Read(key, ver)
				} else {
					r.readFails++
				}
				r.inflight--
				// Pace the loop: a memory-served read completes in zero
				// virtual time, so reschedule through the event queue
				// (modeling the client's own request turnaround) instead of
				// recursing at one instant.
				r.Net.After(r.Cluster.Clients[ci].ID, time.Millisecond, func() { r.clientLoop(ci) })
			})
	case p < w.ReadFrac+w.TransferFrac && w.Accounts >= 2:
		from := rng.Intn(w.Accounts)
		to := rng.Intn(w.Accounts - 1)
		if to >= from {
			to++
		}
		amt := 1 + rng.Int63n(5)
		c.Commit([]record.Update{
			record.Commutative(acctKey(from), map[string]int64{"bal": -amt}),
			record.Commutative(acctKey(to), map[string]int64{"bal": amt}),
		}, settle)
	case p < w.ReadFrac+w.TransferFrac+w.StockFrac && w.StockKeys > 0:
		c.Commit([]record.Update{
			record.Commutative(stockKey(rng.Intn(w.StockKeys)), map[string]int64{"units": -1}),
		}, settle)
	case w.Items > 0:
		key := itemKey(rng.Intn(w.Items))
		c.Read(key, func(val record.Value, ver record.Version, exists bool) {
			if !exists {
				r.readFails++
				settle(false)
				return
			}
			write := []record.Update{record.Physical(key, ver, val.WithAttr("v", val.Attr("v")+1))}
			c.Commit(write, func(ok bool) {
				if ok && r.floors != nil {
					r.floors[ci].Committed(write) // read-your-writes
				}
				settle(ok)
			})
		})
	default:
		// Degenerate workload shape; idle briefly instead of spinning.
		r.inflight--
		r.Net.After(r.Cluster.Clients[ci].ID, 100*time.Millisecond, func() { r.clientLoop(ci) })
	}
}

// close releases WALs and the temporary directory.
func (r *Run) close() {
	for _, n := range r.nodes {
		_ = n.Store().Close()
	}
	if r.tmp {
		_ = os.RemoveAll(r.Opts.Dir)
	}
}

// --- nemesis surface -------------------------------------------------

// At schedules a nemesis action at an offset from the run start and
// records it on the result timeline.
func (r *Run) At(offset time.Duration, what string, f func()) {
	r.events = append(r.events, fmt.Sprintf("t=%-6s %s", offset, what))
	r.Net.At(offset, func() {
		r.Opts.Logf("[%s] t=%s nemesis: %s", r.scn.Name, offset, what)
		f()
	})
}

// SideIDs returns every node ID (storage, clients, and — in gateway
// runs — the DC's gateway tier) inside the given data centers: one
// side of a partition cut. OtherSideIDs is the complement.
func (r *Run) SideIDs(dcs ...topology.DC) []transport.NodeID { return r.nodeIDs(dcs, true) }

func (r *Run) OtherSideIDs(dcs ...topology.DC) []transport.NodeID { return r.nodeIDs(dcs, false) }

// nodeIDs walks the node catalogue once, keeping the nodes whose data
// center is (inside) or is not among dcs.
func (r *Run) nodeIDs(dcs []topology.DC, inside bool) []transport.NodeID {
	listed := make(map[topology.DC]bool, len(dcs))
	for _, dc := range dcs {
		listed[dc] = true
	}
	var out []transport.NodeID
	for _, nodes := range [][]topology.Node{r.Cluster.Storage, r.Cluster.Clients} {
		for _, n := range nodes {
			if listed[n.DC] == inside {
				out = append(out, n.ID)
			}
		}
	}
	for _, dc := range topology.AllDCs() {
		if listed[dc] == inside {
			out = append(out, r.GatewayIDs(dc)...)
		}
	}
	return out
}

// FailDC makes a whole data center unreachable without killing its
// processes (the paper's §5.4 outage: the DC "stops receiving any
// messages"). Undone by RecoverDC or the epilogue heal.
func (r *Run) FailDC(dc topology.DC) {
	for _, n := range r.Cluster.StorageIn(dc) {
		r.Net.Fail(n.ID)
	}
	r.downDC[dc] = true
}

// RecoverDC brings a failed data center back.
func (r *Run) RecoverDC(dc topology.DC) {
	for _, n := range r.Cluster.StorageIn(dc) {
		r.Net.Recover(n.ID)
	}
	delete(r.downDC, dc)
}

// durOpts is storage node i's durable-engine configuration: NoSync
// (the simulator models durability; injected faults still fire), a
// small segment size so checkpoint truncation spans real segment
// boundaries at scenario scale, and the node's fault handle.
func (r *Run) durOpts(i int) core.DurableOptions {
	return core.DurableOptions{
		NoSync:      true,
		SegmentSize: 64 << 10,
		Faults:      r.faults[i],
	}
}

// CrashStorage kills storage node i (index into Cluster.Storage): its
// queued events die, its volatile Paxos state is lost, and its WAL
// is closed as a crashed process would leave it. The durability
// gauges are captured first so the restart's replay can be validated
// against what had actually accumulated since the last checkpoint.
func (r *Run) CrashStorage(i int) {
	id := r.Cluster.Storage[i].ID
	r.crashInfo[i] = r.nodes[i].Durability()
	m := r.nodes[i].Metrics()
	r.deadCheckpoints += m.Checkpoints
	r.deadDegrades += m.DurabilityFailures
	r.Net.Crash(id)
	r.nodes[i].Halt()
	_ = r.nodes[i].Store().Close()
	r.crashed[i] = true
}

// RestartStorage reboots a crashed storage node: reopen its WAL,
// recover from the newest valid checkpoint snapshot plus the log tail
// (full replay when no checkpoint exists), and register the fresh
// incarnation. If no snapshot is usable (every one corrupt), the
// replica's durable state is discarded and it restarts empty — the
// modeled operator response — to be rebuilt from its quorum by
// anti-entropy; the generic convergence checks then demand the
// rebuild completed.
func (r *Run) RestartStorage(i int) {
	if !r.crashed[i] {
		return
	}
	n := r.Cluster.Storage[i]
	pre := r.crashInfo[i]
	rec := check.RecoveryRecord{
		Node:         string(n.ID),
		HadSnapshot:  pre.SnapshotSeq > 0,
		ExpectedTail: pre.AppendsSinceCheckpoint,
	}
	err := r.reopen(i, false, rec)
	if errors.Is(err, wal.ErrCorrupt) {
		r.events = append(r.events, fmt.Sprintf("restart %s: state unrecoverable (%v); wiped for quorum rebuild", n.ID, err))
		err = r.reopen(i, true, rec)
	}
	if err != nil {
		r.events = append(r.events, fmt.Sprintf("restart %s failed: %v", n.ID, err))
	}
}

// ReplaceStorage swaps storage node i for a brand-new machine at the
// same slot: the old process is crashed (if it isn't already), its
// disks are discarded, and a fresh incarnation boots empty — to be
// rebuilt from its replica quorum by anti-entropy (and, mid-move, by a
// re-issued bootstrap pull chain). This is churn's "replace", distinct
// from RestartStorage (same machine, durable state survives): no WAL
// replay happens, so the recovery record is marked Wiped and exempt
// from the bounded-replay contract.
func (r *Run) ReplaceStorage(i int) {
	if !r.crashed[i] {
		r.CrashStorage(i)
	}
	n := r.Cluster.Storage[i]
	if err := r.reopen(i, true, check.RecoveryRecord{Node: string(n.ID)}); err != nil {
		r.events = append(r.events, fmt.Sprintf("replace %s failed: %v", n.ID, err))
	}
}

// reopen boots a fresh incarnation of crashed storage node i over its
// directory — discarded first when wipe is set — and files rec with
// what the reopen replayed.
func (r *Run) reopen(i int, wipe bool, rec check.RecoveryRecord) error {
	if wipe {
		if err := os.RemoveAll(r.dirs[i]); err != nil {
			return fmt.Errorf("wipe: %w", err)
		}
		r.wiped++
		rec.Wiped = true
	}
	n := r.Cluster.Storage[i]
	node, err := server.OpenNode(n.ID, n.DC, r.Net, r.Cluster, r.Cfg, r.dirs[i], r.durOpts(i))
	if err != nil {
		return err
	}
	rs := node.Durability().Replay
	rec.UsedSnapshot = rs.UsedSnapshot
	rec.FellBack = rs.FellBack
	rec.TailRecords = rs.Tail
	rec.Wall = rs.Duration
	r.recoveries = append(r.recoveries, rec)
	// Building the node schedules its timers and sends nothing, so
	// lifting the crash after it is the same as lifting it before.
	r.Net.Recover(n.ID)
	r.nodes[i] = node
	delete(r.crashed, i)
	return nil
}

// StorageIdx locates the storage node of a DC and replica group
// (Cluster.Storage index), -1 when absent — the churn nemesis's
// victim picker.
func (r *Run) StorageIdx(dc topology.DC, group int) int {
	for i, n := range r.Cluster.Storage {
		if n.DC == dc && n.Index == group {
			return i
		}
	}
	return -1
}

// --- disk-fault nemesis -----------------------------------------------

// FailDisk makes storage node i's fsyncs fail persistently: the next
// durable write degrades the node (typed core.ErrDurability latched,
// no further acks) until ReplaceDisk. Modeled fsync failures fire even
// under the harness's NoSync logs.
func (r *Run) FailDisk(i int) {
	r.diskFaults++
	r.faults[i].FailSync(true)
}

// TearDisk makes storage node i's next WAL append tear mid-frame (a
// partial write followed by the poisoned-log latch): the node degrades
// and, after ReplaceDisk, replay must drop the torn tail exactly.
func (r *Run) TearDisk(i int) {
	r.diskFaults++
	r.faults[i].TornWrite(0)
}

// FlipDiskBit silently corrupts the payload of storage node i's next
// WAL append (the write and its ack succeed — bit rot): the damage
// must surface as typed corruption at the next replay, never as
// silently wrong state.
func (r *Run) FlipDiskBit(i int) {
	r.diskFaults++
	r.faults[i].BitFlip()
}

// RotWALRecord flips a byte inside the first record of crashed node
// i's newest log segment: bit rot guaranteed to land in the
// replay tail. (FlipDiskBit's runtime injection can land in a segment
// a later checkpoint truncates away — harmless by design; this helper
// pins the other outcome.) The restart must surface it as typed
// wal.ErrCorrupt — never silently truncate the valid records behind
// it — driving the wipe + quorum-rebuild path.
func (r *Run) RotWALRecord(i int) {
	id := r.Cluster.Storage[i].ID
	dir := filepath.Join(r.dirs[i], "wal")
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		r.events = append(r.events, fmt.Sprintf("rot WAL on %s: no segments", id))
		return
	}
	path := wal.SegmentPath(dir, segs[len(segs)-1])
	data, err := os.ReadFile(path)
	if err != nil || len(data) < 12 {
		r.events = append(r.events, fmt.Sprintf("rot WAL on %s: segment too small (%v)", id, err))
		return
	}
	r.diskFaults++
	data[10] ^= 0x10 // a payload byte of the segment's first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		r.events = append(r.events, fmt.Sprintf("rot WAL on %s: %v", id, err))
	}
}

// ReplaceDisk is the operator response to a degraded replica: clear
// the injected fault (the new disk works), then crash and restart the
// node so it recovers from its durable state. Also valid on a healthy
// node (a precautionary swap).
func (r *Run) ReplaceDisk(i int) {
	r.faults[i].FailSync(false)
	if !r.crashed[i] {
		r.CrashStorage(i)
	}
	r.RestartStorage(i)
}

// CorruptNewestSnapshot flips a byte in the middle of crashed node i's
// newest checkpoint snapshot, so its restart must detect the
// corruption and fall back to the previous snapshot (whose log tail
// the truncation floor retains).
func (r *Run) CorruptNewestSnapshot(i int) {
	snapDir := filepath.Join(r.dirs[i], "snap")
	seqs, err := wal.ListSnapshots(snapDir)
	if err != nil || len(seqs) == 0 {
		r.events = append(r.events, fmt.Sprintf("corrupt snapshot on %s: none found", r.Cluster.Storage[i].ID))
		return
	}
	r.diskFaults++
	path := wal.SnapshotPath(snapDir, seqs[len(seqs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		r.events = append(r.events, fmt.Sprintf("corrupt snapshot on %s: %v", r.Cluster.Storage[i].ID, err))
		return
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		r.events = append(r.events, fmt.Sprintf("corrupt snapshot on %s: %v", r.Cluster.Storage[i].ID, err))
	}
}

// GatewayIDs returns the transport nodes of a DC's gateway tier (the
// gateway plus its coordinator); empty for non-gateway runs.
func (r *Run) GatewayIDs(dc topology.DC) []transport.NodeID {
	if r.gws == nil {
		return nil
	}
	return gateway.RouteIDs(dc)
}

// CrashGateway kills a data center's gateway process: the gateway and
// its coordinator stop receiving (their queued events and
// timers die with the incarnation), then Gateway.Kill answers
// everything the process held — every admitted in-flight transaction
// with the typed ErrOutcomeUnknown, which the gwClient records as an
// unknown-outcome history entry (the protocol itself still settles any
// already-proposed option via the dangling-option sweep), every held
// read absent. New ops are refused until RestartGateway.
func (r *Run) CrashGateway(dc topology.DC) {
	if r.gws == nil || r.gwDown[dc] {
		return
	}
	for _, id := range r.GatewayIDs(dc) {
		r.Net.Crash(id)
	}
	r.gwDown[dc] = true
	r.gwRetired = append(r.gwRetired, r.gws[dc]) // keep the dead incarnation's counters
	before := r.gwUnknownTyped
	r.gws[dc].Kill()
	r.Opts.Logf("[%s] gateway %s killed: %d in-flight commits surfaced typed outcome-unknown",
		r.scn.Name, dc, r.gwUnknownTyped-before)
}

// RestartGateway boots a fresh gateway incarnation for the data
// center, the way a restarted process would: the same constructor on
// the same node ids (gateways hold no durable state; the fresh instance
// re-learns escrow headroom from piggybacked snapshots).
func (r *Run) RestartGateway(dc topology.DC) {
	if r.gws == nil || !r.gwDown[dc] {
		return
	}
	for _, id := range r.GatewayIDs(dc) {
		r.Net.Recover(id)
	}
	r.gws[dc] = gateway.New(dc, r.Net, r.Cluster, r.Cfg, gateway.Tuning{})
	delete(r.gwDown, dc)
	if r.rebFrozen {
		// A gateway restarted mid-move must not admit transactions onto
		// the moving slice: re-apply the ambient freeze immediately
		// (the move's poll would also re-apply it, but only at its next
		// tick — this closes the restart window).
		r.gws[dc].FreezeShards(r.rebMoving, r.rebNext)
	}
}

// heal undoes every outstanding fault: partitions, outages, crashed
// nodes, chaos probabilities, latency distortions and clock drift.
func (r *Run) heal() {
	r.Net.HealAll()
	for dc := range r.downDC {
		r.RecoverDC(dc)
	}
	idxs := make([]int, 0, len(r.crashed))
	for i := range r.crashed {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		r.RestartStorage(i)
	}
	// Disks the nemesis degraded get replaced: disarm the fault and
	// reboot the node from its durable state. A node that latched a
	// durability failure stopped acking the moment its disk refused a
	// write, so nothing it served is unsynced.
	for i, n := range r.nodes {
		r.faults[i].FailSync(false)
		if n.DurabilityError() != nil && !r.crashed[i] {
			r.Opts.Logf("[%s] replacing degraded disk on %s", r.scn.Name, r.Cluster.Storage[i].ID)
			r.ReplaceDisk(i)
		}
	}
	for _, dc := range topology.AllDCs() {
		if r.gwDown[dc] {
			r.RestartGateway(dc)
		}
	}
	r.Net.SetDropProb(0)
	r.Net.SetDupProb(0)
	r.Net.SetReorder(0, 0)
	r.Net.ScaleLatency(1)
	for _, n := range r.Cluster.Storage {
		r.Net.SetDrift(n.ID, 0)
	}
	for _, n := range r.Cluster.Clients {
		r.Net.SetDrift(n.ID, 0)
	}
	r.Opts.Logf("[%s] healed all faults", r.scn.Name)
}
