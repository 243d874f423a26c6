package mdcc

import (
	"errors"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/mtx"
	"mdcc/internal/record"
	"mdcc/internal/transport"
)

// ErrTimeout is returned when a blocking call outlives its deadline,
// and by reads under session guarantees that could not reach the
// session's floor version (see Session.Read).
var ErrTimeout = errors.New("mdcc: operation timed out")

// The gateway tier's failures are the gateway's own values (one set of
// sentinels: what an in-process session and an RPC session report is
// what the gateway reported; DESIGN.md §8 has the table).
var (
	// ErrClosed is returned by commits on sessions whose gateway has
	// shut down. The transaction was never submitted.
	ErrClosed = gateway.ErrClosed

	// ErrOverloaded is returned when a gateway's admission control sheds
	// a transaction (bounded in-flight window and backlog both full).
	// The transaction was never submitted; retrying later is safe.
	ErrOverloaded = gateway.ErrOverloaded

	// ErrOutcomeUnknown is the sentinel matched (via errors.Is) by
	// OutcomeUnknownError: a submitted transaction whose acknowledgement
	// was lost — typically swallowed by a crashed or unreachable gateway.
	// Unlike ErrOverloaded, the transaction MAY have committed (the
	// protocol settles every proposed option even if the submitter dies);
	// blind retries can double-apply. The RPC client (DialGateway) wraps
	// it in an OutcomeUnknownError naming the submission; a gateway
	// killed in-process (Gateway.Kill-style crash handling) reports it
	// bare.
	ErrOutcomeUnknown = gateway.ErrOutcomeUnknown
)

// ErrMixedUpdateKinds reports a transaction rejected by the
// kind-disjoint rule: a physical rewrite of a key with commutative
// history, or a commutative delta on a physically rewritten key.
// Mixing kinds on one key would make replica forks unmergeable
// (DESIGN.md §5), so acceptors reject it with this typed cause
// instead of a silent abort. Record-creating inserts are
// class-neutral; a key's class locks on its first non-creating
// update. Returned by Session.Commit with committed=false.
var ErrMixedUpdateKinds = core.ErrMixedUpdateKinds

// OutcomeUnknownError reports a transaction whose outcome the client
// never learned: it was handed to a gateway, the settle deadline
// passed, and no acknowledgement arrived (gateway crash, partition,
// lost reply). TxID names the submission so operators can correlate
// it with server-side logs and the unknown-outcome envelope the
// verification harness checks (internal/check.Op.Unknown).
type OutcomeUnknownError struct {
	TxID string
}

func (e *OutcomeUnknownError) Error() string {
	return "mdcc: outcome unknown for transaction " + e.TxID + " (gateway unreachable before acknowledgement)"
}

// Is matches ErrOutcomeUnknown so callers can errors.Is without
// caring about the id.
func (e *OutcomeUnknownError) Is(target error) bool { return target == ErrOutcomeUnknown }

// backend is what a Session drives: either a private coordinator (the
// paper's per-app-server DB library) or a shared gateway tier. All
// methods are safe to call from any goroutine; callbacks may fire on
// transport handler goroutines (or synchronously, for gateway reads
// served from the DC-local materialized store).
//
// Read's floor is the session's version floor for the key (0 = none):
// gateway backends use it to walk the read tier's fallback ladder
// (materialized store → single-flight RPC → quorum) without serving a
// stale memory copy; coordinator backends ignore it. Either way the
// answer may still lag the floor, and mtx.ReadAtFloor — not the
// backend — decides what happens then.
type backend interface {
	Read(key Key, floor Version, cb func(record.Value, record.Version, bool))
	ReadQuorum(key Key, cb func(record.Value, record.Version, bool))
	Commit(updates []Update, done func(committed bool, err error))
	Metrics() core.CoordMetrics
}

// coordBackend drives a session-private core.Coordinator, funneling
// every call through the coordinator node's serialized executor.
type coordBackend struct {
	id    transport.NodeID
	net   transport.Network
	coord *core.Coordinator
}

func (b coordBackend) Read(key Key, _ Version, cb func(record.Value, record.Version, bool)) {
	b.net.After(b.id, 0, func() { b.coord.Read(key, cb) })
}

func (b coordBackend) ReadQuorum(key Key, cb func(record.Value, record.Version, bool)) {
	b.net.After(b.id, 0, func() { b.coord.ReadQuorum(key, cb) })
}

func (b coordBackend) Commit(updates []Update, done func(bool, error)) {
	b.net.After(b.id, 0, func() {
		b.coord.Commit(updates, func(r core.CommitResult) { done(r.Committed, r.Err) })
	})
}

func (b coordBackend) Metrics() core.CoordMetrics { return b.coord.Metrics() }

// Session is a blocking client facade over a callback-based backend —
// a private coordinator (the paper's app-server DB library) or a
// shared DC-local gateway (see Cluster.Gateway). Sessions are safe
// for concurrent use.
type Session struct {
	b       backend
	timeout time.Duration

	// gwMetrics, when non-nil, exposes the gateway tier this session
	// is attached to.
	gwMetrics func() GatewayMetrics

	// Session guarantees (§4.2): once enabled, every read must reach the
	// session's per-key version floor (readAtFloor).
	floors mtx.Floors
}

func newSession(b backend, cfg core.Config) *Session {
	// A blocking call can legitimately span several recoveries.
	timeout := 4*cfg.OptionTimeout + 4*cfg.RecoveryRetry
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	return &Session{b: b, timeout: timeout}
}

// EnableSessionGuarantees turns on monotonic reads and
// read-your-writes for this session (§4.2). Reads that would go
// backwards (a lagging or recovered local replica) transparently
// escalate to quorum reads; one that still cannot reach the session's
// floor version fails with ErrTimeout instead of returning stale data.
func (s *Session) EnableSessionGuarantees() { s.floors.Enable() }

// Read returns the committed value and version of key from the
// nearest replica (read committed: never an uncommitted option).
// exists is false for absent or deleted records. With session
// guarantees enabled the result never regresses below versions this
// session has already observed or committed: a read that cannot reach
// that floor (every reachable replica lags it, even by quorum) returns
// ErrTimeout, never a stale value.
func (s *Session) Read(key Key) (val Value, ver Version, exists bool, err error) {
	// Every blocking call stops its deadline when it returns: under the
	// timer semantics of a go 1.21 main module an unstopped timer stays
	// reachable until it fires, a whole timeout after the call.
	deadline := time.NewTimer(s.timeout)
	defer deadline.Stop()
	select {
	case r := <-s.readAtFloor(key):
		if !r.met {
			return Value{}, 0, false, ErrTimeout
		}
		s.floors.Read(key, r.ver)
		return r.val, r.ver, r.ok, nil
	case <-deadline.C:
		return Value{}, 0, false, ErrTimeout
	}
}

type readRes struct {
	val record.Value
	ver record.Version
	ok  bool
	met bool // reached the session floor (always, without guarantees)
}

// readAtFloor starts one read of key under the client contract's floor
// rule: the backend's nearest (or gateway-materialized) read, carrying
// the session's floor so a gateway never serves memory below it, then
// quorum re-reads while the answer lags it.
func (s *Session) readAtFloor(key Key) <-chan readRes {
	floor := s.floors.Floor(key)
	ch := make(chan readRes, 1)
	mtx.ReadAtFloor(
		func(cb mtx.ReadFunc) { s.b.Read(key, floor, cb) },
		func(cb mtx.ReadFunc) { s.b.ReadQuorum(key, cb) },
		floor,
		func(v record.Value, vr record.Version, ok, met bool) { ch <- readRes{v, vr, ok, met} })
	return ch
}

// ReadLatest performs an up-to-date quorum read (§4.2): it waits for
// a majority of replicas and returns the freshest committed state —
// strictly fresher than a local read after outages or message loss,
// at the cost of a wide-area quorum round trip. Under session
// guarantees the version it returns raises the key's floor, as Read's
// does.
func (s *Session) ReadLatest(key Key) (val Value, ver Version, exists bool, err error) {
	ch := make(chan readRes, 1)
	deadline := time.NewTimer(s.timeout)
	defer deadline.Stop()
	s.b.ReadQuorum(key, func(v record.Value, vr record.Version, ok bool) {
		ch <- readRes{val: v, ver: vr, ok: ok}
	})
	select {
	case r := <-ch:
		s.floors.Read(key, r.ver)
		return r.val, r.ver, r.ok, nil
	case <-deadline.C:
		return Value{}, 0, false, ErrTimeout
	}
}

// ReadMany reads several keys concurrently, each exactly as Read does
// (floors included); the first key that times out or misses its floor
// fails the whole call with ErrTimeout.
func (s *Session) ReadMany(keys []Key) (vals []Value, vers []Version, exist []bool, err error) {
	vals = make([]Value, len(keys))
	vers = make([]Version, len(keys))
	exist = make([]bool, len(keys))
	reads := make([]<-chan readRes, len(keys))
	for i, k := range keys {
		reads[i] = s.readAtFloor(k)
	}
	deadline := time.NewTimer(s.timeout)
	defer deadline.Stop()
	for i := range keys {
		select {
		case r := <-reads[i]:
			if !r.met {
				return nil, nil, nil, ErrTimeout
			}
			vals[i], vers[i], exist[i] = r.val, r.ver, r.ok
		case <-deadline.C:
			return nil, nil, nil, ErrTimeout
		}
	}
	for i, k := range keys {
		s.floors.Read(k, vers[i])
	}
	return vals, vers, exist, nil
}

// Commit atomically applies the write-set: either every update
// becomes durable or none does. committed is false when a write-write
// conflict or constraint violation rejected an option — or, for
// gateway sessions, when admission control shed the transaction
// (err == ErrOverloaded). Typed rejection causes accompany
// committed=false when the protocol knows one: ErrMixedUpdateKinds
// for the kind-disjoint rule; plain conflicts keep err nil.
func (s *Session) Commit(updates ...Update) (committed bool, err error) {
	type res struct {
		ok  bool
		err error
	}
	ch := make(chan res, 1)
	deadline := time.NewTimer(s.timeout)
	defer deadline.Stop()
	s.b.Commit(updates, func(ok bool, cerr error) { ch <- res{ok, cerr} })
	select {
	case r := <-ch:
		if r.err != nil {
			return false, r.err
		}
		if r.ok {
			s.floors.Committed(updates) // read-your-writes
		}
		return r.ok, nil
	case <-deadline.C:
		return false, ErrTimeout
	}
}

// Transact runs fn as an optimistic read-modify-write transaction:
// fn assembles a write-set via the TxView, and Commit validates it.
// On conflict it runs fn again, up to attempts runs in all (classic
// OCC loop). attempts below 1 run fn once, as 1 does.
func (s *Session) Transact(attempts int, fn func(tx *TxView) error) (bool, error) {
	if attempts < 1 {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		tx := &TxView{s: s}
		if err := fn(tx); err != nil {
			return false, err
		}
		if tx.err != nil {
			return false, tx.err
		}
		ok, err := s.Commit(tx.updates...)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// TransactSerializable is Transact with read-set validation (§4.4):
// every record fn read and did not write gets a ReadCheck, so the
// transaction aborts if anything it based its decisions on changed —
// full optimistic concurrency control, preventing anomalies such as
// write skew that read committed allows. attempts counts runs of fn as
// in Transact: below 1, fn runs once.
func (s *Session) TransactSerializable(attempts int, fn func(tx *TxView) error) (bool, error) {
	if attempts < 1 {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		tx := &TxView{s: s, reads: make(map[Key]Version)}
		if err := fn(tx); err != nil {
			return false, err
		}
		if tx.err != nil {
			return false, tx.err
		}
		written := make(map[Key]bool, len(tx.updates))
		for _, u := range tx.updates {
			written[u.Key] = true
		}
		updates := tx.updates
		for key, ver := range tx.reads {
			if !written[key] {
				updates = append(updates, ReadCheck(key, ver))
			}
		}
		ok, err := s.Commit(updates...)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// TxView accumulates a write-set with reads tracked for validation.
type TxView struct {
	s       *Session
	updates []Update
	reads   map[Key]Version
	err     error
}

// Read fetches a record inside the transaction.
func (t *TxView) Read(key Key) (Value, Version, bool) {
	v, ver, ok, err := t.s.Read(key)
	if err != nil {
		t.err = err
	}
	if t.reads != nil {
		t.reads[key] = ver
	}
	return v, ver, ok
}

// Write stages a physical update against the version read.
func (t *TxView) Write(key Key, readVersion Version, val Value) {
	t.updates = append(t.updates, Physical(key, readVersion, val))
}

// Insert stages an insert.
func (t *TxView) Insert(key Key, val Value) {
	t.updates = append(t.updates, Insert(key, val))
}

// Delete stages a delete.
func (t *TxView) Delete(key Key, readVersion Version) {
	t.updates = append(t.updates, Delete(key, readVersion))
}

// Add stages a commutative delta.
func (t *TxView) Add(key Key, deltas map[string]int64) {
	t.updates = append(t.updates, Commutative(key, deltas))
}

// Metrics exposes the session backend's protocol counters. For
// gateway sessions, only the outcome counters (Commits, Aborts) are
// populated live — protocol internals belong to the shared coordinator;
// see GatewayMetrics.
func (s *Session) Metrics() core.CoordMetrics { return s.b.Metrics() }

// GatewayMetrics reports the gateway tier's operational metrics
// (queue depth, coalesce ratio, batch fan-in) when this session is
// attached to one; ok is false for sessions with a private
// coordinator.
func (s *Session) GatewayMetrics() (m GatewayMetrics, ok bool) {
	if s.gwMetrics == nil {
		return GatewayMetrics{}, false
	}
	return s.gwMetrics(), true
}
