package mdcc

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/record"
)

// instantBackend answers every call before it returns.
type instantBackend struct{}

func (instantBackend) Read(_ Key, _ Version, cb func(record.Value, record.Version, bool)) {
	cb(record.Value{}, 1, true)
}

func (instantBackend) ReadQuorum(_ Key, cb func(record.Value, record.Version, bool)) {
	cb(record.Value{}, 1, true)
}

func (instantBackend) Commit(_ []Update, done func(bool, error)) { done(true, nil) }

func (instantBackend) Metrics() core.CoordMetrics { return core.CoordMetrics{} }

// TestSessionDeadlinesReleaseTimers: a blocking call's deadline is
// released when the call returns, not when the deadline would have
// fired. The module's go line keeps the timer semantics of go 1.21, under
// which a timer that is neither stopped nor fired stays reachable from
// the runtime, so a deadline armed with time.After cost about 300 B per
// call for the whole session timeout after the call had returned.
func TestSessionDeadlinesReleaseTimers(t *testing.T) {
	const (
		calls      = 20000
		maxPerCall = 16
	)
	s := &Session{b: instantBackend{}, timeout: time.Minute}
	up := Physical("k", 1, Value{})
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	for i := 0; i < calls/4; i++ {
		if ok, err := s.Commit(up); !ok || err != nil {
			t.Fatalf("Commit = %v, %v", ok, err)
		}
		if _, _, _, err := s.Read("k"); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if _, _, _, err := s.ReadLatest("k"); err != nil {
			t.Fatalf("ReadLatest: %v", err)
		}
		if _, _, _, err := s.ReadMany([]Key{"k"}); err != nil {
			t.Fatalf("ReadMany: %v", err)
		}
	}
	after := live()
	perCall := (float64(after) - float64(before)) / calls
	t.Logf("%.1f B retained per returned call", perCall)
	if perCall > maxPerCall {
		t.Errorf("%.1f B retained per returned call, gate %d: a deadline outlives its call", perCall, maxPerCall)
	}
}

// laggingBackend is a replica set whose nearest replica lags: Read
// answers version 1 (instantBackend's), ReadQuorum the freshest, 5.
type laggingBackend struct{ instantBackend }

func (laggingBackend) ReadQuorum(_ Key, cb func(record.Value, record.Version, bool)) {
	cb(record.Value{}, 5, true)
}

// TestReadLatestRaisesSessionFloor: a version ReadLatest returned is one
// the session has observed, so under session guarantees a later Read of
// the key must not go below it (monotonic reads, §4.2), however far the
// nearest replica lags.
func TestReadLatestRaisesSessionFloor(t *testing.T) {
	s := &Session{b: laggingBackend{}, timeout: time.Minute}
	s.EnableSessionGuarantees()
	if _, ver, _, err := s.ReadLatest("k"); err != nil || ver != 5 {
		t.Fatalf("ReadLatest = version %d, %v; want 5", ver, err)
	}
	if _, ver, _, err := s.Read("k"); err != nil || ver < 5 {
		t.Fatalf("Read after ReadLatest at version 5 = version %d, %v: the session read backwards", ver, err)
	}
}

// TestCommittedWriteIsValueAtCommit: a committed write is the value
// the caller passed at commit. A caller that edits its Value once
// Commit has returned — the visibility that applies the write on the
// replicas is still in flight — changes nothing any replica stores or
// any later read answers.
func TestCommittedWriteIsValueAtCommit(t *testing.T) {
	c, err := StartCluster(ClusterConfig{LatencyScale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session(USWest)
	v := Value{Attrs: map[string]int64{"x": 1}, Blob: []byte("row")}
	if ok, err := s.Commit(Insert("k/alias", v)); !ok || err != nil {
		t.Fatalf("Commit = %v, %v", ok, err)
	}
	v.Attrs["x"] = 999
	v.Blob[0] = 'X'
	got, ver, exists, err := s.ReadLatest("k/alias")
	if err != nil || !exists || ver != 1 {
		t.Fatalf("ReadLatest = %v v%d exists=%v, %v", got, ver, exists, err)
	}
	if got.Attr("x") != 1 || string(got.Blob) != "row" {
		t.Fatalf("ReadLatest = %v %q, want the value at commit, x=1 \"row\"", got, got.Blob)
	}
}

// TestCommitRefusesRepeatedKey: a transaction has one option per key,
// and each option one lineage identity, so a write-set that names a
// key twice — two updates passed to Commit, or two staged on a TxView —
// is refused with an error before anything is proposed. The key stays
// writable: the refusal leaves no option of it anywhere.
func TestCommitRefusesRepeatedKey(t *testing.T) {
	c, err := StartCluster(ClusterConfig{LatencyScale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session(USWest)
	add := func(d int64) Update { return Commutative("k/dup", map[string]int64{"x": d}) }
	if ok, err := s.Commit(Insert("k/dup", Value{Attrs: map[string]int64{"x": 0}})); !ok || err != nil {
		t.Fatalf("insert: Commit = %v, %v", ok, err)
	}
	refused := func(ok bool, err error) bool { return !ok && err != nil && !errors.Is(err, ErrTimeout) }
	if ok, err := s.Commit(add(1), Insert("k/other", Value{}), add(2)); !refused(ok, err) {
		t.Fatalf("Commit of a write-set naming k/dup twice = %v, %v; want refused with an error", ok, err)
	}
	ok, err := s.Transact(3, func(tx *TxView) error {
		tx.Add("k/dup", map[string]int64{"x": 1})
		tx.Add("k/dup", map[string]int64{"x": 2})
		return nil
	})
	if !refused(ok, err) {
		t.Fatalf("Transact staging k/dup twice = %v, %v; want refused with an error", ok, err)
	}
	if ok, err := s.Commit(add(4)); !ok || err != nil {
		t.Fatalf("Commit after the refusals = %v, %v", ok, err)
	}
	if v, _, _, err := s.ReadLatest("k/dup"); err != nil || v.Attr("x") != 4 {
		t.Fatalf("ReadLatest = %v, %v; want x=4 (the refused write-sets applied nothing)", v, err)
	}
	if _, _, exists, err := s.ReadLatest("k/other"); err != nil || exists {
		t.Fatalf("k/other exists=%v, %v; want absent (the refused write-set applied nothing)", exists, err)
	}
}
