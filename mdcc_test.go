package mdcc

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/topology"
)

func startTestCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	if cfg.LatencyScale == 0 {
		cfg.LatencyScale = 0.002 // ~0.3ms max one-way: fast tests
	}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitFor polls cond with a real-time deadline instead of a fixed
// iteration count: on a loaded machine (the -race CI runner) a
// "spin N times" wait can exhaust its iterations before asynchronous
// visibility lands, which is a harness flake, not a protocol bug.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitEverywhere blocks until every data center's replica of key
// executed the write seen recognizes. A commit is learned by a fast
// quorum and made visible asynchronously, so right after it a straggler
// replica still answers with (and votes from) the old state — in
// contract, but a race for tests about something else.
func waitEverywhere(t *testing.T, c *Cluster, key Key, seen func(Value, Version, bool) bool) {
	t.Helper()
	for _, dc := range AllDCs() {
		local := c.Session(dc)
		waitFor(t, string(key)+" visible in "+dc.String(), func() bool {
			v, ver, ok, _ := local.Read(key)
			return seen(v, ver, ok)
		})
	}
}

// atVersion is the waitEverywhere predicate "exists at exactly want".
func atVersion(want Version) func(Value, Version, bool) bool {
	return func(_ Value, v Version, ok bool) bool { return ok && v == want }
}

func TestSessionInsertReadUpdate(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	// Read-your-writes so the post-commit reads cannot race the
	// asynchronous visibility notifications.
	s.EnableSessionGuarantees()

	ok, err := s.Commit(Insert("item/1", Value{Attrs: map[string]int64{"stock": 10}}))
	if err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	val, ver, exists, err := s.Read("item/1")
	if err != nil || !exists || ver != 1 || val.Attr("stock") != 10 {
		t.Fatalf("read: %v v%d %v %v", val, ver, exists, err)
	}
	// A replica that has not executed the insert yet rejects an update
	// reading version 1, and two such stragglers abort it.
	waitEverywhere(t, c, "item/1", atVersion(1))
	ok, err = s.Commit(Physical("item/1", ver, val.WithAttr("stock", 9)))
	if err != nil || !ok {
		t.Fatalf("update: ok=%v err=%v", ok, err)
	}
	val, ver, _, _ = s.Read("item/1")
	if ver != 2 || val.Attr("stock") != 9 {
		t.Fatalf("after update: %v v%d", val, ver)
	}
}

func TestSessionsFromDifferentDCs(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	west := c.Session(USWest)
	tokyo := c.Session(APTokyo)

	if ok, err := west.Commit(Insert("geo/1", Value{Attrs: map[string]int64{"x": 1}})); err != nil || !ok {
		t.Fatalf("west insert: %v %v", ok, err)
	}
	// Tokyo's local replica converges once visibility lands.
	waitFor(t, "geo/1 at x=1 in tokyo", func() bool {
		val, _, exists, err := tokyo.Read("geo/1")
		if err != nil {
			t.Fatal(err)
		}
		return exists && val.Attr("x") == 1
	})
}

func TestConflictDetectedAcrossSessions(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	a := c.Session(USWest)
	b := c.Session(USEast)
	if ok, _ := a.Commit(Insert("c/1", Value{Attrs: map[string]int64{"x": 0}})); !ok {
		t.Fatal("insert failed")
	}
	// b's update carries the version a read; a replica that has not
	// executed the insert yet would reject it, so wait for every one.
	waitEverywhere(t, c, "c/1", atVersion(1))
	const verA = Version(1)
	if ok, err := b.Commit(Physical("c/1", verA, Value{Attrs: map[string]int64{"x": 5}})); err != nil || !ok {
		t.Fatalf("b's update failed: ok=%v err=%v", ok, err)
	}
	// a's stale write must abort.
	if ok, _ := a.Commit(Physical("c/1", verA, Value{Attrs: map[string]int64{"x": 9}})); ok {
		t.Fatal("stale write committed (lost update)")
	}
}

func TestCommutativeWithConstraint(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{
		Constraints: []Constraint{MinBound("stock", 0)},
	})
	s := c.Session(EUIreland)
	if ok, _ := s.Commit(Insert("inv/1", Value{Attrs: map[string]int64{"stock": 3}})); !ok {
		t.Fatal("insert failed")
	}
	committed := 0
	for i := 0; i < 6; i++ {
		if ok, err := s.Commit(Commutative("inv/1", map[string]int64{"stock": -1})); err != nil {
			t.Fatal(err)
		} else if ok {
			committed++
		}
	}
	if committed > 3 {
		t.Fatalf("%d decrements committed against stock 3", committed)
	}
	val, _, _, _ := s.Read("inv/1")
	if val.Attr("stock") < 0 {
		t.Fatalf("constraint violated: %d", val.Attr("stock"))
	}
}

func TestTransactRetryLoop(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	if ok, _ := s.Commit(Insert("t/1", Value{Attrs: map[string]int64{"n": 0}})); !ok {
		t.Fatal("insert failed")
	}
	// Event-driven wait: a Transact read racing the insert's async
	// visibility sees version 0 and proposes with insert semantics,
	// burning retry attempts on a race that is not under test.
	waitFor(t, "insert visibility", func() bool {
		_, ver, exists, _ := s.Read("t/1")
		return exists && ver >= 1
	})
	ok, err := s.Transact(3, func(tx *TxView) error {
		v, ver, _ := tx.Read("t/1")
		tx.Write("t/1", ver, v.WithAttr("n", v.Attr("n")+1))
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("transact: %v %v", ok, err)
	}
	// The committed write's visibility is asynchronous too.
	waitFor(t, "transact visibility", func() bool {
		v, _, _, _ := s.Read("t/1")
		return v.Attr("n") == 1
	})
}

func TestTransactUserError(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	wantErr := fmt.Errorf("business rule")
	ok, err := s.Transact(3, func(tx *TxView) error { return wantErr })
	if ok || err != wantErr {
		t.Fatalf("Transact = %v, %v", ok, err)
	}
}

// attempts counts runs of fn, and anything below 1 runs it once: a
// transaction whose write conflicts every time is run exactly that
// often, by Transact and TransactSerializable alike.
func TestTransactAttemptsBelowOneRunOnce(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	if ok, _ := s.Commit(Insert("once/1", Value{Attrs: map[string]int64{"n": 0}})); !ok {
		t.Fatal("insert failed")
	}
	waitFor(t, "insert visibility", func() bool {
		_, ver, exists, _ := s.Read("once/1")
		return exists && ver >= 1
	})
	transacts := []struct {
		name string
		run  func(int, func(*TxView) error) (bool, error)
	}{{"Transact", s.Transact}, {"TransactSerializable", s.TransactSerializable}}
	for _, tr := range transacts {
		for _, tc := range []struct{ attempts, runs int }{{-1, 1}, {0, 1}, {1, 1}, {3, 3}} {
			runs := 0
			ok, err := tr.run(tc.attempts, func(tx *TxView) error {
				runs++
				tx.Insert("once/1", Value{Attrs: map[string]int64{"n": 1}}) // the key exists: rejected
				return nil
			})
			if ok || err != nil || runs != tc.runs {
				t.Errorf("%s(%d) = %v, %v after %d runs; want a conflict after %d",
					tr.name, tc.attempts, ok, err, runs, tc.runs)
			}
		}
	}
}

func TestConcurrentSessions(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	if ok, _ := s.Commit(Insert("cc/1", Value{Attrs: map[string]int64{"n": 0}})); !ok {
		t.Fatal("insert failed")
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	commits := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		dc := DC(g % 5)
		go func() {
			defer wg.Done()
			sess := c.Session(dc)
			ok, err := sess.Transact(10, func(tx *TxView) error {
				v, ver, _ := tx.Read("cc/1")
				tx.Write("cc/1", ver, v.WithAttr("n", v.Attr("n")+1))
				return nil
			})
			if err != nil {
				t.Errorf("transact: %v", err)
				return
			}
			if ok {
				mu.Lock()
				commits++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	waitFor(t, fmt.Sprintf("cc/1 to reach %d (a lower final count is a lost update)", commits), func() bool {
		v, _, _, err := s.Read("cc/1")
		if err != nil {
			t.Fatal(err)
		}
		return v.Attr("n") == int64(commits)
	})
}

func TestReadMany(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(APSingapore)
	var ups []Update
	for i := 0; i < 5; i++ {
		ups = append(ups, Insert(Key(fmt.Sprintf("m/%d", i)), Value{Attrs: map[string]int64{"i": int64(i)}}))
	}
	if ok, _ := s.Commit(ups...); !ok {
		t.Fatal("bulk insert failed")
	}
	keys := []Key{"m/0", "m/1", "m/2", "m/3", "m/4", "m/none"}
	// Visibility is asynchronous: the local replica may lag the
	// commit acknowledgement briefly (read committed, not
	// read-your-writes). Retry until it converges.
	var vals []Value
	var exist []bool
	waitFor(t, "bulk insert visibility", func() bool {
		var err error
		vals, _, exist, err = s.ReadMany(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if !exist[i] {
				return false
			}
		}
		return true
	})
	for i := 0; i < 5; i++ {
		if !exist[i] || vals[i].Attr("i") != int64(i) {
			t.Fatalf("m/%d = %v %v", i, vals[i], exist[i])
		}
	}
	if exist[5] {
		t.Fatal("phantom record")
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USEast)
	if ok, _ := s.Commit(Insert("d/1", Value{Attrs: map[string]int64{"x": 1}})); !ok {
		t.Fatal("insert failed")
	}
	// Wait for the insert's asynchronous visibility to reach the
	// local replica (read committed, not read-your-writes).
	waitFor(t, "d/1 insert visibility", func() bool {
		_, _, exists, _ := s.Read("d/1")
		return exists
	})
	// A write racing the previous commit's visibility can
	// legitimately abort; the standard OCC retry loop absorbs it.
	ok, err := s.Transact(20, func(tx *TxView) error {
		_, ver, exists := tx.Read("d/1")
		if !exists {
			t.Fatal("record vanished before delete")
		}
		tx.Delete("d/1", ver)
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	waitFor(t, "d/1 tombstone visibility", func() bool {
		_, ver, exists, _ := s.Read("d/1")
		return !exists && ver >= 2
	})
	// Re-insert on top of the tombstone version.
	ok, err = s.Transact(20, func(tx *TxView) error {
		_, ver, _ := tx.Read("d/1")
		tx.Write("d/1", ver, Value{Attrs: map[string]int64{"x": 2}})
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("re-insert: %v %v", ok, err)
	}
	waitFor(t, "re-inserted d/1 at x=2", func() bool {
		v, _, exists, _ := s.Read("d/1")
		return exists && v.Attr("x") == 2
	})
}

func TestFailDCContinues(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	if ok, _ := s.Commit(Insert("f/1", Value{Attrs: map[string]int64{"x": 0}})); !ok {
		t.Fatal("insert failed")
	}
	// Event-driven wait: visibility is asynchronous, so read until the
	// insert lands before taking the DC down (a read racing visibility
	// returns version 0 and the update below would be rejected for the
	// wrong reason).
	waitFor(t, "insert visibility", func() bool {
		_, _, exists, err := s.Read("f/1")
		return err == nil && exists
	})
	c.FailDC(USEast)
	defer c.RecoverDC(USEast)
	// The claim under test is liveness during the outage (§5.4): one
	// DC down still leaves a fast quorum of 4. Retry the
	// read-modify-write until it commits — a single attempt can lose
	// to a stale read version or a transient recovery under load,
	// neither of which is the outage stalling commits.
	waitFor(t, "commit during outage", func() bool {
		_, ver, _, err := s.Read("f/1")
		if err != nil {
			return false
		}
		ok, err := s.Commit(Physical("f/1", ver, Value{Attrs: map[string]int64{"x": 1}}))
		return err == nil && ok
	})
}

func TestDurableCluster(t *testing.T) {
	dir := t.TempDir()
	c := startTestCluster(t, ClusterConfig{DataDir: dir})
	s := c.Session(USWest)
	if ok, _ := s.Commit(Insert("dur/1", Value{Attrs: map[string]int64{"x": 7}})); !ok {
		t.Fatal("insert failed")
	}
	// Every replica executes (and logs) the write, then the whole
	// cluster restarts from disk.
	waitEverywhere(t, c, "dur/1", func(v Value, _ Version, ok bool) bool { return ok && v.Attr("x") == 7 })
	c.Close()

	c2, err := StartCluster(ClusterConfig{DataDir: dir, LatencyScale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	v, _, exists, err := c2.Session(USWest).Read("dur/1")
	if err != nil || !exists || v.Attr("x") != 7 {
		t.Fatalf("after restart: %v %v %v", v, exists, err)
	}
	// The embedded cluster runs the same durable engine as
	// mdcc-server -data: one log per node, puts and decisions, replayed
	// at reopen.
	for _, d := range c2.dcs {
		for _, n := range d.Nodes {
			if rs := n.Durability().Replay; rs.Tail == 0 && !rs.UsedSnapshot {
				t.Errorf("node %s recovered nothing from its log: %+v", n.ID(), rs)
			}
		}
	}
}

// TestDurableClusterRefusesOldLayout: a DataDir whose node directories
// hold WAL segments at top level was written by the kv-only layout;
// it is refused by name, never opened empty beside the old data.
func TestDurableClusterRefusesOldLayout(t *testing.T) {
	dir := t.TempDir()
	nodeDir := filepath.Join(dir, string(topology.StorageID(USWest, 0)))
	st, err := kv.Open(nodeDir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("old/1", Value{Attrs: map[string]int64{"x": 1}}, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := StartCluster(ClusterConfig{DataDir: dir})
	if err == nil {
		c.Close()
		t.Fatal("old-layout DataDir opened")
	}
	if !strings.Contains(err.Error(), nodeDir) {
		t.Fatalf("error does not name the directory: %v", err)
	}
}

func TestModeVariants(t *testing.T) {
	for _, mode := range []Mode{ModeMDCC, ModeFast, ModeMulti} {
		c := startTestCluster(t, ClusterConfig{Mode: mode})
		s := c.Session(USWest)
		if ok, err := s.Commit(Insert("mv/1", Value{Attrs: map[string]int64{"x": 1}})); err != nil || !ok {
			t.Fatalf("mode %v: insert ok=%v err=%v", mode, ok, err)
		}
		waitEverywhere(t, c, "mv/1", func(v Value, _ Version, ok bool) bool { return ok && v.Attr("x") == 1 })
		c.Close()
	}
}

func TestReadLatestSeesFresh(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	if ok, _ := s.Commit(Insert("rl/1", Value{Attrs: map[string]int64{"x": 1}})); !ok {
		t.Fatal("insert failed")
	}
	// A quorum read right after commit must observe the committed
	// write: the commit reached a fast quorum (4/5), which intersects
	// every majority (3/5) in at least 2 replicas, at least one of
	// which has applied visibility once it lands. Retry briefly for
	// the visibility race, but require far fewer retries than the
	// local-replica path might need after a failure.
	waitFor(t, "a quorum read to observe the commit", func() bool {
		_, ver, exists, err := s.ReadLatest("rl/1")
		if err != nil {
			t.Fatal(err)
		}
		return exists && ver == 1
	})
}

func TestReadLatestSurvivesLocalDCFailure(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	if ok, _ := s.Commit(Insert("rl/2", Value{Attrs: map[string]int64{"x": 7}})); !ok {
		t.Fatal("insert failed")
	}
	// The quorum read below takes the first majority of answers, and a
	// straggler's "not found" is a legitimate one.
	waitEverywhere(t, c, "rl/2", func(_ Value, _ Version, ok bool) bool { return ok })
	// Kill the local DC: plain Read falls back to other DCs after a
	// timeout; ReadLatest keeps working because it only needs any
	// majority.
	c.FailDC(USWest)
	defer c.RecoverDC(USWest)
	v, _, exists, err := s.ReadLatest("rl/2")
	if err != nil || !exists || v.Attr("x") != 7 {
		t.Fatalf("quorum read during local outage: %v %v %v", v, exists, err)
	}
}

func TestClusterAntiEntropyCatchUp(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	if ok, _ := s.Commit(Insert("sync/1", Value{Attrs: map[string]int64{"x": 1}})); !ok {
		t.Fatal("insert failed")
	}
	waitEverywhere(t, c, "sync/1", func(_ Value, _ Version, ok bool) bool { return ok })
	// Partition Tokyo, update, recover, and read from Tokyo: the
	// anti-entropy background sync must deliver the new value without
	// further writes.
	c.FailDC(APTokyo)
	_, ver, _, _ := s.Read("sync/1")
	if ok, _ := s.Commit(Physical("sync/1", ver, Value{Attrs: map[string]int64{"x": 2}})); !ok {
		t.Fatal("update during partition failed")
	}
	c.RecoverDC(APTokyo)
	tokyo := c.Session(APTokyo)
	waitFor(t, "tokyo to catch up via anti-entropy", func() bool {
		v, _, ok, err := tokyo.Read("sync/1")
		if err != nil {
			t.Fatal(err)
		}
		return ok && v.Attr("x") == 2
	})
}

func TestSessionGuaranteesReadYourWrites(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	s.EnableSessionGuarantees()
	if ok, _ := s.Commit(Insert("ryw/1", Value{Attrs: map[string]int64{"x": 1}})); !ok {
		t.Fatal("insert failed")
	}
	// The very next read must observe the insert — no retry loop.
	v, ver, exists, err := s.Read("ryw/1")
	if err != nil || !exists || ver < 1 || v.Attr("x") != 1 {
		t.Fatalf("read-your-writes violated: %v v%d %v %v", v, ver, exists, err)
	}
	// Update and read again.
	ok, err := s.Transact(10, func(tx *TxView) error {
		val, vr, _ := tx.Read("ryw/1")
		tx.Write("ryw/1", vr, val.WithAttr("x", 2))
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	v, _, _, _ = s.Read("ryw/1")
	if v.Attr("x") != 2 {
		t.Fatalf("own update not visible: %v", v)
	}
}

func TestSessionGuaranteesMonotonic(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	writer := c.Session(USEast)
	reader := c.Session(USWest)
	reader.EnableSessionGuarantees()
	if ok, _ := writer.Commit(Insert("mono/1", Value{Attrs: map[string]int64{"x": 1}})); !ok {
		t.Fatal("insert failed")
	}
	// Reader observes some version; subsequent reads must never
	// return an older one even across many reads racing visibility.
	var maxSeen Version
	for i := 0; i < 50; i++ {
		_, ver, _, err := reader.Read("mono/1")
		if err != nil {
			t.Fatal(err)
		}
		if ver < maxSeen {
			t.Fatalf("monotonic reads violated: saw v%d after v%d", ver, maxSeen)
		}
		if ver > maxSeen {
			maxSeen = ver
		}
		if i == 20 {
			val, wver, _, _ := writer.Read("mono/1")
			writer.Commit(Physical("mono/1", wver, val.WithAttr("x", 9)))
		}
	}
}

// TestSessionFloorMissIsTimeout: a session whose every replica lags its
// floor (here: a floor no replica can ever reach) gets ErrTimeout from
// Read and ReadMany — never a version below the floor with a nil error
// — and a key whose floor is met still reads normally beside it.
func TestSessionFloorMissIsTimeout(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{})
	s := c.Session(USWest)
	s.EnableSessionGuarantees()
	for _, k := range []Key{"floor/lag", "floor/ok"} {
		if ok, err := s.Commit(Insert(k, Value{Attrs: map[string]int64{"x": 1}})); err != nil || !ok {
			t.Fatalf("insert %s: ok=%v err=%v", k, ok, err)
		}
	}
	waitEverywhere(t, c, "floor/lag", atVersion(1))
	s.floors.Read("floor/lag", 99) // as if the session had seen v99: every replica now lags it

	if _, ver, _, err := s.Read("floor/lag"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Read below the floor returned v%d err=%v, want ErrTimeout", ver, err)
	}
	if _, vers, _, err := s.ReadMany([]Key{"floor/ok", "floor/lag"}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("ReadMany below the floor returned %v err=%v, want ErrTimeout", vers, err)
	}
	if _, ver, exists, err := s.Read("floor/ok"); err != nil || !exists || ver != 1 {
		t.Fatalf("Read at the floor: v%d exists=%v err=%v", ver, exists, err)
	}
}
