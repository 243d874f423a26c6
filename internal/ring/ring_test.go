package ring

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, 0, n)
	for i := 0; i < n/3; i++ {
		keys = append(keys, fmt.Sprintf("acct/a%d", i))
		keys = append(keys, fmt.Sprintf("stock/hot%d", i))
		keys = append(keys, fmt.Sprintf("item/i%d", i))
	}
	return keys
}

// TestDeterministicPlacement pins the property epoch fencing relies
// on: two independent compilations of the same map (two "nodes"
// holding the same epoch) agree on the owner of every key.
func TestDeterministicPlacement(t *testing.T) {
	m := New([]int{0, 1, 2, 3}, DefaultVPoints)
	a, b := Compile(m), Compile(m.Clone())
	for _, k := range testKeys(3000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("same epoch, different owner for %q: %d vs %d", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestOwnersCoverGroups checks placement actually spreads keys over
// every active group with tolerable imbalance at DefaultVPoints.
func TestOwnersCoverGroups(t *testing.T) {
	m := New([]int{0, 1, 2, 3}, DefaultVPoints)
	r := Compile(m)
	counts := map[int]int{}
	keys := testKeys(6000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	if len(counts) != 4 {
		t.Fatalf("keys landed on %d of 4 groups: %v", len(counts), counts)
	}
	fair := len(keys) / 4
	for g, c := range counts {
		if c < fair/3 || c > fair*3 {
			t.Errorf("group %d owns %d keys (fair share %d): imbalance too large", g, c, fair)
		}
	}
}

// TestMinimalMovement pins the consistent-hashing contract: adding a
// group re-homes roughly 1/G of the keyspace onto the new group and
// never shuffles a key between two surviving groups; removing it
// restores every key to its old owner.
func TestMinimalMovement(t *testing.T) {
	keys := testKeys(9000)
	for _, groups := range [][]int{{0}, {0, 1}, {0, 1, 2}} {
		before := Compile(New(groups, DefaultVPoints))
		added := len(groups) // next group index
		afterMap := before.Map().WithGroup(added)
		after := Compile(afterMap)

		moved := 0
		for _, k := range keys {
			was, is := before.Owner(k), after.Owner(k)
			if was != is {
				moved++
				if is != added {
					t.Fatalf("group add shuffled %q between survivors: %d -> %d", k, was, is)
				}
			}
		}
		g := len(groups) + 1
		frac := float64(moved) / float64(len(keys))
		want := 1.0 / float64(g)
		if frac < want/3 || frac > want*3 {
			t.Errorf("add group to %v moved %.3f of keys, want ~%.3f", groups, frac, want)
		}

		// Removing the group again restores exactly the old placement.
		restored := Compile(afterMap.WithoutGroup(added))
		for _, k := range keys {
			if restored.Owner(k) != before.Owner(k) {
				t.Fatalf("remove did not restore %q: %d vs %d", k, restored.Owner(k), before.Owner(k))
			}
		}
	}
}

// TestMapGobRoundTrip pins the wire stability of ring epochs: a map
// gob-encoded on one node decodes on another into an identical ring.
func TestMapGobRoundTrip(t *testing.T) {
	m := New([]int{0, 2, 5}, 48).WithGroup(7).WithoutGroup(2)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got Map
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Epoch != m.Epoch || got.VPoints != m.VPoints || len(got.Groups) != len(m.Groups) {
		t.Fatalf("round trip changed the map: %+v vs %+v", got, m)
	}
	a, b := Compile(m), Compile(got)
	for _, k := range testKeys(3000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("round-tripped map places %q differently: %d vs %d", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestTableInstallAndMoved pins the table lifecycle: stale installs
// are refused, and Moved reports exactly the keys whose owner changed
// at the last publish.
func TestTableInstallAndMoved(t *testing.T) {
	tb := NewTable(New([]int{0}, DefaultVPoints))
	if tb.Epoch() != 1 {
		t.Fatalf("fresh table epoch = %d, want 1", tb.Epoch())
	}
	next := tb.Current().Map().WithGroup(1)
	if tb.Moved("acct/a1") {
		t.Fatal("Moved true before any publish")
	}
	if tb.Install(tb.Current().Map()) {
		t.Fatal("stale install (same epoch) accepted")
	}
	staged := Compile(next)
	if !tb.Install(next) {
		t.Fatal("install of next epoch refused")
	}
	if tb.Epoch() != 2 {
		t.Fatalf("post-install epoch=%d", tb.Epoch())
	}
	movedSome := false
	for _, k := range testKeys(3000) {
		want := staged.Owner(k) != 0 // previous ring owned everything at group 0
		if tb.Moved(k) != want {
			t.Fatalf("Moved(%q) = %v, want %v", k, tb.Moved(k), want)
		}
		movedSome = movedSome || want
	}
	if !movedSome {
		t.Fatal("no key moved when adding a group")
	}
}

// TestErrWrongShard pins the typed fence error carrying the epoch.
func TestErrWrongShard(t *testing.T) {
	err := error(ErrWrongShard{Epoch: 7})
	var ws ErrWrongShard
	if !asWrongShard(err, &ws) || ws.Epoch != 7 {
		t.Fatalf("ErrWrongShard lost its epoch: %v", err)
	}
}

func asWrongShard(err error, out *ErrWrongShard) bool {
	ws, ok := err.(ErrWrongShard)
	if ok {
		*out = ws
	}
	return ok
}
