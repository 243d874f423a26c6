package check

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mdcc/internal/bench"
	"mdcc/internal/kv"
	"mdcc/internal/mtx"
	"mdcc/internal/record"
)

// fake client for unit-testing the validator itself.
type fakeClient struct{ commit bool }

func (f fakeClient) Read(record.Key, func(record.Value, record.Version, bool)) {}
func (f fakeClient) Commit(ups []record.Update, done func(bool))               { done(f.commit) }

func TestRecorderCapturesOutcomes(t *testing.T) {
	h := New()
	ok := h.Client(0, fakeClient{commit: true})
	no := h.Client(1, fakeClient{commit: false})
	ok.Commit([]record.Update{record.Insert("a", record.Value{})}, func(bool) {})
	no.Commit([]record.Update{record.Insert("b", record.Value{})}, func(bool) {})
	c, a := h.Summary()
	if c != 1 || a != 1 {
		t.Fatalf("summary = %d/%d, want 1/1", c, a)
	}
	ops := h.Ops()
	if len(ops) != 2 || ops[0].Client != 0 || ops[1].Client != 1 {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestValidateDetectsLostUpdate(t *testing.T) {
	h := New()
	c := h.Client(0, fakeClient{commit: true})
	// Two committed writes with the same vread: a lost update.
	c.Commit([]record.Update{record.Physical("k", 1, record.Value{Attrs: map[string]int64{"x": 1}})}, func(bool) {})
	c.Commit([]record.Update{record.Physical("k", 1, record.Value{Attrs: map[string]int64{"x": 2}})}, func(bool) {})
	errs := h.Validate(
		map[record.Key]record.Value{"k": {Attrs: map[string]int64{"x": 0}}},
		func(record.Key) (record.Value, record.Version, bool) {
			return record.Value{Attrs: map[string]int64{"x": 2}}, 3, true
		}, nil)
	found := false
	for _, e := range errs {
		if containsStr(e.Error(), "lost update") {
			found = true
		}
	}
	if !found {
		t.Fatalf("lost update not detected: %v", errs)
	}
}

func TestValidateDetectsVersionMismatch(t *testing.T) {
	h := New()
	c := h.Client(0, fakeClient{commit: true})
	c.Commit([]record.Update{record.Physical("k", 1, record.Value{})}, func(bool) {})
	errs := h.Validate(
		map[record.Key]record.Value{"k": {}},
		func(record.Key) (record.Value, record.Version, bool) {
			return record.Value{}, 5, true // should be 2
		}, nil)
	if len(errs) == 0 {
		t.Fatal("version mismatch not detected")
	}
}

func TestValidateDetectsConservationViolation(t *testing.T) {
	h := New()
	c := h.Client(0, fakeClient{commit: true})
	c.Commit([]record.Update{record.Commutative("k", map[string]int64{"x": -3})}, func(bool) {})
	errs := h.Validate(
		map[record.Key]record.Value{"k": {Attrs: map[string]int64{"x": 10}}},
		func(record.Key) (record.Value, record.Version, bool) {
			return record.Value{Attrs: map[string]int64{"x": 9}}, 2, true // should be 7
		}, nil)
	if len(errs) == 0 {
		t.Fatal("conservation violation not detected")
	}
}

func TestValidateCleanHistory(t *testing.T) {
	h := New()
	c := h.Client(0, fakeClient{commit: true})
	c.Commit([]record.Update{record.Commutative("k", map[string]int64{"x": -3})}, func(bool) {})
	errs := h.Validate(
		map[record.Key]record.Value{"k": {Attrs: map[string]int64{"x": 10}}},
		func(record.Key) (record.Value, record.Version, bool) {
			return record.Value{Attrs: map[string]int64{"x": 7}}, 2, true
		},
		[]record.Constraint{record.MinBound("x", 0)})
	if len(errs) != 0 {
		t.Fatalf("clean history flagged: %v", errs)
	}
}

// End-to-end: drive a contended commutative workload through MDCC on
// the simulator with recorded clients, then machine-check every
// invariant against a storage replica's final state.
func TestMDCCHistoryValidates(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := bench.NewWorld(bench.Options{
			Protocol:    bench.ProtoMDCC,
			NodesPerDC:  1,
			Clients:     5,
			ClientDC:    -1,
			Seed:        seed,
			Constraints: []record.Constraint{record.MinBound("stock", 0)},
		})
		// Preload a small hot table.
		const items = 8
		initial := make(map[record.Key]record.Value, items)
		entries := make([]kv.Entry, 0, items)
		for i := 0; i < items; i++ {
			k := record.Key(fmt.Sprintf("h/%02d", i))
			v := record.Value{Attrs: map[string]int64{"stock": 30}}
			initial[k] = v
			entries = append(entries, kv.Entry{Key: k, Value: record.Encode(v), Version: 1})
		}
		w.Preload(entries)

		h := New()
		clients := make([]mtx.Client, len(w.Clients))
		for i := range w.Clients {
			clients[i] = h.Client(i, w.Clients[i])
		}
		// 60 contended decrements, staggered.
		rng := rand.New(rand.NewSource(seed))
		done := 0
		for i := 0; i < 60; i++ {
			ci := rng.Intn(len(clients))
			k := record.Key(fmt.Sprintf("h/%02d", rng.Intn(items)))
			amt := 1 + rng.Int63n(3)
			at := time.Duration(rng.Intn(8000)) * time.Millisecond
			c, key, a := clients[ci], k, amt
			w.Net.At(at, func() {
				c.Commit([]record.Update{record.Commutative(key, map[string]int64{"stock": -a})},
					func(bool) { done++ })
			})
		}
		if !w.Net.RunUntil(func() bool { return done == 60 }, 5*time.Minute) {
			t.Fatalf("seed %d: only %d/60 settled", seed, done)
		}
		w.Net.RunFor(20 * time.Second) // drain visibility

		final := func(key record.Key) (record.Value, record.Version, bool) {
			return w.StoreOf(key, 0)
		}
		if errs := h.Validate(initial, final, []record.Constraint{record.MinBound("stock", 0)}); len(errs) != 0 {
			for _, e := range errs {
				t.Error(e)
			}
			t.Fatalf("seed %d: history validation failed", seed)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Chaos variant: 2% message drops. Anti-entropy repairs replicas, so
// the final state still validates against the recorded history.
func TestMDCCHistoryValidatesUnderDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	w := bench.NewWorld(bench.Options{
		Protocol:     bench.ProtoMDCC,
		NodesPerDC:   1,
		Clients:      5,
		ClientDC:     -1,
		Seed:         9,
		Constraints:  []record.Constraint{record.MinBound("stock", 0)},
		DropProb:     0.02,
		SyncInterval: time.Second,
	})
	const items = 6
	initial := make(map[record.Key]record.Value, items)
	entries := make([]kv.Entry, 0, items)
	for i := 0; i < items; i++ {
		k := record.Key(fmt.Sprintf("d/%02d", i))
		v := record.Value{Attrs: map[string]int64{"stock": 40}}
		initial[k] = v
		entries = append(entries, kv.Entry{Key: k, Value: record.Encode(v), Version: 1})
	}
	w.Preload(entries)

	h := New()
	clients := make([]mtx.Client, len(w.Clients))
	for i := range w.Clients {
		clients[i] = h.Client(i, w.Clients[i])
	}
	rng := rand.New(rand.NewSource(9))
	done := 0
	const txns = 40
	for i := 0; i < txns; i++ {
		ci := rng.Intn(len(clients))
		k := record.Key(fmt.Sprintf("d/%02d", rng.Intn(items)))
		at := time.Duration(rng.Intn(10000)) * time.Millisecond
		c, key := clients[ci], k
		w.Net.At(at, func() {
			c.Commit([]record.Update{record.Commutative(key, map[string]int64{"stock": -1})},
				func(bool) { done++ })
		})
	}
	if !w.Net.RunUntil(func() bool { return done == txns }, 10*time.Minute) {
		t.Fatalf("only %d/%d settled under drops", done, txns)
	}
	w.Net.RunFor(60 * time.Second) // anti-entropy repair window

	// Validate against every replica: with repair they must all agree
	// with the history.
	for dc := 0; dc < 5; dc++ {
		dc := dc
		final := func(key record.Key) (record.Value, record.Version, bool) {
			return w.StoreOf(key, dc)
		}
		if errs := h.Validate(initial, final, []record.Constraint{record.MinBound("stock", 0)}); len(errs) != 0 {
			for _, e := range errs {
				t.Errorf("dc%d: %v", dc, e)
			}
			t.Fatalf("dc%d failed validation under drops", dc)
		}
	}
}

// Mixed workload: physical read-modify-writes, commutative deltas and
// serializable read checks interleaved on overlapping keys, across
// several seeds — the broadest machine-checked validation in the
// suite.
func TestMDCCMixedWorkloadValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short")
	}
	for seed := int64(20); seed < 24; seed++ {
		w := bench.NewWorld(bench.Options{
			Protocol:    bench.ProtoMDCC,
			NodesPerDC:  1,
			Clients:     5,
			ClientDC:    -1,
			Seed:        seed,
			Constraints: []record.Constraint{record.MinBound("stock", 0)},
		})
		const items = 10
		initial := make(map[record.Key]record.Value, items)
		entries := make([]kv.Entry, 0, items)
		for i := 0; i < items; i++ {
			k := record.Key(fmt.Sprintf("mx/%02d", i))
			v := record.Value{Attrs: map[string]int64{"stock": 50, "price": 100}}
			initial[k] = v
			entries = append(entries, kv.Entry{Key: k, Value: record.Encode(v), Version: 1})
		}
		w.Preload(entries)

		h := New()
		clients := make([]mtx.Client, len(w.Clients))
		for i := range w.Clients {
			clients[i] = h.Client(i, w.Clients[i])
		}
		rng := rand.New(rand.NewSource(seed))
		done := 0
		const txns = 50
		for i := 0; i < txns; i++ {
			ci := rng.Intn(len(clients))
			kind := rng.Intn(3)
			k := record.Key(fmt.Sprintf("mx/%02d", rng.Intn(items)))
			at := time.Duration(rng.Intn(12000)) * time.Millisecond
			c, key := clients[ci], k
			switch kind {
			case 0: // commutative decrement
				w.Net.At(at, func() {
					c.Commit([]record.Update{record.Commutative(key, map[string]int64{"stock": -1})},
						func(bool) { done++ })
				})
			case 1: // read-modify-write of the price
				w.Net.At(at, func() {
					c.Read(key, func(v record.Value, ver record.Version, ok bool) {
						if !ok {
							done++
							return
						}
						c.Commit([]record.Update{record.Physical(key, ver, v.WithAttr("price", v.Attr("price")+1))},
							func(bool) { done++ })
					})
				})
			default: // guarded write on another key (read check)
				k2 := record.Key(fmt.Sprintf("mx/%02d", rng.Intn(items)))
				w.Net.At(at, func() {
					c.Read(k2, func(_ record.Value, gver record.Version, gok bool) {
						if !gok {
							done++
							return
						}
						c.Read(key, func(v record.Value, ver record.Version, ok bool) {
							if !ok || key == k2 {
								done++
								return
							}
							c.Commit([]record.Update{
								record.ReadCheck(k2, gver),
								record.Physical(key, ver, v.WithAttr("price", v.Attr("price")+10)),
							}, func(bool) { done++ })
						})
					})
				})
			}
		}
		if !w.Net.RunUntil(func() bool { return done == txns }, 10*time.Minute) {
			t.Fatalf("seed %d: only %d/%d settled", seed, done, txns)
		}
		w.Net.RunFor(20 * time.Second)

		final := func(key record.Key) (record.Value, record.Version, bool) {
			return w.StoreOf(key, 0)
		}
		if errs := h.Validate(initial, final, []record.Constraint{record.MinBound("stock", 0)}); len(errs) != 0 {
			for _, e := range errs {
				t.Error(e)
			}
			t.Fatalf("seed %d: mixed-workload validation failed", seed)
		}
	}
}

func TestKeysMentioned(t *testing.T) {
	known := []record.Key{"stock/1", "stock/12", "item/a", ""}
	cases := []struct {
		msg  string
		want []record.Key
	}{
		{"check: key stock/12 lost 3 units", []record.Key{"stock/12", "stock/1"}},
		{"check: key stock/1 version regressed", []record.Key{"stock/1"}},
		{"delta conservation broke on item/a and stock/1", []record.Key{"stock/1", "item/a"}},
		{"no keys here", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := KeysMentioned(c.msg, known)
		if len(got) != len(c.want) {
			t.Errorf("KeysMentioned(%q) = %v, want %v", c.msg, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("KeysMentioned(%q)[%d] = %q, want %q", c.msg, i, got[i], c.want[i])
			}
		}
	}
}
