package microbench

import (
	"math/rand"
	"testing"

	"mdcc/internal/mtx"
	"mdcc/internal/record"
	"mdcc/internal/topology"
)

func TestDefaults(t *testing.T) {
	o := Defaults()
	if o.Items != 10000 || o.InitialStockMin != 10000 || o.InitialStockMax != 20000 {
		t.Fatalf("paper defaults wrong: %+v", o)
	}
}

func TestPreload(t *testing.T) {
	w := New(Options{Items: 100, InitialStockMin: 5, InitialStockMax: 9, LocalMasterFrac: -1})
	entries := w.Preload(rand.New(rand.NewSource(1)))
	if len(entries) != 100 {
		t.Fatalf("preload %d entries", len(entries))
	}
	for _, e := range entries {
		s := e.Value.Decode().Attr(StockAttr)
		if s < 5 || s > 9 {
			t.Fatalf("stock %d out of range", s)
		}
		if e.Version != 1 {
			t.Fatalf("version %d", e.Version)
		}
	}
}

func TestHotspotSkew(t *testing.T) {
	w := New(Options{Items: 1000, HotspotFrac: 0.1, LocalMasterFrac: -1})
	rng := rand.New(rand.NewSource(2))
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if w.pickItem(rng) < 100 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction %.3f, want ≈0.9", frac)
	}
}

func TestUniformWithoutHotspot(t *testing.T) {
	w := New(Options{Items: 1000, LocalMasterFrac: -1})
	rng := rand.New(rand.NewSource(3))
	lowHalf := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if w.pickItem(rng) < 500 {
			lowHalf++
		}
	}
	frac := float64(lowHalf) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("uniform fraction %.3f, want ≈0.5", frac)
	}
}

func TestBasketDistinctItems(t *testing.T) {
	w := New(Options{Items: 10, LocalMasterFrac: -1})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		b := w.basket(rng, topology.USWest)
		if len(b) != 3 {
			t.Fatalf("basket size %d", len(b))
		}
		seen := map[int]bool{}
		for _, it := range b {
			if seen[it] {
				t.Fatalf("duplicate item in basket: %v", b)
			}
			seen[it] = true
		}
	}
}

func TestLocalityPicksLocalMasters(t *testing.T) {
	w := New(Options{Items: 1000, LocalMasterFrac: 1.0})
	rng := rand.New(rand.NewSource(5))
	for _, dc := range topology.AllDCs() {
		if len(w.byDC[dc]) == 0 {
			t.Fatalf("no items mastered in %v", dc)
		}
	}
	for i := 0; i < 500; i++ {
		it := w.pickItemLocality(rng, topology.APTokyo, true)
		if w.masterOf[it] != topology.APTokyo {
			t.Fatalf("local pick returned remote-mastered item %d (%v)", it, w.masterOf[it])
		}
	}
	for i := 0; i < 500; i++ {
		it := w.pickItemLocality(rng, topology.APTokyo, false)
		if w.masterOf[it] == topology.APTokyo {
			t.Fatalf("remote pick returned local-mastered item %d", it)
		}
	}
}

func TestLocalityFraction(t *testing.T) {
	w := New(Options{Items: 1000, LocalMasterFrac: 0.8})
	rng := rand.New(rand.NewSource(6))
	localBaskets := 0
	const n = 5000
	for i := 0; i < n; i++ {
		b := w.basket(rng, topology.USEast)
		allLocal := true
		for _, it := range b {
			if w.masterOf[it] != topology.USEast {
				allLocal = false
				break
			}
		}
		if allLocal {
			localBaskets++
		}
	}
	frac := float64(localBaskets) / n
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("local basket fraction %.3f, want ≈0.8", frac)
	}
}

func TestItemKeyStable(t *testing.T) {
	if ItemKey(42) != "item/000042" {
		t.Fatalf("ItemKey = %q", ItemKey(42))
	}
	if Constraint().Attr != StockAttr {
		t.Fatal("constraint attr mismatch")
	}
}

// fakeClient drives Next paths synchronously without a cluster.
type fakeClient struct {
	vals map[record.Key]record.Encoded
	vers map[record.Key]record.Version
	comm bool
}

func newFake(w *Workload, comm bool) *fakeClient {
	f := &fakeClient{
		vals: make(map[record.Key]record.Encoded),
		vers: make(map[record.Key]record.Version),
		comm: comm,
	}
	for _, e := range w.Preload(rand.New(rand.NewSource(1))) {
		f.vals[e.Key] = e.Value
		f.vers[e.Key] = e.Version
	}
	return f
}

func (f *fakeClient) Read(key record.Key, cb func(record.Value, record.Version, bool)) {
	v, ok := f.vals[key]
	cb(v.Decode(), f.vers[key], ok)
}

func (f *fakeClient) Commit(updates []record.Update, done func(bool)) {
	for _, up := range updates {
		if up.Kind == record.KindPhysical && up.ReadVersion != f.vers[up.Key] {
			done(false)
			return
		}
		after := up.Apply(f.vals[up.Key])
		if after.Decode().Attr(StockAttr) < 0 {
			done(false)
			return
		}
	}
	for _, up := range updates {
		f.vals[up.Key] = up.Apply(f.vals[up.Key])
		f.vers[up.Key]++
	}
	done(true)
}

func (f *fakeClient) SupportsCommutative() bool { return f.comm }

func TestNextCommutativePath(t *testing.T) {
	w := New(Options{Items: 20,
		InitialStockMin: 100, InitialStockMax: 100, LocalMasterFrac: -1})
	f := newFake(w, true)
	rng := rand.New(rand.NewSource(2))
	var total int64
	for i := 0; i < 50; i++ {
		txn := w.Next(0, topology.USWest, rng)
		committed := false
		txn(f, rng, func(r mtx.TxnResult) {
			if !r.Write {
				t.Fatal("buy txn not marked as a write")
			}
			committed = r.Committed
		})
		if !committed {
			t.Fatalf("uncontended buy %d aborted", i)
		}
	}
	for i := 0; i < 20; i++ {
		s := f.vals[ItemKey(i)].Decode().Attr(StockAttr)
		if s > 100 {
			t.Fatalf("stock grew: %d", s)
		}
		total += 100 - s
	}
	if total == 0 {
		t.Fatal("no stock was decremented")
	}
}

func TestNextRMWPath(t *testing.T) {
	w := New(Options{Items: 20,
		InitialStockMin: 50, InitialStockMax: 50, LocalMasterFrac: -1})
	f := newFake(w, false)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		txn := w.Next(0, topology.USWest, rng)
		done := false
		txn(f, rng, func(r mtx.TxnResult) { done = true })
		if !done {
			t.Fatalf("RMW txn %d never completed", i)
		}
	}
	for i := 0; i < 20; i++ {
		if f.vals[ItemKey(i)].Decode().Attr(StockAttr) > 50 {
			t.Fatal("RMW increased stock")
		}
	}
}

func TestNextRMWOutOfStockAborts(t *testing.T) {
	// A basket is three distinct items, each wanting 1..3 units of a
	// stock of 1: the whole table is in every basket.
	w := New(Options{Items: 3,
		InitialStockMin: 1, InitialStockMax: 1, LocalMasterFrac: -1})
	f := newFake(w, false)
	rng := rand.New(rand.NewSource(4))
	aborted := false
	for i := 0; i < 20 && !aborted; i++ {
		txn := w.Next(0, topology.USWest, rng)
		txn(f, rng, func(r mtx.TxnResult) { aborted = !r.Committed })
	}
	if !aborted {
		t.Fatal("depleted stock never aborted an RMW buy")
	}
}
