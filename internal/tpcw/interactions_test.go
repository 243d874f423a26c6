package tpcw

import (
	"math/rand"
	"strings"
	"testing"

	"mdcc/internal/mtx"
	"mdcc/internal/record"
	"mdcc/internal/topology"
)

// fakeClient is a synchronous in-memory mtx.Client for driving
// interactions without a cluster.
type fakeClient struct {
	vals    map[record.Key]record.Encoded
	vers    map[record.Key]record.Version
	comm    bool
	commits int
	aborts  int
}

func newFake(comm bool) *fakeClient {
	return &fakeClient{
		vals: make(map[record.Key]record.Encoded),
		vers: make(map[record.Key]record.Version),
		comm: comm,
	}
}

func (f *fakeClient) load(entries []struct {
	k record.Key
	v record.Value
}) {
	for _, e := range entries {
		f.vals[e.k] = record.Encode(e.v)
		f.vers[e.k] = 1
	}
}

func (f *fakeClient) Read(key record.Key, cb func(record.Value, record.Version, bool)) {
	v, ok := f.vals[key]
	cb(v.Decode(), f.vers[key], ok && !v.Tombstone())
}

func (f *fakeClient) Commit(updates []record.Update, done func(bool)) {
	// Validate first (atomicity).
	for _, up := range updates {
		switch up.Kind {
		case record.KindPhysical:
			if up.ReadVersion != f.vers[up.Key] {
				f.aborts++
				done(false)
				return
			}
		case record.KindCommutative:
			cur := f.vals[up.Key]
			after := up.Apply(cur)
			if after.Decode().Attr(AttrStock) < 0 {
				f.aborts++
				done(false)
				return
			}
		}
	}
	for _, up := range updates {
		f.vals[up.Key] = up.Apply(f.vals[up.Key])
		f.vers[up.Key]++
	}
	f.commits++
	done(true)
}

func (f *fakeClient) SupportsCommutative() bool { return f.comm }

// seedItems puts items 0..n-1 into the fake store.
func seedItems(f *fakeClient, w *Workload, n int) {
	rng := rand.New(rand.NewSource(1))
	for _, e := range w.Preload(rng)[:n] {
		f.vals[e.Key] = e.Value
		f.vers[e.Key] = e.Version
	}
}

func runTxn(t *testing.T, txn mtx.Txn, c mtx.Client) mtx.TxnResult {
	t.Helper()
	var res *mtx.TxnResult
	txn(c, rand.New(rand.NewSource(2)), func(r mtx.TxnResult) { res = &r })
	if res == nil {
		t.Fatal("transaction never completed")
	}
	return *res
}

func TestShoppingCartPersistsLines(t *testing.T) {
	w := New(Options{Items: 50})
	f := newFake(true)
	seedItems(f, w, 50)
	rng := rand.New(rand.NewSource(3))
	b := w.browserFor(7)

	res := runTxn(t, w.shoppingCart(b, rng), f)
	if !res.Committed || !res.Write {
		t.Fatalf("cart txn = %+v", res)
	}
	if len(b.cart) == 0 {
		t.Fatal("browser cart empty after committed ShoppingCart")
	}
	cart := f.vals[CartKey(7)].Decode()
	lines := 0
	for name := range cart.Attrs {
		if strings.HasPrefix(name, "line_") {
			lines++
		}
	}
	if lines != len(b.cart) {
		t.Fatalf("cart record has %d lines, browser has %d", lines, len(b.cart))
	}
}

func TestBuyConfirmCommutativePath(t *testing.T) {
	w := New(Options{Items: 50})
	f := newFake(true)
	seedItems(f, w, 50)
	rng := rand.New(rand.NewSource(4))
	b := w.browserFor(1)
	b.cart = map[int]int64{3: 2, 9: 1}

	before3 := f.vals[ItemKey(3)].Decode().Attr(AttrStock)
	before9 := f.vals[ItemKey(9)].Decode().Attr(AttrStock)
	res := runTxn(t, w.buyConfirm(b, rng), f)
	if !res.Committed {
		t.Fatal("buy aborted")
	}
	if got := f.vals[ItemKey(3)].Decode().Attr(AttrStock); got != before3-2 {
		t.Fatalf("item 3 stock %d, want %d", got, before3-2)
	}
	if got := f.vals[ItemKey(9)].Decode().Attr(AttrStock); got != before9-1 {
		t.Fatalf("item 9 stock %d, want %d", got, before9-1)
	}
	order, ok := f.vals[b.lastOrder]
	if !ok || order.Decode().Attr(AttrQty) != 3 {
		t.Fatalf("order record = %v %v", order, ok)
	}
	if len(b.cart) != 0 {
		t.Fatal("cart not cleared after buy")
	}
}

func TestBuyConfirmRMWPath(t *testing.T) {
	w := New(Options{Items: 50})
	f := newFake(false) // no commutative support → read-modify-write
	seedItems(f, w, 50)
	rng := rand.New(rand.NewSource(5))
	b := w.browserFor(2)
	b.cart = map[int]int64{5: 2}

	before := f.vals[ItemKey(5)].Decode().Attr(AttrStock)
	res := runTxn(t, w.buyConfirm(b, rng), f)
	if !res.Committed {
		t.Fatal("RMW buy aborted")
	}
	if got := f.vals[ItemKey(5)].Decode().Attr(AttrStock); got != before-2 {
		t.Fatalf("stock %d, want %d", got, before-2)
	}
}

func TestBuyConfirmEmptyCartImpulseBuy(t *testing.T) {
	w := New(Options{Items: 50})
	f := newFake(true)
	seedItems(f, w, 50)
	rng := rand.New(rand.NewSource(6))
	b := w.browserFor(3) // empty cart

	res := runTxn(t, w.buyConfirm(b, rng), f)
	if !res.Committed {
		t.Fatal("impulse buy aborted")
	}
	if f.vals[b.lastOrder].Decode().Attr(AttrQty) != 1 {
		t.Fatal("impulse buy should order exactly one unit")
	}
}

func TestBuyConfirmOutOfStockAborts(t *testing.T) {
	w := New(Options{Items: 5})
	f := newFake(false)
	seedItems(f, w, 5)
	// Drain item 0.
	v := f.vals[ItemKey(0)].Decode()
	f.vals[ItemKey(0)] = record.Encode(v.WithAttr(AttrStock, 0))
	rng := rand.New(rand.NewSource(7))
	b := w.browserFor(4)
	b.cart = map[int]int64{0: 1}

	res := runTxn(t, w.buyConfirm(b, rng), f)
	if res.Committed {
		t.Fatal("bought an out-of-stock item")
	}
}

func TestCustomerRegistrationInserts(t *testing.T) {
	w := New(Options{Items: 10})
	f := newFake(true)
	b := w.browserFor(5)
	res := runTxn(t, w.customerRegistration(b), f)
	if !res.Committed || !res.Write {
		t.Fatalf("registration = %+v", res)
	}
	if _, ok := f.vals[CustKey(5, 1)]; !ok {
		t.Fatal("customer record missing")
	}
	// Sequence advances.
	runTxn(t, w.customerRegistration(b), f)
	if _, ok := f.vals[CustKey(5, 2)]; !ok {
		t.Fatal("second registration missing")
	}
}

func TestBuyRequestStampsCart(t *testing.T) {
	w := New(Options{Items: 10})
	f := newFake(true)
	seedItems(f, w, 10)
	rng := rand.New(rand.NewSource(8))
	b := w.browserFor(6)
	runTxn(t, w.shoppingCart(b, rng), f)
	res := runTxn(t, w.buyRequest(b, rng), f)
	if !res.Committed {
		t.Fatal("buy request aborted")
	}
	if _, ok := f.vals[CartKey(6)].Decode().Attrs["ship"]; !ok {
		t.Fatal("cart not stamped with shipping")
	}
}

func TestAdminConfirmUpdatesPrice(t *testing.T) {
	w := New(Options{Items: 10})
	f := newFake(true)
	seedItems(f, w, 10)
	rng := rand.New(rand.NewSource(9))
	res := runTxn(t, w.adminConfirm(rng), f)
	if !res.Committed || !res.Write {
		t.Fatalf("admin confirm = %+v", res)
	}
	if f.commits != 1 {
		t.Fatalf("commits = %d", f.commits)
	}
}

func TestReadOnlyInteractions(t *testing.T) {
	w := New(Options{Items: 20})
	f := newFake(true)
	seedItems(f, w, 20)
	rng := rand.New(rand.NewSource(10))
	for _, wi := range []Interaction{Home, NewProducts, BestSellers, ProductDetail, SearchRequest, SearchResults, OrderInquiry, AdminRequest} {
		_ = wi
		res := runTxn(t, w.readKeys(w.promoKeys(rng, 3)), f)
		if !res.Committed || res.Write {
			t.Fatalf("read-only interaction = %+v", res)
		}
	}
	if f.commits != 0 {
		t.Fatal("read-only interactions issued commits")
	}
}

func TestNextCoversWriteAndReadMix(t *testing.T) {
	w := New(Options{Items: 100})
	f := newFake(true)
	seedItems(f, w, 100)
	rng := rand.New(rand.NewSource(11))
	writes, reads := 0, 0
	for i := 0; i < 2000; i++ {
		res := runTxn(t, w.Next(i%10, topology.USWest, rng), f)
		if res.Write {
			writes++
		} else {
			reads++
		}
	}
	frac := float64(writes) / 2000
	if frac < 0.4 || frac > 0.62 {
		t.Fatalf("write fraction %.2f, want ≈0.5 (ordering mix)", frac)
	}
	ints := w.Interactions()
	for _, name := range []string{"BuyConfirm", "ShoppingCart", "Home", "SearchRequest"} {
		if ints[name] == 0 {
			t.Fatalf("interaction %s never issued: %v", name, ints)
		}
	}
}
