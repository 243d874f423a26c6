// Package tpcw implements the TPC-W benchmark at the database level,
// as the paper uses it (§5.2): all 14 web interactions issue their
// database operations against the uniform client interface, HTML
// rendering is skipped, emulated browsers run with no think time, and
// the most write-heavy profile (the "ordering" mix) stresses the
// system. The only transaction benefiting from commutativity is the
// product-buy (Buy Confirm), which decrements the stock of each item
// in the shopping cart under the constraint stock >= 0.
package tpcw

import (
	"fmt"
	"math/rand"
	"sort"

	"mdcc/internal/kv"
	"mdcc/internal/mtx"
	"mdcc/internal/record"
	"mdcc/internal/topology"
)

// Attribute names.
const (
	AttrStock = "stock"
	AttrPrice = "price" // cents
	AttrQty   = "qty"
	AttrTotal = "total"
)

// Constraint returns TPC-W's stock >= 0 rule.
func Constraint() record.Constraint { return record.MinBound(AttrStock, 0) }

// Interaction enumerates the 14 TPC-W web interactions.
type Interaction int

// The 14 web interactions.
const (
	Home Interaction = iota
	NewProducts
	BestSellers
	ProductDetail
	SearchRequest
	SearchResults
	ShoppingCart
	CustomerRegistration
	BuyRequest
	BuyConfirm
	OrderInquiry
	OrderDisplay
	AdminRequest
	AdminConfirm
	numInteractions
)

// String names the interaction.
func (i Interaction) String() string {
	names := [...]string{
		"Home", "NewProducts", "BestSellers", "ProductDetail",
		"SearchRequest", "SearchResults", "ShoppingCart",
		"CustomerRegistration", "BuyRequest", "BuyConfirm",
		"OrderInquiry", "OrderDisplay", "AdminRequest", "AdminConfirm",
	}
	if int(i) < len(names) {
		return names[i]
	}
	return fmt.Sprintf("WI(%d)", int(i))
}

// orderingMix is the TPC-W "ordering" profile (the write-heavy mix
// the paper runs), in basis points summing to 10000.
var orderingMix = [numInteractions]int{
	Home:                 912,
	NewProducts:          46,
	BestSellers:          46,
	ProductDetail:        1235,
	SearchRequest:        1453,
	SearchResults:        1308,
	ShoppingCart:         1353,
	CustomerRegistration: 1286,
	BuyRequest:           1273,
	BuyConfirm:           1018,
	OrderInquiry:         25,
	OrderDisplay:         22,
	AdminRequest:         12,
	AdminConfirm:         11,
}

// Options shapes the workload.
type Options struct {
	// Items is the scale factor (paper: 10,000).
	Items int
}

// cartMax bounds cart sizes (spec-ish small carts).
const cartMax = 3

// browser is one emulated browser's session state.
type browser struct {
	client    int
	cart      map[int]int64 // item index → qty (mirror of the cart record)
	custSeq   int
	orderSeq  int
	lastOrder record.Key
}

// Workload implements mtx.Workload.
type Workload struct {
	opts     Options
	browsers map[int]*browser
	// interactions counts issued WIs (observability in harness logs).
	interactions [numInteractions]int64
}

// New builds a TPC-W workload.
func New(opts Options) *Workload {
	if opts.Items <= 0 {
		opts.Items = 10000
	}
	return &Workload{opts: opts, browsers: make(map[int]*browser)}
}

// ItemKey / CustKey / CartKey / OrderKey name records.
func ItemKey(i int) record.Key { return record.Key(fmt.Sprintf("item/%06d", i)) }

// CustKey names a registered customer record.
func CustKey(client, seq int) record.Key {
	return record.Key(fmt.Sprintf("cust/%04d-%06d", client, seq))
}

// CartKey names a browser's (single, reused) shopping cart.
func CartKey(client int) record.Key {
	return record.Key(fmt.Sprintf("cart/%04d", client))
}

// OrderKey names an order.
func OrderKey(client, seq int) record.Key {
	return record.Key(fmt.Sprintf("order/%04d-%06d", client, seq))
}

// Preload implements mtx.Workload: the item table (other tables are
// created by the interactions themselves).
func (w *Workload) Preload(rng *rand.Rand) []kv.Entry {
	entries := make([]kv.Entry, 0, w.opts.Items)
	for i := 0; i < w.opts.Items; i++ {
		entries = append(entries, kv.Entry{
			Key: ItemKey(i),
			Value: record.Encode(record.Value{
				Attrs: map[string]int64{
					AttrStock: 5000 + rng.Int63n(5000),
					AttrPrice: 100 + rng.Int63n(9900),
				},
				Blob: []byte(fmt.Sprintf("item-%06d title/author payload", i)),
			}),
			Version: 1,
		})
	}
	return entries
}

// Interactions returns per-WI issue counts.
func (w *Workload) Interactions() map[string]int64 {
	out := make(map[string]int64, int(numInteractions))
	for i := Interaction(0); i < numInteractions; i++ {
		if w.interactions[i] > 0 {
			out[i.String()] = w.interactions[i]
		}
	}
	return out
}

func (w *Workload) browserFor(client int) *browser {
	b, ok := w.browsers[client]
	if !ok {
		b = &browser{client: client, cart: make(map[int]int64)}
		w.browsers[client] = b
	}
	return b
}

// pick chooses the next interaction per the ordering mix.
func pick(rng *rand.Rand) Interaction {
	n := rng.Intn(10000)
	acc := 0
	for i := Interaction(0); i < numInteractions; i++ {
		acc += orderingMix[i]
		if n < acc {
			return i
		}
	}
	return Home
}

// Next implements mtx.Workload.
func (w *Workload) Next(client int, dc topology.DC, rng *rand.Rand) mtx.Txn {
	b := w.browserFor(client)
	wi := pick(rng)
	w.interactions[wi]++
	switch wi {
	case Home:
		return w.readKeys(w.promoKeys(rng, 5))
	case NewProducts:
		return w.readKeys(w.promoKeys(rng, 10))
	case BestSellers:
		return w.readKeys(w.promoKeys(rng, 10))
	case ProductDetail:
		return w.readKeys(w.promoKeys(rng, 1))
	case SearchRequest:
		return w.readKeys(w.promoKeys(rng, 1))
	case SearchResults:
		return w.readKeys(w.promoKeys(rng, 5))
	case ShoppingCart:
		return w.shoppingCart(b, rng)
	case CustomerRegistration:
		return w.customerRegistration(b)
	case BuyRequest:
		return w.buyRequest(b, rng)
	case BuyConfirm:
		return w.buyConfirm(b, rng)
	case OrderInquiry, OrderDisplay:
		if b.lastOrder == "" {
			return w.readKeys(w.promoKeys(rng, 1))
		}
		return w.readKeys([]record.Key{b.lastOrder})
	case AdminRequest:
		return w.readKeys(w.promoKeys(rng, 1))
	case AdminConfirm:
		return w.adminConfirm(rng)
	default:
		return w.readKeys(w.promoKeys(rng, 1))
	}
}

func (w *Workload) promoKeys(rng *rand.Rand, n int) []record.Key {
	keys := make([]record.Key, 0, n)
	for len(keys) < n {
		keys = append(keys, ItemKey(rng.Intn(w.opts.Items)))
	}
	return keys
}

// readKeys is a read-only interaction over a fixed key set.
func (w *Workload) readKeys(keys []record.Key) mtx.Txn {
	return func(c mtx.Client, rng *rand.Rand, done func(mtx.TxnResult)) {
		remaining := len(keys)
		if remaining == 0 {
			done(mtx.TxnResult{Committed: true, Write: false})
			return
		}
		for _, k := range keys {
			c.Read(k, func(record.Value, record.Version, bool) {
				remaining--
				if remaining == 0 {
					done(mtx.TxnResult{Committed: true, Write: false})
				}
			})
		}
	}
}

// shoppingCart adds 1..cartMax random items to the browser's cart and
// persists the cart record (read current version, write back).
func (w *Workload) shoppingCart(b *browser, rng *rand.Rand) mtx.Txn {
	adds := make(map[int]int64)
	for i := 0; i < 1+rng.Intn(cartMax); i++ {
		adds[rng.Intn(w.opts.Items)] = 1 + rng.Int63n(3)
	}
	key := CartKey(b.client)
	return func(c mtx.Client, rng *rand.Rand, done func(mtx.TxnResult)) {
		c.Read(key, func(val record.Value, ver record.Version, ok bool) {
			next := val.Clone()
			if next.Attrs == nil {
				next.Attrs = make(map[string]int64)
			}
			for it, q := range adds {
				next.Attrs[fmt.Sprintf("line_%06d", it)] += q
			}
			c.Commit([]record.Update{record.Physical(key, ver, next)}, func(ok bool) {
				if ok {
					for it, q := range adds {
						b.cart[it] += q
					}
				}
				done(mtx.TxnResult{Committed: ok, Write: true})
			})
		})
	}
}

// customerRegistration inserts a fresh customer row.
func (w *Workload) customerRegistration(b *browser) mtx.Txn {
	b.custSeq++
	key := CustKey(b.client, b.custSeq)
	val := record.Value{
		Attrs: map[string]int64{"discount": int64(b.custSeq % 30)},
		Blob:  []byte("customer name/address/phone payload"),
	}
	return func(c mtx.Client, rng *rand.Rand, done func(mtx.TxnResult)) {
		c.Commit([]record.Update{record.Insert(key, val)}, func(ok bool) {
			done(mtx.TxnResult{Committed: ok, Write: true})
		})
	}
}

// buyRequest reads the cart and customer and stamps the cart with
// shipping data (a small write).
func (w *Workload) buyRequest(b *browser, rng *rand.Rand) mtx.Txn {
	key := CartKey(b.client)
	return func(c mtx.Client, rng *rand.Rand, done func(mtx.TxnResult)) {
		c.Read(key, func(val record.Value, ver record.Version, ok bool) {
			next := val.Clone()
			if next.Attrs == nil {
				next.Attrs = make(map[string]int64)
			}
			next.Attrs["ship"] = rng.Int63n(5)
			c.Commit([]record.Update{record.Physical(key, ver, next)}, func(ok bool) {
				done(mtx.TxnResult{Committed: ok, Write: true})
			})
		})
	}
}

// buyConfirm is the product-buy: decrement each cart line's stock
// (commutative where supported, read-modify-write otherwise), insert
// the order, and reset the cart.
func (w *Workload) buyConfirm(b *browser, rng *rand.Rand) mtx.Txn {
	// Snapshot and reset the browser cart; an empty cart buys one
	// impulse item (keeps the interaction meaningful). The lines are in
	// item order: they become the write-set, whose order decides the
	// send order and with it the simulator's schedule — a map's order
	// would make a run a function of more than its seed.
	type line struct {
		item int
		qty  int64
	}
	lines := make([]line, 0, len(b.cart)+1)
	for it, q := range b.cart {
		lines = append(lines, line{it, q})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].item < lines[j].item })
	if len(lines) == 0 {
		lines = append(lines, line{rng.Intn(w.opts.Items), 1})
	}
	b.cart = make(map[int]int64)
	b.orderSeq++
	orderKey := OrderKey(b.client, b.orderSeq)
	b.lastOrder = orderKey

	return func(c mtx.Client, rng *rand.Rand, done func(mtx.TxnResult)) {
		orderVal := record.Value{Attrs: map[string]int64{AttrQty: 0, AttrTotal: 0}}
		for _, l := range lines {
			orderVal.Attrs[fmt.Sprintf("line_%06d", l.item)] = l.qty
			orderVal.Attrs[AttrQty] += l.qty
		}
		if mtx.Commutative(c) {
			updates := make([]record.Update, 0, len(lines)+1)
			for _, l := range lines {
				updates = append(updates, record.Commutative(ItemKey(l.item),
					map[string]int64{AttrStock: -l.qty}))
			}
			updates = append(updates, record.Insert(orderKey, orderVal))
			c.Commit(updates, func(ok bool) {
				done(mtx.TxnResult{Committed: ok, Write: true})
			})
			return
		}
		// Read-modify-write path.
		type rd struct {
			val record.Value
			ver record.Version
			ok  bool
		}
		reads := make([]rd, len(lines))
		remaining := len(lines)
		for i, l := range lines {
			i := i
			c.Read(ItemKey(l.item), func(val record.Value, ver record.Version, ok bool) {
				reads[i] = rd{val, ver, ok}
				remaining--
				if remaining > 0 {
					return
				}
				updates := make([]record.Update, 0, len(lines)+1)
				for j, l := range lines {
					r := reads[j]
					if !r.ok || r.val.Attr(AttrStock) < l.qty {
						done(mtx.TxnResult{Committed: false, Write: true})
						return
					}
					updates = append(updates, record.Physical(ItemKey(l.item), r.ver,
						r.val.WithAttr(AttrStock, r.val.Attr(AttrStock)-l.qty)))
				}
				updates = append(updates, record.Insert(orderKey, orderVal))
				c.Commit(updates, func(ok bool) {
					done(mtx.TxnResult{Committed: ok, Write: true})
				})
			})
		}
	}
}

// adminConfirm updates an item's price (a physical read-modify-write
// on a random item).
func (w *Workload) adminConfirm(rng *rand.Rand) mtx.Txn {
	key := ItemKey(rng.Intn(w.opts.Items))
	return func(c mtx.Client, rng *rand.Rand, done func(mtx.TxnResult)) {
		c.Read(key, func(val record.Value, ver record.Version, ok bool) {
			if !ok {
				done(mtx.TxnResult{Committed: false, Write: true})
				return
			}
			next := val.WithAttr(AttrPrice, 100+rng.Int63n(9900))
			c.Commit([]record.Update{record.Physical(key, ver, next)}, func(ok bool) {
				done(mtx.TxnResult{Committed: ok, Write: true})
			})
		})
	}
}
