// Shop: a miniature TPC-W-style storefront on the public API — the
// workload the paper's introduction motivates. Geo-distributed
// shoppers browse products, fill carts and buy; the buy decrements
// item stock under a stock >= 0 constraint (the one TPC-W transaction
// that benefits from commutativity, per §5.2) and inserts an order
// atomically with it.
//
// Shoppers attach to their data center's *gateway tier*
// (Cluster.Gateway) instead of owning private coordinators: browsing
// and buying multiplex over the gateway's one coordinator with
// cross-transaction batching. The finale is a flash sale — every
// shopper hammers one hot item with single-decrement buys, the shape
// the gateway's hot-key delta coalescing turns from O(buyers) into
// O(windows) Paxos options.
//
// Run with:
//
//	go run ./examples/shop
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"mdcc"
)

const (
	products = 50
	shoppers = 8
	visits   = 12 // browse/buy rounds per shopper
)

func itemKey(i int) mdcc.Key { return mdcc.Key(fmt.Sprintf("item/%04d", i)) }

func orderKey(shopper, n int) mdcc.Key {
	return mdcc.Key(fmt.Sprintf("order/%d-%d", shopper, n))
}

func main() {
	cluster, err := mdcc.StartCluster(mdcc.ClusterConfig{
		Mode:         mdcc.ModeMDCC,
		NodesPerDC:   2,
		LatencyScale: 0.02,
		Constraints:  []mdcc.Constraint{mdcc.MinBound("stock", 0)},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// One gateway per data center; every shopper session attaches to
	// its local one.
	gws := make(map[mdcc.DC]*mdcc.Gateway)
	for _, dc := range mdcc.AllDCs() {
		gws[dc] = cluster.Gateway(dc)
	}

	// Load the catalogue.
	admin := gws[mdcc.USWest].Session()
	var ups []mdcc.Update
	totalStock := int64(0)
	for i := 0; i < products; i++ {
		stock := int64(5 + i%7)
		totalStock += stock
		ups = append(ups, mdcc.Insert(itemKey(i), mdcc.Value{
			Attrs: map[string]int64{"stock": stock, "price": int64(199 + 50*i)},
			Blob:  []byte(fmt.Sprintf("The Art of Distributed Systems, volume %d", i)),
		}))
	}
	// The flash-sale item: deep stock, one hot record.
	const flashItem = products
	const flashStock = int64(500)
	ups = append(ups, mdcc.Insert(itemKey(flashItem), mdcc.Value{
		Attrs: map[string]int64{"stock": flashStock, "price": 99},
		Blob:  []byte("The Art of Distributed Systems, collector's edition"),
	}))
	if ok, err := admin.Commit(ups...); err != nil || !ok {
		log.Fatalf("catalogue load: ok=%v err=%v", ok, err)
	}
	fmt.Printf("catalogue: %d products, %d units of stock (+%d flash-sale units)\n",
		products, totalStock, flashStock)

	var wg sync.WaitGroup
	var mu sync.Mutex
	bought := int64(0)
	orders := 0
	soldOut := 0
	for sh := 0; sh < shoppers; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			sess := gws[mdcc.DC(sh%5)].Session()
			rng := rand.New(rand.NewSource(int64(sh) + 42))
			for v := 0; v < visits; v++ {
				// Browse: read a few product pages (local reads).
				basket := map[int]int64{}
				for b := 0; b < 1+rng.Intn(3); b++ {
					p := rng.Intn(products)
					val, _, ok, err := sess.Read(itemKey(p))
					if err != nil || !ok {
						continue
					}
					if val.Attr("stock") > 0 {
						basket[p] = 1 + rng.Int63n(2)
					}
				}
				if len(basket) == 0 {
					continue
				}
				// Buy: one atomic transaction — stock decrements
				// (commutative, constraint-checked) plus the order row.
				// Multi-update transactions pass through the gateway
				// unmerged; atomicity is untouched.
				var buy []mdcc.Update
				var qty int64
				for p, q := range basket {
					buy = append(buy, mdcc.Commutative(itemKey(p), map[string]int64{"stock": -q}))
					qty += q
				}
				buy = append(buy, mdcc.Insert(orderKey(sh, v),
					mdcc.Value{Attrs: map[string]int64{"qty": qty}}))
				ok, err := sess.Commit(buy...)
				if err != nil {
					log.Printf("shopper %d: %v", sh, err)
					continue
				}
				mu.Lock()
				if ok {
					bought += qty
					orders++
				} else {
					soldOut++
				}
				mu.Unlock()
			}
		}(sh)
	}
	wg.Wait()
	fmt.Printf("orders placed: %d (%d units); %d buys rejected (stock protection)\n",
		orders, bought, soldOut)

	// Flash sale: every shopper fires a burst of single-unit buys at
	// the hot item concurrently. Single-update commutative buys are
	// exactly what the gateway coalesces into merged options.
	const flashBuyers = 40
	const buysEach = 6
	flashSold := int64(0)
	var fwg sync.WaitGroup
	for b := 0; b < flashBuyers; b++ {
		fwg.Add(1)
		go func(b int) {
			defer fwg.Done()
			sess := gws[mdcc.DC(b%5)].Session()
			for i := 0; i < buysEach; i++ {
				ok, err := sess.Commit(mdcc.Commutative(itemKey(flashItem), map[string]int64{"stock": -1}))
				if err != nil {
					log.Printf("flash buyer %d: %v", b, err)
					return
				}
				if ok {
					mu.Lock()
					flashSold++
					mu.Unlock()
				}
			}
		}(b)
	}
	fwg.Wait()
	fmt.Printf("flash sale: %d units sold by %d buyers\n", flashSold, flashBuyers)
	for _, dc := range mdcc.AllDCs() {
		m := gws[dc].Metrics()
		if m.MergedOptions > 0 {
			fmt.Printf("  gateway %-8s coalesced %d buys into %d Paxos options (ratio %.2f), batch fan-in %.1f\n",
				dc, m.MergedUpdates, m.MergedOptions, m.CoalesceRatio, m.BatchFanIn)
		}
	}

	// Reconcile: remaining stock + sold units == initial stock, and
	// every committed order exists.
	audit := gws[mdcc.APSingapore].Session()
	deadline := time.Now().Add(10 * time.Second)
	for {
		remaining := int64(0)
		for i := 0; i <= products; i++ {
			v, _, ok, err := audit.Read(itemKey(i))
			if err != nil {
				log.Fatal(err)
			}
			if ok {
				if v.Attr("stock") < 0 {
					log.Fatal("INVARIANT VIOLATED: negative stock")
				}
				remaining += v.Attr("stock")
			}
		}
		sold := bought + flashSold
		initial := totalStock + flashStock
		if remaining+sold == initial {
			fmt.Printf("audit OK: %d units remaining + %d sold = %d initial\n",
				remaining, sold, initial)
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("stock mismatch: %d remaining + %d sold != %d", remaining, sold, initial)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
