// Package microbench implements the paper's micro-benchmark (§5.3):
// a single table of items with randomly chosen stock values and a
// constraint that stock must stay at least 0. The buy transaction
// picks 3 random items and decrements each stock by 1–3 (a
// commutative operation). Knobs reproduce the evaluation's axes:
// hot-spot size (conflict rate, figure 6) and master locality
// (figure 7).
package microbench

import (
	"fmt"
	"math/rand"

	"mdcc/internal/kv"
	"mdcc/internal/mtx"
	"mdcc/internal/record"
	"mdcc/internal/topology"
)

// StockAttr is the constrained attribute name.
const StockAttr = "stock"

// The buy transaction's fixed shape (paper §5.3): a basket of
// basketSize distinct items, each decremented by 1..maxDecrement, and
// a hot-spot, when there is one, drawing hotProb of the accesses.
const (
	basketSize   = 3
	maxDecrement = 3
	hotProb      = 0.9
)

// Constraint returns the stock >= 0 constraint the benchmark declares.
func Constraint() record.Constraint { return record.MinBound(StockAttr, 0) }

// Options shapes the workload.
type Options struct {
	// Items is the table size (paper default 10,000); a basket needs
	// at least basketSize of them.
	Items int
	// InitialStock draws each item's starting stock uniformly from
	// [InitialStockMin, InitialStockMax].
	InitialStockMin, InitialStockMax int64

	// HotspotFrac is the hot-spot size as a fraction of the table
	// (figure 6's x-axis: 0.02..0.90). Zero disables hot-spotting.
	HotspotFrac float64

	// LocalMasterFrac makes this fraction of transactions choose
	// items whose master is in the client's data center (figure 7's
	// x-axis), under the default placement (topology.DefaultMasterDC).
	// Negative disables locality steering.
	LocalMasterFrac float64
}

// Defaults returns the paper's micro-benchmark parameters.
func Defaults() Options {
	return Options{
		Items:           10000,
		InitialStockMin: 10000,
		InitialStockMax: 20000,
		HotspotFrac:     0,
		LocalMasterFrac: -1,
	}
}

// Workload implements bench.Workload.
type Workload struct {
	opts Options
	// byDC[d] lists item indices mastered in DC d (locality mode).
	byDC [][]int
	// masterOf[i] is item i's master DC (locality mode).
	masterOf []topology.DC
}

// New builds the workload.
func New(opts Options) *Workload {
	if opts.Items <= 0 {
		opts.Items = 10000
	}
	if opts.InitialStockMax < opts.InitialStockMin {
		opts.InitialStockMax = opts.InitialStockMin
	}
	w := &Workload{opts: opts}
	if opts.LocalMasterFrac >= 0 {
		w.byDC = make([][]int, topology.NumDCs)
		w.masterOf = make([]topology.DC, opts.Items)
		for i := 0; i < opts.Items; i++ {
			dc := topology.DefaultMasterDC(ItemKey(i))
			w.byDC[dc] = append(w.byDC[dc], i)
			w.masterOf[i] = dc
		}
	}
	return w
}

// ItemKey names item i.
func ItemKey(i int) record.Key {
	return record.Key(fmt.Sprintf("item/%06d", i))
}

// Preload implements bench.Workload.
func (w *Workload) Preload(rng *rand.Rand) []kv.Entry {
	entries := make([]kv.Entry, 0, w.opts.Items)
	span := w.opts.InitialStockMax - w.opts.InitialStockMin + 1
	for i := 0; i < w.opts.Items; i++ {
		stock := w.opts.InitialStockMin + rng.Int63n(span)
		entries = append(entries, kv.Entry{
			Key:     ItemKey(i),
			Value:   record.Encode(record.Value{Attrs: map[string]int64{StockAttr: stock}}),
			Version: 1,
		})
	}
	return entries
}

// pickItem selects one item index honoring the hot-spot setting.
func (w *Workload) pickItem(rng *rand.Rand) int {
	n := w.opts.Items
	if w.opts.HotspotFrac > 0 && w.opts.HotspotFrac < 1 {
		hot := int(float64(n) * w.opts.HotspotFrac)
		if hot < 1 {
			hot = 1
		}
		if rng.Float64() < hotProb {
			return rng.Intn(hot)
		}
		return hot + rng.Intn(n-hot)
	}
	return rng.Intn(n)
}

// pickItemLocality selects an item with a local (or explicitly
// remote) master.
func (w *Workload) pickItemLocality(rng *rand.Rand, dc topology.DC, local bool) int {
	if local {
		own := w.byDC[dc]
		if len(own) > 0 {
			return own[rng.Intn(len(own))]
		}
	}
	// Remote: draw until the master is elsewhere (≈4/5 of draws hit).
	for {
		i := rng.Intn(w.opts.Items)
		if w.masterOf[i] != dc {
			return i
		}
	}
}

// basket draws the transaction's distinct items.
func (w *Workload) basket(rng *rand.Rand, dc topology.DC) []int {
	seen := make(map[int]bool, basketSize)
	out := make([]int, 0, basketSize)
	useLocality := w.opts.LocalMasterFrac >= 0
	local := useLocality && rng.Float64() < w.opts.LocalMasterFrac
	for len(out) < basketSize {
		var i int
		if useLocality {
			i = w.pickItemLocality(rng, dc, local)
		} else {
			i = w.pickItem(rng)
		}
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// Next implements bench.Workload: the buy transaction.
func (w *Workload) Next(client int, dc topology.DC, rng *rand.Rand) mtx.Txn {
	items := w.basket(rng, dc)
	amounts := make([]int64, len(items))
	for i := range amounts {
		amounts[i] = 1 + rng.Int63n(maxDecrement)
	}
	return func(c mtx.Client, rng *rand.Rand, done func(mtx.TxnResult)) {
		if mtx.Commutative(c) {
			// Native commutative decrements (MDCC, QW, 2PC).
			updates := make([]record.Update, 0, len(items))
			for i, it := range items {
				updates = append(updates, record.Commutative(ItemKey(it),
					map[string]int64{StockAttr: -amounts[i]}))
			}
			c.Commit(updates, func(ok bool) {
				done(mtx.TxnResult{Committed: ok, Write: true})
			})
			return
		}
		// Read-modify-write for protocols without commutative support
		// (Fast, Multi, Megastore*): read all items, then write
		// absolute values validated against the read versions.
		reads := make([]struct {
			val record.Value
			ver record.Version
			ok  bool
		}, len(items))
		remaining := len(items)
		for i, it := range items {
			i, it := i, it
			c.Read(ItemKey(it), func(val record.Value, ver record.Version, ok bool) {
				reads[i].val, reads[i].ver, reads[i].ok = val, ver, ok
				remaining--
				if remaining > 0 {
					return
				}
				updates := make([]record.Update, 0, len(items))
				for j, jt := range items {
					r := reads[j]
					if !r.ok || r.val.Attr(StockAttr) < amounts[j] {
						// Out of stock (or unreadable): the buy aborts.
						done(mtx.TxnResult{Committed: false, Write: true})
						return
					}
					updates = append(updates, record.Physical(ItemKey(jt), r.ver,
						r.val.WithAttr(StockAttr, r.val.Attr(StockAttr)-amounts[j])))
				}
				c.Commit(updates, func(ok bool) {
					done(mtx.TxnResult{Committed: ok, Write: true})
				})
			})
		}
	}
}
