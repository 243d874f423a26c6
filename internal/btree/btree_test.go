package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// keys returns every key in ascending order.
func (t *Tree[V]) keys() []string {
	out := make([]string, 0, t.size)
	t.AscendRange("", "", func(k string, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// checkInvariants walks the tree verifying B-tree structural
// invariants. It panics on violation.
func (t *Tree[V]) checkInvariants() {
	if t.root == nil {
		return
	}
	var depthOf func(n *node[V], depth int, isRoot bool) int
	depthOf = func(n *node[V], depth int, isRoot bool) int {
		if !isRoot && len(n.items) < t.degree-1 {
			panic("btree: underfull node")
		}
		if len(n.items) > t.maxItems() {
			panic("btree: overfull node")
		}
		for i := 1; i < len(n.items); i++ {
			if n.items[i-1].key >= n.items[i].key {
				panic("btree: unsorted items")
			}
		}
		if n.children == nil {
			return depth
		}
		if len(n.children) != len(n.items)+1 {
			panic("btree: child count mismatch")
		}
		d := -1
		for _, c := range n.children {
			cd := depthOf(c, depth+1, false)
			if d == -1 {
				d = cd
			} else if d != cd {
				panic("btree: uneven leaf depth")
			}
		}
		return d
	}
	depthOf(t.root, 0, true)
}

// fill returns the share of item slots in use, items / (nodes ×
// maxItems), over every node, or with internal set over the internal
// nodes below the root only.
func (t *Tree[V]) fill(internal bool) float64 {
	nodes, items := 0, 0
	var walk func(n *node[V], isRoot bool)
	walk = func(n *node[V], isRoot bool) {
		if !internal || (!isRoot && n.children != nil) {
			nodes++
			items += len(n.items)
		}
		for _, c := range n.children {
			walk(c, false)
		}
	}
	walk(t.root, true)
	return float64(items) / float64(nodes*t.maxItems())
}

func TestEmpty(t *testing.T) {
	tr := New[int]()
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if _, ok := tr.Get("x"); ok {
		t.Fatal("Get on empty tree found a key")
	}
	if len(tr.keys()) != 0 {
		t.Fatal("range over empty tree visited a key")
	}
}

func TestPutGet(t *testing.T) {
	tr := New[int]()
	if !tr.Put("a", 1) {
		t.Fatal("first Put not reported as insert")
	}
	if tr.Put("a", 2) {
		t.Fatal("second Put of same key reported as insert")
	}
	v, ok := tr.Get("a")
	if !ok || v != 2 {
		t.Fatalf("Get = %v,%v want 2,true", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestDegreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDegree(1) should panic")
		}
	}()
	NewDegree[int](1)
}

func TestManyInsertsOrdered(t *testing.T) {
	for _, deg := range []int{2, 3, 8, 32} {
		tr := NewDegree[int](deg)
		const n = 2000
		for i := 0; i < n; i++ {
			tr.Put(fmt.Sprintf("k%06d", i), i)
		}
		tr.checkInvariants()
		if tr.Len() != n {
			t.Fatalf("deg %d: Len = %d, want %d", deg, tr.Len(), n)
		}
		keys := tr.keys()
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("deg %d: keys not sorted", deg)
		}
		if len(keys) != n || keys[0] != "k000000" || keys[n-1] != fmt.Sprintf("k%06d", n-1) {
			t.Fatalf("deg %d: %d keys, %q..%q", deg, len(keys), keys[0], keys[n-1])
		}
	}
}

// fillShapes returns n keys in three insertion orders: ascending;
// interleaved, 32 ascending runs of 50 keys taking turns (the shape of
// a preload that commits 50 keys per transaction, 32 at a time); and a
// seeded random permutation.
func fillShapes(n int) (ascending, interleaved, random []string) {
	ascending = make([]string, n)
	for i := range ascending {
		ascending[i] = fmt.Sprintf("k%06d", i)
	}
	const runs, run = 32, 50
	for w := 0; w < n; w += runs * run {
		for j := 0; j < run; j++ {
			for r := 0; r < runs; r++ {
				if k := w + r*run + j; k < n {
					interleaved = append(interleaved, ascending[k])
				}
			}
		}
	}
	random = make([]string, n)
	for i, p := range rand.New(rand.NewSource(1)).Perm(n) {
		random[i] = ascending[p]
	}
	return ascending, interleaved, random
}

// An insert fills a full child's sibling before it splits the child, so
// the slots a replica pays for per key are mostly in use, and a replace
// leaves every node as it found it. The floors
// sit just under the measured fill (5000 keys, as many as each replica
// holds under the benchmark's wan-rmw); splitting at the median alone
// measured 0.33, 0.40, 0.47 and 0.49 ascending, 0.37, 0.44, 0.51 and
// 0.74 interleaved, and 0.59, 0.64, 0.67 and 0.68 random at degrees 2,
// 3, 8 and 32.
func TestNodeFill(t *testing.T) {
	ascending, interleaved, random := fillShapes(5000)
	for _, c := range []struct {
		name   string
		keys   []string
		floors map[int]float64 // degree → floor
	}{
		{"ascending", ascending, map[int]float64{2: 0.99, 3: 0.99, 8: 0.99, 32: 0.96}},
		{"interleaved", interleaved, map[int]float64{2: 0.80, 3: 0.80, 8: 0.81, 32: 0.77}},
		{"random", random, map[int]float64{2: 0.69, 3: 0.76, 8: 0.79, 32: 0.80}},
	} {
		for _, deg := range []int{2, 3, 8, 32} {
			tr := NewDegree[int](deg)
			ref := map[string]int{}
			for i, k := range c.keys {
				tr.Put(k, i)
				ref[k] = i
			}
			tr.checkInvariants()
			if !agrees(tr, ref) {
				t.Fatalf("%s deg %d: tree and map disagree", c.name, deg)
			}
			f := tr.fill(false)
			if f < c.floors[deg] {
				t.Errorf("%s deg %d: fill %.3f, floor %.2f", c.name, deg, f, c.floors[deg])
			}
			// A replace needs no room, so it splits nothing.
			for i, k := range c.keys {
				tr.Put(k, -i)
				ref[k] = -i
			}
			tr.checkInvariants()
			if !agrees(tr, ref) {
				t.Fatalf("%s deg %d: tree and map disagree after the replaces", c.name, deg)
			}
			if g := tr.fill(false); g != f {
				t.Errorf("%s deg %d: replacing every key moved the fill %.3f → %.3f", c.name, deg, f, g)
			}
		}
	}
}

// Rotations through internal nodes move the edge child pointer with the
// item: ascending inserts rotate into left siblings and descending ones
// into right siblings at every level, so internal nodes below the root
// fill up too (splitting alone leaves each at degree-1 items, a third
// of a degree-2 node). A misplaced edge puts a subtree on the wrong
// side of its separator, which the in-order walk and the lookups in
// agrees catch.
func TestRotationsMoveEdges(t *testing.T) {
	ascending, _, _ := fillShapes(3000)
	for _, deg := range []int{2, 3} {
		for _, descending := range []bool{false, true} {
			tr := NewDegree[int](deg)
			ref := map[string]int{}
			for i := range ascending {
				k := ascending[i]
				if descending {
					k = ascending[len(ascending)-1-i]
				}
				tr.Put(k, i)
				ref[k] = i
				tr.checkInvariants()
			}
			if !agrees(tr, ref) {
				t.Fatalf("deg %d descending=%v: tree and map disagree", deg, descending)
			}
			if f := tr.fill(true); f < 0.95 {
				t.Errorf("deg %d descending=%v: internal fill %.3f, floor 0.95", deg, descending, f)
			}
		}
	}
}

// agrees reports whether tr holds exactly ref, in key order.
func agrees(tr *Tree[int], ref map[string]int) bool {
	keys := tr.keys()
	if tr.Len() != len(ref) || len(keys) != len(ref) || !sort.StringsAreSorted(keys) {
		return false
	}
	for k, v := range ref {
		if got, ok := tr.Get(k); !ok || got != v {
			return false
		}
	}
	return true
}

// Random inserts and replaces (the store's whole write surface) agree
// with a map at every degree, through many splits.
func TestRandomInsertReplace(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, deg := range []int{2, 3, 5, 16} {
		tr := NewDegree[int](deg)
		ref := map[string]int{}
		for step := 0; step < 8000; step++ {
			k := fmt.Sprintf("k%04d", r.Intn(2000))
			_, had := ref[k]
			if inserted := tr.Put(k, step); inserted == had {
				t.Fatalf("deg %d step %d: Put(%q) inserted=%v with the key present=%v", deg, step, k, inserted, had)
			}
			ref[k] = step
			if step%500 == 0 {
				tr.checkInvariants()
			}
		}
		tr.checkInvariants()
		if !agrees(tr, ref) {
			t.Fatalf("deg %d: tree and map disagree (Len %d, ref %d)", deg, tr.Len(), len(ref))
		}
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Put(fmt.Sprintf("k%03d", i), i)
	}
	var got []string
	tr.AscendRange("k010", "k020", func(k string, _ int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != "k010" || got[9] != "k019" {
		t.Fatalf("AscendRange = %v", got)
	}
	// Open upper bound.
	got = nil
	tr.AscendRange("k095", "", func(k string, _ int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 5 {
		t.Fatalf("open-ended AscendRange returned %d keys, want 5", len(got))
	}
	// Early stop.
	count := 0
	tr.AscendRange("", "", func(string, int) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early-stop AscendRange visited %d, want 7", count)
	}
}

func TestAscendRangeEmptyWindow(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 10; i++ {
		tr.Put(fmt.Sprintf("k%d", i), i)
	}
	called := false
	tr.AscendRange("z", "zz", func(string, int) bool {
		called = true
		return true
	})
	if called {
		t.Fatal("AscendRange outside key space visited keys")
	}
}

// Property: for random insert/replace sequences the tree agrees with a
// map and iteration order is sorted.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16) bool {
		tr := NewDegree[int](3)
		ref := map[string]int{}
		for i, op := range ops {
			k := fmt.Sprintf("%03d", op%200)
			tr.Put(k, i)
			ref[k] = i
		}
		tr.checkInvariants()
		return agrees(tr, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	tr := New[int]()
	keys := make([]string, 100000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(keys[i%len(keys)], i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[int]()
	keys := make([]string, 100000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
		tr.Put(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%len(keys)])
	}
}

// Slot hands out the value's slot in its node: a write through it is
// what the next Get reads, and an absent key gets a slot holding the
// zero value.
func TestSlotWritesInPlace(t *testing.T) {
	tr := NewDegree[int](2)
	for i := 0; i < 100; i++ {
		tr.Put(fmt.Sprintf("k%03d", i), i)
	}
	for i := 0; i < 100; i += 7 {
		p, inserted := tr.Slot(fmt.Sprintf("k%03d", i))
		if inserted || *p != i {
			t.Fatalf("Slot(k%03d) = %d, inserted %v", i, *p, inserted)
		}
		*p = -i
	}
	p, inserted := tr.Slot("k100")
	if !inserted || *p != 0 {
		t.Fatalf("Slot of an absent key = %d, inserted %v", *p, inserted)
	}
	*p = 100
	tr.checkInvariants()
	for i := 0; i <= 100; i++ {
		want := i
		if i%7 == 0 && i < 100 {
			want = -i
		}
		if got, ok := tr.Get(fmt.Sprintf("k%03d", i)); !ok || got != want {
			t.Fatalf("k%03d = %d %v, want %d", i, got, ok, want)
		}
	}
	if tr.Len() != 101 {
		t.Fatalf("Len = %d, want 101", tr.Len())
	}
}
