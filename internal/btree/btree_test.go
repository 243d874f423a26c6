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
