package minheap

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

type item struct {
	key, seq int
	ref      *int // a reference Pop must not leave behind
}

func byKey(a, b *item) bool { return a.key < b.key }

func byKeyThenSeq(a, b *item) bool { return a.key < b.key || a.key == b.key && a.seq < b.seq }

// TestHeapMatchesSort drives random push/pop sequences over few
// distinct keys, so most comparisons tie, and checks every pop against
// a sorted model: the least key comes out, and, where less breaks ties
// by push order as the event queues do, the very item the model holds.
// The slot Pop vacates in the backing array must be zeroed.
func TestHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 400; round++ {
		less, exact := byKey, round%2 == 1
		if exact {
			less = byKeyThenSeq
		}
		var h, model []item // model is sorted by (key, seq)
		pop := func(at string) {
			var got item
			h, got = Pop(h, less)
			if got.key != model[0].key || exact && got != model[0] {
				t.Fatalf("round %d %s: popped %+v, want %+v", round, at, got, model[0])
			}
			model = model[1:]
			if vacated := h[:len(h)+1][len(h)]; vacated != (item{}) {
				t.Fatalf("round %d %s: popped slot holds %+v, want it zeroed", round, at, vacated)
			}
		}
		for seq := 0; seq < 300; seq++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				pop("mid-run")
				continue
			}
			x := item{key: rng.Intn(8), seq: seq, ref: new(int)}
			h = Push(h, x, less)
			i, _ := slices.BinarySearchFunc(model, x, func(a, b item) int {
				if a.key != b.key {
					return cmp.Compare(a.key, b.key)
				}
				return cmp.Compare(a.seq, b.seq)
			})
			model = slices.Insert(model, i, x)
		}
		for len(h) > 0 {
			pop("drain")
		}
	}
}

// TestPushPopAllocFree: with capacity to spare, a push and a pop
// allocate nothing.
func TestPushPopAllocFree(t *testing.T) {
	h := make([]item, 0, 64)
	x := item{key: 1, ref: new(int)}
	if allocs := testing.AllocsPerRun(1000, func() {
		h = Push(h, x, byKey)
		h, _ = Pop(h, byKey)
	}); allocs != 0 {
		t.Errorf("a push and a pop allocated %.0f times, want 0", allocs)
	}
}
