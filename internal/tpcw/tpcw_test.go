package tpcw

import (
	"math/rand"
	"testing"
)

func TestMixCoversAllInteractions(t *testing.T) {
	sum := 0
	for i := Interaction(0); i < numInteractions; i++ {
		if orderingMix[i] <= 0 {
			t.Errorf("interaction %v has no weight", i)
		}
		sum += orderingMix[i]
	}
	if sum != 10000 {
		t.Fatalf("ordering mix sums to %d basis points, want 10000", sum)
	}
}

func TestPickDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make(map[Interaction]int)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[pick(rng)]++
	}
	for i := Interaction(0); i < numInteractions; i++ {
		want := float64(orderingMix[i]) / 10000
		got := float64(counts[i]) / n
		if want > 0.01 && (got < want*0.8 || got > want*1.2) {
			t.Errorf("%v: frequency %.4f, want ≈%.4f", i, got, want)
		}
	}
}

func TestInteractionNames(t *testing.T) {
	for i := Interaction(0); i < numInteractions; i++ {
		if i.String() == "" || i.String()[0] == 'W' && i.String() != "WI(99)" && i != 0 {
			// only the fallback uses WI(n)
		}
	}
	if Interaction(99).String() != "WI(99)" {
		t.Fatalf("fallback name = %q", Interaction(99).String())
	}
}

func TestPreloadScale(t *testing.T) {
	w := New(Options{Items: 500})
	entries := w.Preload(rand.New(rand.NewSource(2)))
	if len(entries) != 500 {
		t.Fatalf("preload = %d entries, want 500", len(entries))
	}
	for _, e := range entries {
		if e.Value.Decode().Attr(AttrStock) < 5000 {
			t.Fatalf("item %s stock %d too small", e.Key, e.Value.Decode().Attr(AttrStock))
		}
		if e.Value.Decode().Attr(AttrPrice) <= 0 {
			t.Fatalf("item %s has no price", e.Key)
		}
	}
}

func TestBrowserStateIsolation(t *testing.T) {
	w := New(Options{Items: 100})
	rng := rand.New(rand.NewSource(3))
	b1 := w.browserFor(1)
	b2 := w.browserFor(2)
	if b1 == b2 {
		t.Fatal("browsers shared across clients")
	}
	if w.browserFor(1) != b1 {
		t.Fatal("browser not stable per client")
	}
	_ = rng
	if CartKey(1) == CartKey(2) {
		t.Fatal("cart keys collide")
	}
	if OrderKey(1, 1) == OrderKey(1, 2) || OrderKey(1, 1) == OrderKey(2, 1) {
		t.Fatal("order keys collide")
	}
}
