package stats

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"sort"
	"testing"
)

// TestHistogramBucketBoundaries pins the indexing scheme: unit buckets
// below 2^subBits, then power-of-two majors split into 2^subBits
// sub-buckets, upper edges consistent with the mapping.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(5)
	// Unit region is exact.
	for v := int64(0); v < 32; v++ {
		if got := h.bucket(v); got != int(v) {
			t.Fatalf("bucket(%d) = %d, want %d", v, got, v)
		}
		if got := h.bucketHigh(int(v)); got != v {
			t.Fatalf("bucketHigh(%d) = %d, want %d", v, got, v)
		}
	}
	// Every value maps into a bucket whose [.., high] range contains it
	// with relative width ≤ 1/2^subBits.
	for _, v := range []int64{32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1 << 62} {
		i := h.bucket(v)
		high := h.bucketHigh(i)
		if high < v {
			t.Fatalf("value %d: bucket %d upper edge %d < value", v, i, high)
		}
		if float64(high-v) > float64(v)/32+1 {
			t.Fatalf("value %d: bucket %d upper edge %d exceeds relative error bound", v, i, high)
		}
		// Monotone: the next bucket's upper edge is strictly larger.
		if i+1 < len(h.Counts) && h.bucketHigh(i+1) <= high {
			t.Fatalf("bucketHigh not monotone at %d", i)
		}
	}
	if h.bucket(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
}

// TestHistogramQuantileErrorBound checks quantiles against the exact
// order statistics of a random population: always ≥ the true value and
// within the geometry's relative error.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram(5)
	var vals []int64
	for i := 0; i < 20000; i++ {
		v := rng.Int63n(1 << uint(10+rng.Intn(30)))
		vals = append(vals, v)
		h.Add(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(q*float64(len(vals)) + 0.5)
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("q%.3f: histogram %d under-reports exact %d", q, got, exact)
		}
		bound := float64(exact)*(1+1.0/32) + 1
		if float64(got) > bound {
			t.Fatalf("q%.3f: histogram %d exceeds error bound %.0f (exact %d)", q, got, bound, exact)
		}
	}
	if h.Quantile(0) < vals[0] || h.Quantile(1) != h.Max {
		t.Fatalf("extreme quantiles broken: q0=%d q1=%d min=%d max=%d", h.Quantile(0), h.Quantile(1), vals[0], h.Max)
	}
}

// TestHistogramGobRoundTrip ships a histogram through gob and checks
// it answers identically.
func TestHistogramGobRoundTrip(t *testing.T) {
	h := NewHistogram(5)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		h.Add(rng.Int63n(1 << 30))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.N != h.N || back.Sum != h.Sum || back.Min != h.Min || back.Max != h.Max {
		t.Fatalf("summary fields lost: %+v vs %+v", back, *h)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if back.Quantile(q) != h.Quantile(q) {
			t.Fatalf("quantile %v diverges after round trip", q)
		}
	}
}
