package stats

import "math/bits"

// Histogram is an HDR-style log-bucketed histogram of
// non-negative int64 values. Values below 2^SubBits land in exact unit
// buckets; above that, each power-of-two major bucket is split into
// 2^SubBits sub-buckets, so the recorded value is always within a
// relative error of 1/2^SubBits of the true one (quantiles quote the
// bucket's upper edge, so they never under-report). Unlike Sample it
// never saturates or subsamples: every Add lands in a fixed bucket
// array, so two histograms of the same geometry sum bucket by bucket.
//
// All fields are exported so reflection-based encoders carry it whole
// (/metrics snapshots marshal histograms as JSON).
// Not safe for concurrent use; wrap with a lock where writers race.
type Histogram struct {
	SubBits uint
	Counts  []int64
	N       int64
	Sum     int64
	Min     int64 // valid when N > 0
	Max     int64
}

// DefaultSubBits keeps relative quantile error ≤ 1/32 ≈ 3.1%.
const DefaultSubBits = 5

// NewHistogram returns an empty histogram with 2^subBits sub-buckets
// per power-of-two range (subBits 0 means DefaultSubBits).
func NewHistogram(subBits uint) *Histogram {
	if subBits == 0 {
		subBits = DefaultSubBits
	}
	if subBits > 12 {
		subBits = 12
	}
	// One unit region plus one 2^subBits-wide region per major bucket
	// up to exponent 62 (int64 range).
	n := (64 - int(subBits)) << subBits
	return &Histogram{SubBits: subBits, Counts: make([]int64, n)}
}

// bucket maps a value to its bucket index.
func (h *Histogram) bucket(v int64) int {
	if v < 0 {
		v = 0
	}
	sub := h.SubBits
	if v < int64(1)<<sub {
		return int(v)
	}
	exp := uint(bits.Len64(uint64(v))) - 1
	i := int(exp-sub)<<sub + int(v>>(exp-sub))
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// bucketHigh returns the largest value mapping to bucket i (the upper
// edge quantiles quote).
func (h *Histogram) bucketHigh(i int) int64 {
	sub := h.SubBits
	if i < 1<<sub {
		return int64(i)
	}
	exp := uint(i>>sub) - 1 + sub
	m := int64(i) - int64(exp-sub)<<sub // in [2^sub, 2^(sub+1))
	return (m+1)<<(exp-sub) - 1
}

// Add records one value.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.Counts[h.bucket(v)]++
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
}

// Quantile returns the value at quantile q in [0, 1] (upper bucket
// edge, so the result is ≥ the true order statistic and within the
// geometry's relative error of it). Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.N) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			high := h.bucketHigh(i)
			if high > h.Max {
				high = h.Max
			}
			if high < h.Min {
				high = h.Min
			}
			return high
		}
	}
	return h.Max
}

// Mean returns the arithmetic mean of the recorded values (exact, from
// the running sum — not bucketized).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Counts = append([]int64(nil), h.Counts...)
	return &c
}
