// Package stats provides the small statistics toolkit used by the
// benchmark harness: latency samples, percentiles, CDFs, boxplot
// summaries and time-series bucketing. Everything is plain
// in-memory computation; nothing here is concurrency-safe unless
// stated otherwise.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample accumulates float64 observations (we use milliseconds for
// latencies throughout the harness).
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns an empty sample with the given capacity hint.
func NewSample(capHint int) *Sample {
	return &Sample{xs: make([]float64, 0, capHint)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	s.ensureSorted()
	if len(s.xs) == 0 {
		return 0
	}
	return s.xs[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	s.ensureSorted()
	if len(s.xs) == 0 {
		return 0
	}
	return s.xs[len(s.xs)-1]
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. Returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	s.ensureSorted()
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s.xs[0]
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// CDFPoint is one (x, cumulative fraction) point of an empirical CDF.
type CDFPoint struct {
	X    float64
	Frac float64 // in (0, 1]
}

// CDF returns up to points evenly spaced points of the empirical CDF,
// suitable for plotting. The last point is always (max, 1).
func (s *Sample) CDF(points int) []CDFPoint {
	s.ensureSorted()
	n := len(s.xs)
	if n == 0 || points <= 0 {
		return nil
	}
	if points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		idx := i*n/points - 1
		out = append(out, CDFPoint{X: s.xs[idx], Frac: float64(idx+1) / float64(n)})
	}
	return out
}

// Boxplot is the five-number summary plus mean, as plotted in Figure 7.
type Boxplot struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Box returns the boxplot summary of the sample.
func (s *Sample) Box() Boxplot {
	return Boxplot{
		Min:    s.Min(),
		Q1:     s.Percentile(25),
		Median: s.Median(),
		Q3:     s.Percentile(75),
		Max:    s.Max(),
		Mean:   s.Mean(),
		N:      s.N(),
	}
}

// String formats the boxplot as a compact single line.
func (b Boxplot) String() string {
	return fmt.Sprintf("n=%d min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f mean=%.1f",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}

// TimeSeries buckets observations by time offset, producing the
// per-interval averages plotted in Figure 8.
type TimeSeries struct {
	bucket time.Duration
	sums   []float64
	counts []int
}

// NewTimeSeries returns a series with the given bucket width.
func NewTimeSeries(bucket time.Duration) *TimeSeries {
	if bucket <= 0 {
		panic("stats: non-positive time series bucket")
	}
	return &TimeSeries{bucket: bucket}
}

// Add records value v observed at offset t from the series origin.
// Negative offsets are dropped.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	if t < 0 {
		return
	}
	i := int(t / ts.bucket)
	for len(ts.sums) <= i {
		ts.sums = append(ts.sums, 0)
		ts.counts = append(ts.counts, 0)
	}
	ts.sums[i] += v
	ts.counts[i]++
}

// TSPoint is one bucket of a TimeSeries.
type TSPoint struct {
	Start time.Duration
	Mean  float64
	N     int
}

// Points returns all non-empty buckets in time order.
func (ts *TimeSeries) Points() []TSPoint {
	var out []TSPoint
	for i := range ts.sums {
		if ts.counts[i] == 0 {
			continue
		}
		out = append(out, TSPoint{
			Start: time.Duration(i) * ts.bucket,
			Mean:  ts.sums[i] / float64(ts.counts[i]),
			N:     ts.counts[i],
		})
	}
	return out
}

// MeanBetween returns the mean of all observations in buckets whose
// start lies in [from, to), and the count, for before/after comparisons.
func (ts *TimeSeries) MeanBetween(from, to time.Duration) (float64, int) {
	var sum float64
	var n int
	for i := range ts.sums {
		start := time.Duration(i) * ts.bucket
		if start >= from && start < to {
			sum += ts.sums[i]
			n += ts.counts[i]
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// ASCIICDF renders a crude terminal CDF plot (log-x optional) used by
// cmd/mdcc-bench so the figures can be eyeballed without a plotting
// tool. Lines are percentage rows from 0..100 in steps.
func ASCIICDF(series map[string]*Sample, width int, logX bool) string {
	if width <= 10 {
		width = 60
	}
	// Establish global x range.
	minX, maxX := math.Inf(1), math.Inf(-1)
	names := make([]string, 0, len(series))
	for name, s := range series {
		if s.N() == 0 {
			continue
		}
		names = append(names, name)
		if s.Min() < minX {
			minX = s.Min()
		}
		if s.Max() > maxX {
			maxX = s.Max()
		}
	}
	sort.Strings(names)
	if len(names) == 0 || minX >= maxX {
		return "(no data)\n"
	}
	xform := func(x float64) float64 { return x }
	if logX {
		if minX <= 0 {
			minX = 0.1
		}
		xform = math.Log10
	}
	lo, hi := xform(minX), xform(maxX)
	var b strings.Builder
	marks := "abcdefghijklmnopqrstuvwxyz"
	for pct := 10; pct <= 90; pct += 20 {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for i, name := range names {
			v := series[name].Percentile(float64(pct))
			pos := int((xform(v) - lo) / (hi - lo) * float64(width-1))
			if pos < 0 {
				pos = 0
			}
			if pos >= width {
				pos = width - 1
			}
			row[pos] = marks[i%len(marks)]
		}
		fmt.Fprintf(&b, "%3d%% |%s|\n", pct, string(row))
	}
	fmt.Fprintf(&b, "     x: %.0f .. %.0f ms (logX=%v)\n", minX, maxX, logX)
	for i, name := range names {
		fmt.Fprintf(&b, "     %c = %s\n", marks[i%len(marks)], name)
	}
	return b.String()
}
