package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.N() != 0 || s.Mean() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	if s.CDF(10) != nil {
		t.Fatal("empty sample CDF should be nil")
	}
}

func TestSampleBasics(t *testing.T) {
	s := NewSample(4)
	for _, x := range []float64{4, 1, 3, 2} {
		s.Add(x)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d, want 4", s.N())
	}
	if !almostEqual(s.Mean(), 2.5, 1e-9) {
		t.Fatalf("Mean = %v, want 2.5", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v, want 1/4", s.Min(), s.Max())
	}
	if !almostEqual(s.Median(), 2.5, 1e-9) {
		t.Fatalf("Median = %v, want 2.5", s.Median())
	}
}

func TestSampleAddAfterSortedQuery(t *testing.T) {
	s := NewSample(0)
	s.Add(10)
	_ = s.Median() // forces sort
	s.Add(1)
	if s.Min() != 1 {
		t.Fatalf("Min after late Add = %v, want 1", s.Min())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 5; i++ {
		s.Add(float64(i) * 10)
	}
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {-5, 10}, {101, 50},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingle(t *testing.T) {
	s := NewSample(0)
	s.Add(42)
	if got := s.Percentile(99); got != 42 {
		t.Fatalf("single-element percentile = %v, want 42", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFShape(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	pts := s.CDF(10)
	if len(pts) != 10 {
		t.Fatalf("CDF returned %d points, want 10", len(pts))
	}
	last := pts[len(pts)-1]
	if last.X != 100 || !almostEqual(last.Frac, 1, 1e-9) {
		t.Fatalf("last CDF point = %+v, want (100, 1)", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Frac <= pts[i-1].Frac {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
}

func TestCDFMorePointsThanSamples(t *testing.T) {
	s := NewSample(0)
	s.Add(1)
	s.Add(2)
	pts := s.CDF(100)
	if len(pts) != 2 {
		t.Fatalf("CDF clipped to %d points, want 2", len(pts))
	}
}

func TestBoxplot(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 101; i++ {
		s.Add(float64(i))
	}
	b := s.Box()
	if b.Min != 1 || b.Max != 101 || !almostEqual(b.Median, 51, 1e-9) {
		t.Fatalf("boxplot %+v has wrong min/med/max", b)
	}
	if !almostEqual(b.Q1, 26, 1e-9) || !almostEqual(b.Q3, 76, 1e-9) {
		t.Fatalf("boxplot quartiles %+v, want q1=26 q3=76", b)
	}
	if b.String() == "" {
		t.Fatal("boxplot String empty")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(0, 10)
	ts.Add(500*time.Millisecond, 20)
	ts.Add(1500*time.Millisecond, 30)
	ts.Add(-time.Second, 999) // dropped
	pts := ts.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if !almostEqual(pts[0].Mean, 15, 1e-9) || pts[0].N != 2 {
		t.Fatalf("bucket 0 = %+v, want mean 15 n 2", pts[0])
	}
	if !almostEqual(pts[1].Mean, 30, 1e-9) || pts[1].Start != time.Second {
		t.Fatalf("bucket 1 = %+v, want mean 30 at 1s", pts[1])
	}
}

func TestTimeSeriesMeanBetween(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	for i := 0; i < 10; i++ {
		ts.Add(time.Duration(i)*time.Second, float64(i))
	}
	m, n := ts.MeanBetween(0, 5*time.Second)
	if n != 5 || !almostEqual(m, 2, 1e-9) {
		t.Fatalf("MeanBetween(0,5s) = %v,%d want 2,5", m, n)
	}
	m, n = ts.MeanBetween(5*time.Second, 10*time.Second)
	if n != 5 || !almostEqual(m, 7, 1e-9) {
		t.Fatalf("MeanBetween(5s,10s) = %v,%d want 7,5", m, n)
	}
	if _, n := ts.MeanBetween(20*time.Second, 30*time.Second); n != 0 {
		t.Fatalf("MeanBetween on empty range returned n=%d", n)
	}
}

func TestTimeSeriesZeroBucketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTimeSeries(0) should panic")
		}
	}()
	NewTimeSeries(0)
}

func TestASCIICDF(t *testing.T) {
	a := NewSample(0)
	b := NewSample(0)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a.Add(100 + 50*r.Float64())
		b.Add(300 + 100*r.Float64())
	}
	out := ASCIICDF(map[string]*Sample{"fast": a, "slow": b}, 60, true)
	if out == "" || out == "(no data)\n" {
		t.Fatalf("ASCIICDF produced no plot:\n%s", out)
	}
	if ASCIICDF(map[string]*Sample{}, 60, false) != "(no data)\n" {
		t.Fatal("empty series should render (no data)")
	}
}
