package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 6, 8} {
		s.Add(v)
	}
	if s.N() != 4 || s.Mean() != 5 || s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("sample = %v", s.String())
	}
	if math.Abs(s.Stddev()-math.Sqrt(5)) > 1e-12 {
		t.Fatalf("stddev = %v", s.Stddev())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Stddev() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample should be all zeros")
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
}

func TestMeanMatchesNaiveProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		var sum float64
		ok := true
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			s.Add(v)
			sum += v
		}
		if s.N() == 0 {
			return s.Mean() == 0
		}
		want := sum / float64(s.N())
		if want != 0 {
			ok = math.Abs(s.Mean()-want)/math.Abs(want) < 1e-9
		} else {
			ok = math.Abs(s.Mean()) < 1e-9
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
