// Package stats provides the aggregation helpers the experiment harness
// uses to average metrics over sampled irregular topologies and
// simulated packets: running samples, mergeable quantile sketches, and
// sweep progress counters.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates scalar observations.
type Sample struct {
	n      int
	sum    float64
	sumSq  float64
	minV   float64
	maxV   float64
	values []float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if s.n == 0 || v < s.minV {
		s.minV = v
	}
	if s.n == 0 || v > s.maxV {
		s.maxV = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
	s.values = append(s.values, v)
}

// N returns the observation count.
func (s *Sample) N() int { return s.n }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min and Max return the extremes (0 for an empty sample).
func (s *Sample) Min() float64 { return s.minV }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.maxV }

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by nearest-rank.
func (s *Sample) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(s.n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= s.n {
		rank = s.n - 1
	}
	return sorted[rank]
}

func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g sd=%.4g",
		s.n, s.Mean(), s.minV, s.maxV, s.Stddev())
}
