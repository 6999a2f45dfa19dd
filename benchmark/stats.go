package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of measurements of one quantity.
type samples []float64

func (s *samples) add(v float64)          { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration) { *s = append(*s, d.Seconds()) }

// quantile is the nearest-rank q-quantile; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median is the middle value, the mean of the middle two for an even
// count (Python's statistics.median, which is what the driver takes).
func (s samples) median() float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// how the driver takes a metric's spread.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n < 2 {
		if n == 1 {
			return values[0], values[0]
		}
		return 0, 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based ranks, interpolated and clamped.
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}
