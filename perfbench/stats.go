package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest whole percentile with at least ten samples
// beyond it (nearest-rank), with the percentile it resolved to. It never
// goes below the median: with fewer than 20 samples it is the median.
func tail(xs []float64) (value float64, pct int) {
	if p := 100 * (len(xs) - 10) / max(len(xs), 1); p > 50 {
		return percentile(xs, p), p
	}
	return median(xs), 50
}

// percentile is the nearest-rank p-th percentile; 0 for no samples.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(p) * float64(len(xs)) / 100))
	if rank < 1 {
		rank = 1
	}
	return sorted(xs)[rank-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
