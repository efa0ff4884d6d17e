package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// percentile is the nearest-rank q-th percentile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is stats.Quantile's middle of xs, 0 when empty so that a metric
// never encodes as NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perQuery(total float64, n int) float64 { return ratio(total, float64(n)) }
