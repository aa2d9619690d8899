package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of sorted by linear interpolation
// between closest ranks; NaN on an empty sample.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quantiles sorts a copy of xs and returns the requested quantiles.
func quantiles(xs []float64, ps ...float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = quantile(sorted, p)
	}
	return out
}

func median(xs []float64) float64 { return quantiles(xs, 0.5)[0] }

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (the exclusive method), so -compare agrees with the driver.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	med := quantile(sorted, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
