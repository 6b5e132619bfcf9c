package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between closest ranks; NaN for an empty slice.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (pos-float64(lo))*(asc[hi]-asc[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because the
// driver that accepts the benchmark computes its spreads with that function.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		delta := k*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the quartile distance as a share of the median: the run-to-run
// noise figure every bound in BENCHMARK.json is compared with.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentileLadder lists the percentiles the benchmark is willing to name.
var percentileLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}

// highestSupported returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it; a percentile with fewer is one
// or two outliers, not a tail.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(1-p) >= 10-1e-9 { // 100*(1-0.9) is a hair under 10 in floating point
			best = p
		}
	}
	return best
}

// msOf converts nanosecond samples to milliseconds.
func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
