package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile of v (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it.  With fewer than
// 1/(1-q) samples that is the largest sample, so a p99 of forty runs reads as
// "the slowest run".  An empty v gives 0.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := rank(q, len(s)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// rank is the 1-based nearest rank of the q-quantile among n samples,
// ceil(q·n), computed so that 0.99 × 100 is 99 and not the 100 that the
// product's last binary digit would make it.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// median returns the middle sample, the mean of the two middle samples for an
// even count, and 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailQuantiles are the percentiles a report may quote, ascending.
var tailQuantiles = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// tailQuantile returns the highest quotable percentile that still has at least
// ten of n samples beyond it, or 0 when not even the median qualifies (n < 20).
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		beyond := n - rank(q, n)
		if beyond >= 10 {
			best = q
		}
	}
	return best
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(v, n=4)
// computes (the "exclusive" method) — the steadiness measure the benchmark's
// bounds are stated against.  Fewer than two samples, or a zero median, give 0.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	med := median(s)
	if med == 0 {
		return 0
	}
	quart := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

// geomean returns the geometric mean of positive values, 0 for none.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}
