package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching the caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice (0 for an
// empty one): the smallest sample with at least p percent of samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9)) // 1e-9: p·n/100 is often a whole number
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// tailPercentile picks the highest of the usual tail percentiles that still
// has at least ten samples beyond it — a p99 of 300 samples rests on three
// values and does not repeat. With fewer than twenty samples only the median
// is left.
func tailPercentile(n int) float64 {
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 10
		}
	}
	return 50
}

// summary is what every timing is reported as: the median, the highest
// percentile the sample supports, and the sample count.
type summary struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

func summarize(v []float64) summary {
	s := sortedCopy(v)
	tp := tailPercentile(len(s))
	return summary{N: len(s), P50: percentile(s, 50), TailPct: tp, Tail: percentile(s, tp)}
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is how the driver computes spreads.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median — the number
// a metric's regression bound is judged against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
