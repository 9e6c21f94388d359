package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentileLadder lists the percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest ladder percentile that has at least
// minTail of n samples beyond it, and false when not even the median has.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		// Round away float noise: 1000 samples leave exactly 10 beyond p99.
		beyond := math.Round(float64(n)*(100-p)/100*1e6) / 1e6
		if beyond >= minTail {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(math.Round(p/100*float64(len(sorted))*1e6) / 1e6))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
