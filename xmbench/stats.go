package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail value.
const minBeyond = 10

// summary is one timing's median and tail over n samples. TailPct is the
// percentile the tail value sits at (see tailOf).
type summary struct {
	P50, Tail, TailPct float64
	N                  int
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	tail, pct := tailOf(s)
	return summary{P50: median(s), Tail: tail, TailPct: pct, N: len(s)}
}

// median of an ascending slice; NaN when empty.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailOf returns the highest percentile of an ascending slice that still
// has at least minBeyond samples above it, and that percentile: the value
// at index n-1-minBeyond, which is at percentile 100*(n-minBeyond)/n.
// When that index falls below the middle (fewer than about 2*minBeyond
// samples) the median, at percentile 50, is the highest value the sample
// supports and is returned instead.
func tailOf(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	i := n - 1 - minBeyond
	if i < n/2 {
		return median(sorted), 50
	}
	return sorted[i], 100 * float64(i+1) / float64(n)
}
