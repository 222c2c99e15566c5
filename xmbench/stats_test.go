package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailOf(t *testing.T) {
	for _, c := range []struct {
		n        int
		val, pct float64
	}{
		{1, 1, 50},
		{2, 1.5, 50},
		{10, 5.5, 50},
		{11, 6, 50},
		{20, 10.5, 50},
		{21, 11, 100 * 11.0 / 21},
		{22, 12, 100 * 12.0 / 22},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		v, p := tailOf(seq(c.n))
		if v != c.val || math.Abs(p-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", c.n, v, p, c.val, c.pct)
		}
		if c.n > 2*minBeyond {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != minBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, minBeyond)
			}
		}
	}
	if v, _ := tailOf(nil); !math.IsNaN(v) {
		t.Errorf("empty tail = %v, want NaN", v)
	}
}

func TestSummarizeUnsorted(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.P50 != 3 || s.N != 5 || s.Tail != 3 || s.TailPct != 50 {
		t.Errorf("summary = %+v", s)
	}
}
