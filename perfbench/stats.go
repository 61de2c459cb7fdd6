package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the tail estimate rests on a handful of observations.
const minBeyond = 10

// tail is one reported percentile: the value, the percentile it really
// is (lowered from the target when the sample is too small), and the
// sample count it was read from.
type tail struct {
	Value float64 `json:"value"`
	Pct   float64 `json:"pct"`
	N     int     `json:"n"`
}

// percentile reports the target percentile of xs (0 < p < 1), or, when
// fewer than minBeyond samples would lie beyond it, the highest
// percentile that still has minBeyond samples beyond it. With too few
// samples for any such percentile it returns the maximum with Pct 1.
// xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if lim := n - 1 - minBeyond; idx > lim {
		idx = lim
	}
	if idx < 0 {
		return tail{Value: s[n-1], Pct: 1, N: n}
	}
	return tail{Value: s[idx], Pct: float64(idx+1) / float64(n), N: n}
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowTail is a tail estimate robust to one burst of interference:
// xs (in time order) is cut into consecutive windows of at least
// perWindow samples, at most five, and the median of the windows'
// percentiles is returned. With fewer than 2*perWindow samples it is
// the pooled percentile.
func windowTail(xs []float64, p float64, perWindow int) float64 {
	w := min(5, len(xs)/perWindow)
	if w < 2 {
		return percentile(xs, p).Value
	}
	var tails []float64
	for i := 0; i < w; i++ {
		tails = append(tails, percentile(xs[i*len(xs)/w:(i+1)*len(xs)/w], p).Value)
	}
	return median(tails)
}

// tailWindow is the smallest window whose p99 keeps minBeyond samples
// beyond it.
const tailWindow = 100 * minBeyond
