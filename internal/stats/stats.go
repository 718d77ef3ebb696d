// Package stats provides the small set of statistics used by the
// simulator and the experiment harnesses: means, percentiles, and
// binomial confidence intervals for access-probability estimates.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"blu/internal/obs"
)

// nanSamples counts NaN samples dropped by Percentile;
// a nonzero value in a run manifest flags an upstream numerical bug.
var nanSamples = obs.GetCounter("stats_nan_samples_total")

// dropNaNs returns xs with NaN samples removed (copying only when at
// least one NaN is present) and records the dropped count.
func dropNaNs(xs []float64) []float64 {
	nan := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			nan++
		}
	}
	if nan == 0 {
		return xs
	}
	nanSamples.Add(int64(nan))
	out := make([]float64, 0, len(xs)-nan)
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using
// linear interpolation between closest ranks. NaN samples are dropped
// (and counted in the stats_nan_samples_total metric) — a NaN would
// otherwise poison the sorted-rank interpolation. It returns an error
// for a sample with no finite values or p outside [0, 100].
func Percentile(xs []float64, p float64) (float64, error) {
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	xs = dropNaNs(xs)
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// WilsonInterval returns the Wilson score interval for a binomial
// proportion with k successes out of n trials at ~95% confidence. It is
// used to attach uncertainty to measured access probabilities.
// Out-of-range inputs are clamped: n <= 0 yields the vacuous [0, 1],
// and k outside [0, n] is treated as the nearest bound — without the
// clamp, p·(1−p) goes negative and both bounds come back NaN.
func WilsonInterval(k, n int) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
