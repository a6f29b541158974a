package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs (0 < p < 1) by the exclusive
// method of Python's statistics.quantiles — the spread the benchmark's
// acceptance rule is computed with — extrapolating linearly past the
// ends for small samples. xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	pos := p * float64(len(s)+1)
	j := int(math.Floor(pos))
	j = min(max(j, 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), math.Abs(median(xs)))
}

// tailPct returns the highest whole percentile of a sample of n values
// that still has at least ten values beyond it, never below 50: the tail
// percentile every timing is reported at alongside its median.
func tailPct(n int) int {
	return max(50, int(math.Floor(100*(1-10/float64(n)))))
}

// gmean is the geometric mean of positive values.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// finite guards the result line: JSON has no NaN or Inf.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// ratio is a/b, or 0 when b is 0, so no metric turns into NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
