package metrics

import (
	"fmt"
	"math"
)

// Welford is a streaming accumulator for mean/variance/min/max using
// Welford's numerically stable update. The zero value is an empty
// accumulator.
//
// Empty-accumulator contract (shared with Digest):
// Mean, Min and Max return NaN before the first observation, so a
// forgotten Add surfaces as NaN in a table instead of a silent,
// plausible-looking 0. Variance alone keeps the conventional 0 for
// n < 2 (a single observation has zero spread, not undefined spread).
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (NaN for an empty accumulator).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the minimum observation (NaN for an empty accumulator).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the maximum observation (NaN for an empty accumulator).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// String summarizes the accumulator for table output.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.3g sd=%.3g min=%.3g max=%.3g",
		w.n, w.Mean(), w.StdDev(), w.Min(), w.Max())
}

// TVDistance returns the total-variation distance between two discrete
// distributions given as aligned probability vectors. Vectors need not be
// normalized; they are normalized internally. Mismatched lengths panic.
func TVDistance(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("metrics: TVDistance length mismatch")
	}
	var sp, sq float64
	for i := range p {
		sp += p[i]
		sq += q[i]
	}
	if sp <= 0 || sq <= 0 {
		panic("metrics: TVDistance non-positive mass")
	}
	var d float64
	for i := range p {
		d += math.Abs(p[i]/sp - q[i]/sq)
	}
	return d / 2
}

// ChiSquare returns the chi-square statistic of observed counts against
// expected probabilities (normalized internally). Cells with zero expected
// probability must have zero observations, otherwise +Inf is returned.
func ChiSquare(observed []int64, expected []float64) float64 {
	if len(observed) != len(expected) {
		panic("metrics: ChiSquare length mismatch")
	}
	var n int64
	for _, o := range observed {
		n += o
	}
	var se float64
	for _, e := range expected {
		se += e
	}
	if n == 0 || se <= 0 {
		return 0
	}
	var stat float64
	for i := range observed {
		exp := float64(n) * expected[i] / se
		if exp == 0 {
			if observed[i] != 0 {
				return math.Inf(1)
			}
			continue
		}
		d := float64(observed[i]) - exp
		stat += d * d / exp
	}
	return stat
}

// LinearFit is an ordinary least squares fit y = a + b*x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// FitLinear computes an OLS fit. It panics on mismatched or short input.
func FitLinear(x, y []float64) LinearFit {
	if len(x) != len(y) || len(x) < 2 {
		panic("metrics: FitLinear needs >= 2 aligned points")
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("metrics: FitLinear degenerate x")
	}
	b := sxy / sxx
	fit := LinearFit{Intercept: my - b*mx, Slope: b, R2: 1}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit
}

// FitPowerLaw fits y ~ c * x^b by regressing log y on log x and returns b
// (the exponent) and the fit. Non-positive points are skipped; at least two
// positive points are required.
func FitPowerLaw(x, y []float64) LinearFit {
	lx := make([]float64, 0, len(x))
	ly := make([]float64, 0, len(y))
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	return FitLinear(lx, ly)
}

// FitPolylog fits y ~ c * (log2 x)^b — the shape of every complexity claim
// in the paper — by regressing log y on log log2 x. The returned Slope is
// the polylog exponent b.
func FitPolylog(x, y []float64) LinearFit {
	lx := make([]float64, 0, len(x))
	ly := make([]float64, 0, len(y))
	for i := range x {
		l2 := math.Log2(x[i])
		if l2 > 1 && y[i] > 0 {
			lx = append(lx, math.Log(l2))
			ly = append(ly, math.Log(y[i]))
		}
	}
	return FitLinear(lx, ly)
}

// Log2 is a convenience wrapper used throughout the experiment harness.
func Log2(x float64) float64 { return math.Log2(x) }
