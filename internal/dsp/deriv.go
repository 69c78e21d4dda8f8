package dsp

// Derivative estimators. The paper's B- and X-point rules use the 1st, 2nd
// and 3rd derivatives of the ICG signal; these are computed by repeated
// central differences.

// Derivative returns the first derivative of x (units per second) using
// central differences, with one-sided differences at the edges.
func Derivative(x []float64, fs float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	return DerivativeTo(make([]float64, len(x)), x, fs)
}

// DerivativeTo is Derivative writing into dst (grown when shorter than x;
// dst must not alias x). It returns the derivative slice.
func DerivativeTo(dst, x []float64, fs float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 1 {
		dst[0] = 0
		return dst
	}
	dst[0] = (x[1] - x[0]) * fs
	dst[n-1] = (x[n-1] - x[n-2]) * fs
	half := fs / 2
	for i := 1; i < n-1; i++ {
		dst[i] = (x[i+1] - x[i-1]) * half
	}
	return dst
}

// DerivativeN returns the order-th derivative of x by repeated application
// of Derivative. order must be >= 1.
func DerivativeN(x []float64, fs float64, order int) []float64 {
	y := x
	for i := 0; i < order; i++ {
		y = Derivative(y, fs)
	}
	return y
}

// Diff returns the first difference x[i+1]-x[i] (length len(x)-1).
func Diff(x []float64) []float64 {
	if len(x) < 2 {
		return nil
	}
	y := make([]float64, len(x)-1)
	for i := range y {
		y[i] = x[i+1] - x[i]
	}
	return y
}

// CumSum returns the cumulative sum of x.
func CumSum(x []float64) []float64 {
	y := make([]float64, len(x))
	acc := 0.0
	for i, v := range x {
		acc += v
		y[i] = acc
	}
	return y
}

// Integrate returns the cumulative trapezoidal integral of x sampled at fs
// (same length as x; first element is 0).
func Integrate(x []float64, fs float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	y := make([]float64, n)
	dt := 1 / fs
	for i := 1; i < n; i++ {
		y[i] = y[i-1] + (x[i]+x[i-1])*dt/2
	}
	return y
}

// MovingAverage returns the centered moving average of x over windows of
// length k (edges use the available samples).
func MovingAverage(x []float64, k int) []float64 {
	return MovingAverageWith(nil, x, k)
}

// MovingAverageWith is MovingAverage drawing its prefix-sum scratch and
// result from an arena (nil falls back to the heap); the result is
// arena-owned when a is non-nil.
func MovingAverageWith(a *Arena, x []float64, k int) []float64 {
	n := len(x)
	if n == 0 || k < 1 {
		return nil
	}
	// Prefix sums for O(n).
	ps := a.F64(n + 1)
	ps[0] = 0
	for i, v := range x {
		ps[i+1] = ps[i] + v
	}
	y := a.F64(n)
	for i := 0; i < n; i++ {
		lo, hi := windowBounds(i, n, k)
		y[i] = (ps[hi+1] - ps[lo]) / float64(hi-lo+1)
	}
	return y
}

// SmoothedDerivative returns the derivative of x after smoothing with a
// centered moving average of length k; this stabilizes the high-order
// derivatives used by the characteristic-point rules on noisy beats.
func SmoothedDerivative(x []float64, fs float64, k int) []float64 {
	return Derivative(MovingAverage(x, k), fs)
}
