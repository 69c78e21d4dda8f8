package dsp

// Morphological operators on 1-D signals with flat structuring elements.
// The ECG baseline-wander estimator of Sun, Chan and Krishnan (2002), used
// by the paper, is built from these: an opening (erosion then dilation)
// removes peaks, a closing (dilation then erosion) removes pits, and the
// result estimates the baseline drift.
//
// Two engines are provided: a naive O(n*k) scan, which is what a
// straightforward firmware implementation computes, and the van
// Herk/Gil-Werman block kernel of MovExtStream in O(n), which the
// streaming baseline runs too, used to benchmark the duty-cycle impact
// of the implementation choice (ablation A4 in DESIGN.md).

// windowBounds returns the inclusive window [lo, hi] for output index i
// with a structuring element of length k centered at i. For even k the
// window extends one sample further to the right. Bounds are clamped to
// the signal, which is equivalent to replicate padding for min/max.
func windowBounds(i, n, k int) (lo, hi int) {
	left := (k - 1) / 2
	right := k / 2
	lo = i - left
	hi = i + right
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi
}

// ErodeNaive computes the flat erosion (sliding-window minimum) of x with
// a structuring element of length k using the O(n*k) scan.
func ErodeNaive(x []float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	return slideNaive(x, (k-1)/2, k/2, true)
}

// DilateNaive computes the flat dilation (sliding-window maximum) of x
// with a structuring element of length k using the O(n*k) scan.
func DilateNaive(x []float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	return slideNaive(x, (k-1)/2, k/2, false)
}

func slideNaive(x []float64, left, right int, min bool) []float64 {
	n := len(x)
	if n == 0 || left < 0 || right < 0 || left+right+1 < 1 {
		return nil
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := ClampInt(i-left, 0, n-1)
		hi := ClampInt(i+right, 0, n-1)
		v := x[lo]
		for j := lo + 1; j <= hi; j++ {
			if min {
				if x[j] < v {
					v = x[j]
				}
			} else if x[j] > v {
				v = x[j]
			}
		}
		y[i] = v
	}
	return y
}

// Erode computes the flat erosion (sliding-window minimum) of x with a
// structuring element of length k in O(n), with the MovExtStream block
// kernel.
func Erode(x []float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	return slideWith(nil, x, (k-1)/2, k/2, true)
}

// Dilate computes the flat dilation (sliding-window maximum) of x with
// a structuring element of length k in O(n), with the MovExtStream block
// kernel.
func Dilate(x []float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	return slideWith(nil, x, (k-1)/2, k/2, false)
}

// slideWith runs the MovExtStream block kernel at float64 over x in one
// push, drawing its output and block buffer from an arena (nil falls
// back to the heap).
func slideWith(a *Arena, x []float64, left, right int, min bool) []float64 {
	if len(x) == 0 || left < 0 || right < 0 {
		return nil
	}
	s := MovExtStream{left: left, right: right, min: min, v64: a.F64(left + right + 1)}
	s.Reset()
	return s.Flush(a, s.Push(a, a.F64(len(x))[:0], x))
}

// Open computes the morphological opening (erosion then dilation with the
// transposed structuring element), which suppresses peaks narrower than
// the element. Using the transposed element in the second stage keeps the
// anti-extensivity property opening(x) <= x for even element lengths.
func Open(x []float64, k int) []float64 {
	return OpenWith(nil, x, k)
}

// OpenWith is Open drawing its buffers from an arena (nil falls back to
// the heap); the returned slice is arena-owned when a is non-nil.
func OpenWith(a *Arena, x []float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	left, right := (k-1)/2, k/2
	return slideWith(a, slideWith(a, x, left, right, true), right, left, false)
}

// Close computes the morphological closing (dilation then erosion with the
// transposed structuring element), which suppresses pits narrower than the
// element and satisfies closing(x) >= x.
func Close(x []float64, k int) []float64 {
	return CloseWith(nil, x, k)
}

// CloseWith is Close drawing its buffers from an arena (nil falls back to
// the heap); the returned slice is arena-owned when a is non-nil.
func CloseWith(a *Arena, x []float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	left, right := (k-1)/2, k/2
	return slideWith(a, slideWith(a, x, left, right, false), right, left, true)
}

// OpenNaive is the O(n*k) variant of Open.
func OpenNaive(x []float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	left, right := (k-1)/2, k/2
	return slideNaive(slideNaive(x, left, right, true), right, left, false)
}

// CloseNaive is the O(n*k) variant of Close.
func CloseNaive(x []float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	left, right := (k-1)/2, k/2
	return slideNaive(slideNaive(x, left, right, false), right, left, true)
}
