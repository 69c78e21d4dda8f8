package dsp

// Morphological operators on 1-D signals with flat structuring elements.
// The ECG baseline-wander estimator of Sun, Chan and Krishnan (2002), used
// by the paper, is built from these: an opening (erosion then dilation)
// removes peaks, a closing (dilation then erosion) removes pits, and the
// result estimates the baseline drift.
//
// Two engines are provided: a naive O(n*k) scan, which is what a
// straightforward firmware implementation computes, and a van Herk-style
// monotonic-deque engine in O(n), used to benchmark the duty-cycle impact
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

// Erode computes the flat erosion of x with a structuring element of
// length k in O(n) using a monotonic deque.
func Erode(x []float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	return slideDeque(x, (k-1)/2, k/2, true)
}

// Dilate computes the flat dilation of x with a structuring element of
// length k in O(n) using a monotonic deque.
func Dilate(x []float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	return slideDeque(x, (k-1)/2, k/2, false)
}

func slideDeque(x []float64, left, right int, min bool) []float64 {
	return slideDequeWith(nil, x, left, right, min)
}

// slideDequeWith is slideDeque drawing its output and deque storage from
// an arena (nil falls back to the heap).
func slideDequeWith(a *Arena, x []float64, left, right int, min bool) []float64 {
	n := len(x)
	if n == 0 || left < 0 || right < 0 || left+right+1 < 1 {
		return nil
	}
	y := a.F64(n)
	slideDequeInto(y, x, left, right, min, a.Ints(NextPow2(left+right+2)))
	return y
}

// slideDequeInto runs the monotonic-deque sliding min/max into dst. The
// live deque never exceeds the window length, so dq is a power-of-two
// ring buffer of at least left+right+2 entries.
func slideDequeInto(dst, x []float64, left, right int, min bool, dq []int) {
	n := len(x)
	mask := len(dq) - 1
	head, tail, size := 0, 0, 0 // front index, next write index, entries
	j := 0                      // next signal index to push
	for i := 0; i < n; i++ {
		hi := i + right
		if hi > n-1 {
			hi = n - 1
		}
		lo := i - left
		if lo < 0 {
			lo = 0
		}
		for ; j <= hi; j++ {
			if min {
				for size > 0 && x[j] <= x[dq[(tail-1)&mask]] {
					tail = (tail - 1) & mask
					size--
				}
			} else {
				for size > 0 && x[j] >= x[dq[(tail-1)&mask]] {
					tail = (tail - 1) & mask
					size--
				}
			}
			dq[tail] = j
			tail = (tail + 1) & mask
			size++
		}
		for size > 0 && dq[head] < lo {
			head = (head + 1) & mask
			size--
		}
		dst[i] = x[dq[head]]
	}
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
	return slideDequeWith(a, slideDequeWith(a, x, left, right, true), right, left, false)
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
	return slideDequeWith(a, slideDequeWith(a, x, left, right, false), right, left, true)
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
