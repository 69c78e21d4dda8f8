package dsp

import "sync"

// Fused smooth + triple-derivative kernels for the beat delineator.
//
// The characteristic-point rules consume the 1st, 2nd and 3rd central
// differences of a smoothed beat segment. Composed naively that is four
// full passes (smooth, d1, d2, d3) over four arena buffers, with the
// smoothed track materialized only to be differentiated. The kernels
// here collapse the chain into a single pass: smoothed samples are
// produced on the fly (prefix-sum window for the moving average, cached
// kernels for Savitzky-Golay) and each derivative order is written as
// soon as its inputs exist, software-pipelined three indices deep.
//
// Bit-exactness contract: both kernels reproduce the legacy chain
//
//	sm := MovingAverageWith(a, x, k)        // or SavGolSmooth(x, m)
//	d1 := DerivativeTo(buf1, sm, fs)
//	d2 := DerivativeTo(buf2, d1, fs)
//	d3 := DerivativeTo(buf3, d2, fs)
//
// bit for bit: every smoothed value is computed by the same expression
// in the same accumulation order, and every derivative entry by the
// same one-sided/central expression, so reordering the writes cannot
// change a ULP. The fuzz target in internal/icg pins this law against
// the literal composition.

// savgolKernels caches SavGolKernel results by half-width. The kernels
// are pure functions of m, so a racing double-compute stores identical
// values; entries must be treated as read-only.
var savgolKernels sync.Map // int -> []float64

func cachedSavGolKernel(m int) []float64 {
	if v, ok := savgolKernels.Load(m); ok {
		return v.([]float64)
	}
	k := SavGolKernel(m)
	savgolKernels.Store(m, k)
	return k
}

// SmoothDeriv3MovAvgWith returns the first three derivatives of the
// centered length-k moving average of x, fused into one pass. The
// prefix-sum scratch and results come from the arena (nil falls back to
// the heap). Matches the legacy MovingAverageWith + DerivativeTo chain
// bit for bit without materializing the smoothed track: 4n+1 arena
// floats instead of 5n+1, one traversal instead of four.
func SmoothDeriv3MovAvgWith(a *Arena, x []float64, k int, fs float64) (d1, d2, d3 []float64) {
	n := len(x)
	if n == 0 || k < 1 {
		return nil, nil, nil
	}
	ps := a.F64(n + 1)
	ps[0] = 0
	for i, v := range x {
		ps[i+1] = ps[i] + v
	}
	if n < 4 {
		return smoothDeriv3(a, n, fs, func(i int) float64 { return movAvgAt(ps, i, n, k) }) //icg:allow hotalloc -- n<4 degenerate path: one closure per call, off the pipelined steady state
	}
	// Specialized pipelined pass: same schedule as smoothDeriv3, but the
	// smoothing accessor is a static inlinable call — an indirect
	// per-sample closure call costs more than the fusion saves.
	d1 = a.F64(n)
	d2 = a.F64(n)
	d3 = a.F64(n)
	half := fs / 2
	pm2 := movAvgAt(ps, 0, n, k)
	s := movAvgAt(ps, 1, n, k)
	d1[0] = (s - pm2) * fs
	pm1 := s
	s = movAvgAt(ps, 2, n, k)
	d1[1] = (s - pm2) * half
	d2[0] = (d1[1] - d1[0]) * fs
	pm2, pm1 = pm1, s
	s = movAvgAt(ps, 3, n, k)
	d1[2] = (s - pm2) * half
	d2[1] = (d1[2] - d1[0]) * half
	d3[0] = (d2[1] - d2[0]) * fs
	pm2, pm1 = pm1, s
	for i := 4; i < n; i++ {
		s = movAvgAt(ps, i, n, k)
		d1[i-1] = (s - pm2) * half
		d2[i-2] = (d1[i-1] - d1[i-3]) * half
		d3[i-3] = (d2[i-2] - d2[i-4]) * half
		pm2, pm1 = pm1, s
	}
	d1[n-1] = (pm1 - pm2) * fs
	d2[n-2] = (d1[n-1] - d1[n-3]) * half
	d2[n-1] = (d1[n-1] - d1[n-2]) * fs
	d3[n-3] = (d2[n-2] - d2[n-4]) * half
	d3[n-2] = (d2[n-1] - d2[n-3]) * half
	d3[n-1] = (d2[n-1] - d2[n-2]) * fs
	return
}

// movAvgAt returns the i-th centered moving-average sample from the
// prefix sums, by the MovingAverageWith expression verbatim; kept small
// so it inlines into the pipelined loop.
func movAvgAt(ps []float64, i, n, k int) float64 {
	lo, hi := windowBounds(i, n, k)
	return (ps[hi+1] - ps[lo]) / float64(hi-lo+1)
}

// SmoothDeriv3SavGolWith is SmoothDeriv3MovAvgWith with quadratic
// Savitzky-Golay smoothing of half-width m (shrinking symmetric windows
// at the edges, exactly as SavGolSmooth). Edge kernels come from a
// process-wide cache, removing the per-beat kernel allocations of the
// legacy chain.
func SmoothDeriv3SavGolWith(a *Arena, x []float64, m int, fs float64) (d1, d2, d3 []float64) {
	n := len(x)
	if n == 0 {
		return nil, nil, nil
	}
	if m < 1 {
		// SavGolSmooth degenerates to the identity.
		return smoothDeriv3(a, n, fs, func(i int) float64 { return x[i] }) //icg:allow hotalloc -- m<1 identity degenerate path: one closure per call
	}
	km := cachedSavGolKernel(m)
	return smoothDeriv3(a, n, fs, func(i int) float64 { //icg:allow hotalloc -- one accessor closure per recording, amortized over n samples; the kernel cache already removed the per-beat allocations
		if i >= m && i+m < n {
			acc := 0.0
			for j := -m; j <= m; j++ {
				acc += km[j+m] * x[i+j]
			}
			return acc
		}
		mm := i
		if n-1-i < mm {
			mm = n - 1 - i
		}
		if mm < 1 {
			return x[i]
		}
		ke := cachedSavGolKernel(mm)
		acc := 0.0
		for j := -mm; j <= mm; j++ {
			acc += ke[j+mm] * x[i+j]
		}
		return acc
	})
}

// smoothDeriv3 drives the pipelined pass: sm(i) yields the i-th
// smoothed sample (called exactly once per index, in order), and the
// three derivative buffers fill with a lag of one, two and three
// indices behind the smoothing front. Each entry uses the DerivativeTo
// expressions verbatim — one-sided fs-scaled differences at the ends,
// centered half-scaled differences inside — and every operand is final
// when read, so the interleaving is bit-identical to three serial
// passes.
func smoothDeriv3(a *Arena, n int, fs float64, sm func(int) float64) (d1, d2, d3 []float64) {
	d1 = a.F64(n)
	d2 = a.F64(n)
	d3 = a.F64(n)
	if n == 1 {
		d1[0], d2[0], d3[0] = 0, 0, 0
		return
	}
	half := fs / 2
	s0, s1 := sm(0), sm(1)
	d1[0] = (s1 - s0) * fs
	if n == 2 {
		d1[1] = (s1 - s0) * fs
		d2[0] = (d1[1] - d1[0]) * fs
		d2[1] = (d1[1] - d1[0]) * fs
		d3[0] = (d2[1] - d2[0]) * fs
		d3[1] = (d2[1] - d2[0]) * fs
		return
	}
	if n == 3 {
		s2 := sm(2)
		d1[1] = (s2 - s0) * half
		d1[2] = (s2 - s1) * fs
		d2[0] = (d1[1] - d1[0]) * fs
		d2[1] = (d1[2] - d1[0]) * half
		d2[2] = (d1[2] - d1[1]) * fs
		d3[0] = (d2[1] - d2[0]) * fs
		d3[1] = (d2[2] - d2[0]) * half
		d3[2] = (d2[2] - d2[1]) * fs
		return
	}
	// n >= 4: prologue fills the pipeline, the steady-state loop writes
	// one entry of each order per iteration, the epilogue drains the
	// one-sided tail entries.
	pm2, pm1 := s0, s1
	s := sm(2)
	d1[1] = (s - pm2) * half
	d2[0] = (d1[1] - d1[0]) * fs
	pm2, pm1 = pm1, s
	s = sm(3)
	d1[2] = (s - pm2) * half
	d2[1] = (d1[2] - d1[0]) * half
	d3[0] = (d2[1] - d2[0]) * fs
	pm2, pm1 = pm1, s
	for i := 4; i < n; i++ {
		s = sm(i)
		d1[i-1] = (s - pm2) * half
		d2[i-2] = (d1[i-1] - d1[i-3]) * half
		d3[i-3] = (d2[i-2] - d2[i-4]) * half
		pm2, pm1 = pm1, s
	}
	d1[n-1] = (pm1 - pm2) * fs
	d2[n-2] = (d1[n-1] - d1[n-3]) * half
	d2[n-1] = (d1[n-1] - d1[n-2]) * fs
	d3[n-3] = (d2[n-2] - d2[n-4]) * half
	d3[n-2] = (d2[n-1] - d2[n-3]) * half
	d3[n-1] = (d2[n-1] - d2[n-2]) * fs
	return
}
