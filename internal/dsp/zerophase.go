package dsp

// Zero-phase (forward-backward) filtering. The paper applies both its ECG
// FIR band-pass and its ICG Butterworth low-pass as zero-phase filters so
// that the characteristic-point timings (B, C, X, R) are not biased by
// filter group delay.
//
// Each pass is started from steady-state initial conditions scaled by the
// first sample (the lfilter_zi treatment used by scipy.signal.filtfilt),
// combined with odd-reflection padding; together these suppress start-up
// transients so constant signals pass through exactly.

// oddReflectPad extends x by pad samples on each side using odd reflection
// about the end points.
func oddReflectPad(x []float64, pad int) []float64 {
	return oddReflectPadWith(nil, x, pad)
}

// oddReflectPadWith is oddReflectPad drawing the padded buffer from an
// arena (nil falls back to the heap).
func oddReflectPadWith(a *Arena, x []float64, pad int) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if pad > n-1 {
		pad = n - 1
	}
	if pad < 0 {
		pad = 0
	}
	y := a.F64(n + 2*pad)
	for i := 0; i < pad; i++ {
		y[i] = 2*x[0] - x[pad-i]
	}
	copy(y[pad:], x)
	for i := 0; i < pad; i++ {
		y[pad+n+i] = 2*x[n-1] - x[n-2-i]
	}
	return y
}

// lfilterZi returns the steady-state direct-form-II-transposed state for a
// constant unit input: filtering a constant signal u with initial state
// u*zi produces u*G from the very first sample (G = DC gain). The DF2T
// state update is triangular in the state index, so the steady state
// follows from a single backward accumulation.
func lfilterZi(b, a []float64) []float64 {
	order := len(b)
	if len(a) > order {
		order = len(a)
	}
	bb := make([]float64, order)
	aa := make([]float64, order)
	for i := range b {
		bb[i] = b[i] / a[0]
	}
	for i := range a {
		aa[i] = a[i] / a[0]
	}
	var sb, sa float64
	for i := 0; i < order; i++ {
		sb += bb[i]
		sa += aa[i]
	}
	g := 0.0
	if sa != 0 {
		g = sb / sa
	}
	zi := make([]float64, order) // zi[order-1] stays 0
	acc := 0.0
	for j := order - 1; j >= 1; j-- {
		acc += bb[j] - aa[j]*g
		zi[j-1] = acc
	}
	return zi
}

// lfilterWith applies (b, a) with the DF2T structure starting from state
// z (which is modified in place). z must have length max(len(a),len(b)).
func lfilterWith(b, a, x, z []float64) []float64 {
	order := len(b)
	if len(a) > order {
		order = len(a)
	}
	bb := make([]float64, order)
	aa := make([]float64, order)
	for i := range b {
		bb[i] = b[i] / a[0]
	}
	for i := range a {
		aa[i] = a[i] / a[0]
	}
	y := make([]float64, len(x))
	for i, v := range x {
		out := bb[0]*v + z[0]
		for j := 1; j < order; j++ {
			z[j-1] = bb[j]*v + z[j] - aa[j]*out
		}
		y[i] = out
	}
	return y
}

// filtOnceZi filters x once with steady-state initial conditions scaled by
// x[0].
func filtOnceZi(b, a, x []float64) []float64 {
	zi := lfilterZi(b, a)
	z := make([]float64, len(zi))
	for i, v := range zi {
		z[i] = v * x[0]
	}
	return lfilterWith(b, a, x, z)
}

// FiltFilt applies the rational filter (b, a) forward and backward with
// odd-reflection padding and steady-state initial conditions, producing
// zero phase distortion and the squared magnitude response.
func FiltFilt(b, a, x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	if len(a) == 0 || a[0] == 0 {
		panic("dsp: FiltFilt requires a[0] != 0")
	}
	order := len(b)
	if len(a) > order {
		order = len(a)
	}
	pad := 3 * (order - 1)
	if pad < 1 {
		pad = 1
	}
	ext := oddReflectPad(x, pad)
	realPad := (len(ext) - len(x)) / 2
	y := filtOnceZi(b, a, ext)
	Reverse(y)
	y = filtOnceZi(b, a, y)
	Reverse(y)
	return y[realPad : realPad+len(x)]
}

// FiltFiltFIR applies an FIR filter zero-phase via forward-backward
// filtering with odd-reflection padding.
func FiltFiltFIR(f *FIR, x []float64) []float64 {
	return FiltFiltFIRWith(nil, f, x)
}

// FiltFiltFIRWith is FiltFiltFIR drawing every temporary from an arena
// (nil falls back to the heap).
//
// Fast path: with the standard pad of 3*(k-1) samples, the first k-1
// outputs of each causal pass — the only ones where the steady-state
// initial conditions of the generic FiltFilt differ from plain zero-padded
// convolution (a FIR has only k-1 samples of memory) — lie entirely inside
// the padding that the final slice discards. Both passes therefore run on
// the fast convolution engines (three-region direct or FFT overlap-save by
// the n*k cost model) instead of the order-k direct-form state recurrence,
// with identical output up to rounding. Signals too short to pad that far
// fall back to the generic path.
func FiltFiltFIRWith(a *Arena, f *FIR, x []float64) []float64 {
	n := len(x)
	k := len(f.Taps)
	if n == 0 {
		return nil
	}
	pad := 3 * (k - 1)
	if pad < 1 {
		pad = 1
	}
	realPad := pad
	if realPad > n-1 {
		realPad = n - 1
	}
	if k == 0 || realPad < k-1 {
		return FiltFilt(f.Taps, []float64{1}, x)
	}
	ext := oddReflectPadWith(a, x, pad)
	buf := a.F64(len(ext))
	f.applyCausalTo(buf, ext) // forward pass
	Reverse(buf)
	f.applyCausalTo(ext, buf) // backward pass, reusing ext as output
	Reverse(ext)
	y := a.F64(n)
	copy(y, ext[realPad:realPad+n])
	return y
}

// biquadZi returns the steady-state DF2T state (z1, z2) of one section for
// a constant unit input.
func biquadZi(bq Biquad) (z1, z2 float64) {
	den := 1 + bq.A1 + bq.A2
	g := 0.0
	if den != 0 {
		g = (bq.B0 + bq.B1 + bq.B2) / den
	}
	z2 = bq.B2 - bq.A2*g
	z1 = bq.B1 - bq.A1*g + z2
	return z1, z2
}

// filterZiInPlace applies the cascade in place with per-section
// steady-state initial conditions scaled by the first sample of each
// section's input.
func (s SOS) filterZiInPlace(y []float64) {
	if len(y) == 0 {
		return
	}
	sosPipeRun(y, y, s, nil, nil, true)
}

// FilterZiInPlace applies the cascade causally in place with per-section
// steady-state initial conditions scaled by each section's first input —
// one directional pass of FiltFilt. The streaming delineator uses it
// (after a Reverse) as the backward half of its split zero-phase scheme,
// where the forward half is replayed from a persistent causal stream's
// checkpoints (FilterSpans).
func (s SOS) FilterZiInPlace(y []float64) { s.filterZiInPlace(y) }

// filterZi applies the cascade with per-section steady-state initial
// conditions scaled by the first sample of each section's input.
func (s SOS) filterZi(x []float64) []float64 {
	y := Clone(x)
	s.filterZiInPlace(y)
	return y
}

// FiltFilt applies a biquad cascade zero-phase via forward-backward
// filtering with odd-reflection padding and steady-state initial
// conditions.
func (s SOS) FiltFilt(x []float64) []float64 {
	return s.FiltFiltWith(nil, x)
}

// FiltFiltWith is SOS.FiltFilt drawing every temporary from an arena
// (nil falls back to the heap). The result is a sub-slice of the padded
// filtering scratch — arena-owned when a is non-nil, private otherwise —
// so no trailing copy is paid; callers that need the buffer to outlive
// the arena must copy it themselves.
func (s SOS) FiltFiltWith(a *Arena, x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	pad := 3 * (2*len(s) + 1)
	ext := oddReflectPadWith(a, x, pad)
	realPad := (len(ext) - len(x)) / 2
	s.filterZiInPlace(ext)
	Reverse(ext)
	s.filterZiInPlace(ext)
	Reverse(ext)
	return ext[realPad : realPad+len(x)]
}
