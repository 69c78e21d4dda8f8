package icg

import (
	"errors"

	"repro/internal/dsp"
)

// Characteristic-point detection, following Section IV-C of the paper
// (based on Carvalho et al., "Robust Characteristic Points for ICG"):
//
//   - C point: maximum of the ICG inside the beat.
//   - B point: an initial estimate B0 is the intersection of the line
//     fitted to the ICG samples between 40% and 80% of the C amplitude
//     with the horizontal axis. If the (+,-,+,-) second-derivative sign
//     pattern is present left of C, B is the first minimum of the third
//     derivative left of B0; otherwise B is the first zero crossing of the
//     first derivative left of B0.
//   - X point: the initial estimate X0 is the lowest negative minimum
//     right of C (the paper's adjustment); X is the local minimum of the
//     third derivative left of X0. The original Carvalho variant instead
//     takes X0 as the lowest minimum inside [RT, 1.75*RT] after R.

// XVariant selects the X0 search rule.
type XVariant int

// X-point rule variants.
const (
	// XPaper: lowest ICG negative minimum to the right of C (the rule the
	// paper adopts because T-wave ends are unreliable).
	XPaper XVariant = iota
	// XCarvalho: lowest minimum in the window [RT, 1.75*RT] after the R
	// peak, where RT is the R-to-T-peak interval.
	XCarvalho
)

// BVariant selects the B refinement rule (ablation A1).
type BVariant int

// B-point rule variants.
const (
	// BPaper: the full second-derivative-pattern rule of Section IV-C.
	BPaper BVariant = iota
	// BZeroCrossOnly: always use the first-derivative zero crossing.
	BZeroCrossOnly
	// BLineFitOnly: use the raw B0 line-fit intersection.
	BLineFitOnly
)

// DetectConfig parameterizes the beat-level detector.
type DetectConfig struct {
	FS       float64
	XRule    XVariant
	BRule    BVariant
	SmoothMS float64 // smoothing window before derivatives (ms)
	// UseSavGol selects quadratic Savitzky-Golay smoothing instead of the
	// moving average; it preserves peak shapes better at equal window
	// length (at a higher multiply count on the MCU).
	UseSavGol bool
}

// DefaultDetect returns the paper's configuration.
func DefaultDetect(fs float64) DetectConfig {
	return DetectConfig{FS: fs, XRule: XPaper, BRule: BPaper, SmoothMS: 16}
}

// BeatPoints holds the detected characteristic points of one beat, as
// absolute sample indices into the analyzed signal.
type BeatPoints struct {
	R    int     // anchoring R peak
	B    int     // aortic valve opening
	C    int     // dZ/dt maximum
	X    int     // aortic valve closure
	B0   float64 // initial line-fit estimate (fractional samples)
	X0   int     // initial X estimate
	CAmp float64 // C amplitude above the beat baseline (Ohm/s)
	// Pattern reports whether the (+,-,+,-) second-derivative pattern was
	// found (selects the 3rd-derivative B rule).
	Pattern bool
}

// Detection errors.
var (
	ErrBeatTooShort = errors.New("icg: beat segment too short")
	ErrNoCPoint     = errors.New("icg: no usable C point in beat")
	ErrNoUpstroke   = errors.New("icg: no 40-80% upstroke region before C")
)

// DetectBeat analyzes the ICG between two consecutive R peaks (sample
// indices rLo < rHi). tPeak is the T-wave apex index for the Carvalho
// variant (ignored by the paper rule; pass -1 when unknown).
func DetectBeat(icg []float64, rLo, rHi, tPeak int, cfg DetectConfig) (*BeatPoints, error) {
	return DetectBeatWith(nil, icg, rLo, rHi, tPeak, cfg)
}

// DetectBeatWith is DetectBeat drawing every per-beat intermediate (the
// detrended segment copy, smoothing, the three derivatives, the robust
// refit scratch) from an arena; nil falls back to the heap. The
// returned BeatPoints is always heap-allocated and safe to retain. The
// arena is not reset here — callers sharing one arena across a beat
// loop converge to the loop's peak footprint after the first pass.
func DetectBeatWith(a *dsp.Arena, icg []float64, rLo, rHi, tPeak int, cfg DetectConfig) (*BeatPoints, error) {
	bp := new(BeatPoints)
	if err := DetectBeatInto(bp, a, icg, rLo, rHi, tPeak, cfg); err != nil {
		return nil, err
	}
	return bp, nil
}

// DetectBeatInto is DetectBeatWith writing the result into a
// caller-provided BeatPoints (e.g. one slot of a block allocated for a
// whole recording); bp is only valid when the returned error is nil.
func DetectBeatInto(bp *BeatPoints, a *dsp.Arena, icg []float64, rLo, rHi, tPeak int, cfg DetectConfig) error {
	fs := cfg.FS
	if fs <= 0 {
		fs = 250
	}
	if rLo < 0 || rHi > len(icg) || rHi-rLo < int(0.3*fs) {
		return ErrBeatTooShort
	}
	seg := a.F64(rHi - rLo)
	copy(seg, icg[rLo:rHi])
	// Per-beat baseline: the respiratory and motion components of -dZ/dt
	// drift through the beat, so the "horizontal axis" of the B0 rule is
	// re-established per beat: a line anchored on the two quiet windows
	// of the cycle (just after R, before the upstroke, and in late
	// diastole), polished by a robust refit that ignores the systolic
	// complex.
	detrendAnchored(a, seg, fs)
	smoothK := int(cfg.SmoothMS / 1000 * fs)
	if smoothK < 1 {
		smoothK = 1
	}
	// The point rules only consume derivatives of the smoothed beat, so
	// the smoothed track itself is never materialized: the fused kernel
	// emits d1/d2/d3 in one pipelined pass (bit-identical to the legacy
	// smooth -> DerivativeTo x3 chain; see dsp/fused.go).
	var d1, d2, d3 []float64
	if cfg.UseSavGol {
		d1, d2, d3 = dsp.SmoothDeriv3SavGolWith(a, seg, smoothK/2+1, fs)
	} else {
		d1, d2, d3 = dsp.SmoothDeriv3MovAvgWith(a, seg, smoothK, fs)
	}

	// --- C point: maximum of the ICG inside the beat, searched within
	// the physiological systolic window after R (PEP of 40-160 ms plus
	// ~0.38 LVET puts the dZ/dt maximum 80-360 ms past R); without the
	// bound, diastolic motion-artifact bumps can top a weak C wave.
	guard := int(0.06 * fs)
	cLo := int(0.08 * fs)
	cHi := int(0.36 * fs)
	if max := len(seg) - guard; cHi > max {
		cHi = max
	}
	if cLo >= cHi {
		cLo = guard
		cHi = len(seg) - guard
	}
	c := dsp.ArgMax(seg, cLo, cHi)
	if c < 0 || seg[c] <= 0 {
		return ErrNoCPoint
	}
	cAmp := seg[c]

	*bp = BeatPoints{R: rLo, C: rLo + c, CAmp: cAmp}

	// Physiological X-search window: the aortic valve closes within
	// ~0.06-0.32 s after the dZ/dt maximum (LVET is 0.18-0.42 s and C
	// sits ~0.38 LVET past B). Searching the whole diastole instead
	// would latch onto motion-artifact troughs.
	xLo := c + int(0.06*fs)
	xHi := c + int(0.32*fs)
	if max := len(seg) - guard; xHi > max {
		xHi = max
	}
	if xLo >= xHi {
		xLo = c + 1
	}

	// --- B point.
	b, b0, pattern, err := detectB(a, seg, d1, d2, d3, c, cAmp, fs, cfg.BRule)
	if err != nil {
		return err
	}
	bp.B = rLo + b
	bp.B0 = float64(rLo) + b0
	bp.Pattern = pattern

	// --- X point.
	x0 := -1
	switch cfg.XRule {
	case XCarvalho:
		if tPeak >= 0 && tPeak > rLo {
			rt := tPeak - rLo
			lo := rLo + rt
			hi := rLo + int(1.75*float64(rt))
			if hi > rHi {
				hi = rHi
			}
			if lo < hi {
				x0 = dsp.ArgMin(icg, lo, hi) - rLo
			}
		}
		if x0 < 0 { // fall back to the paper rule
			x0 = dsp.ArgMin(seg, xLo, xHi)
		}
	default: // XPaper
		x0 = dsp.ArgMin(seg, xLo, xHi)
	}
	if x0 < 0 {
		x0 = len(seg) - guard - 1
	}
	bp.X0 = rLo + x0
	// X is the local minimum of the 3rd derivative left of X0. The search
	// is bounded to a 40 ms proximity window: the rule targets the
	// incisura inflection right before the trough, and on smooth beats
	// (where the nearest d3 minimum drifts far left) X0 itself is the
	// closure point.
	floor := maxInt(x0-int(0.04*fs), c+1)
	x := prevLocalMinAfter(d3, x0, floor)
	if x < 0 {
		x = x0
	}
	bp.X = rLo + x

	return nil
}

// detectB implements the three B rules. It returns the B index within the
// segment, the fractional B0 estimate, and whether the second-derivative
// pattern was found.
func detectB(a *dsp.Arena, seg, d1, d2, d3 []float64, c int, cAmp, fs float64, rule BVariant) (int, float64, bool, error) {
	// Locate the upstroke foot: the nearest sample left of C that drops
	// below 15% of the C amplitude (searched within 250 ms). Bounding the
	// 40-80% collection at the foot keeps the fitted line on the true
	// upstroke even when a respiratory tilt raises the far baseline above
	// the 40% threshold.
	footFloor := maxInt(1, c-int(0.25*fs))
	foot := footFloor
	for i := c; i >= footFloor; i-- {
		if seg[i] < 0.15*cAmp {
			foot = i
			break
		}
	}
	// Collect the 40-80% band of the upstroke between foot and C.
	lo40 := 0.4 * cAmp
	hi80 := 0.8 * cAmp
	idx := a.Ints(c - foot + 1)[:0]
	for i := c; i >= foot; i-- {
		v := seg[i]
		if v < lo40 {
			break
		}
		if v <= hi80 {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2 {
		return 0, 0, false, ErrNoUpstroke
	}
	// Reverse into ascending order for the fit.
	for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
		idx[i], idx[j] = idx[j], idx[i]
	}
	line, ok := dsp.FitLineIndicesWith(a, seg, idx)
	if !ok {
		return 0, 0, false, ErrNoUpstroke
	}
	// The "horizontal axis" the paper intersects is the pre-upstroke
	// baseline. Re-measuring it locally (median of the 50 ms right
	// before the foot) keeps B0 insensitive to the residual wiggles the
	// per-beat detrend can leave at the segment head.
	baseLo := maxInt(foot-int(0.05*fs), 0)
	localBase := 0.0
	if foot > baseLo+2 {
		scratch := a.F64(foot - baseLo)
		copy(scratch, seg[baseLo:foot])
		localBase = dsp.MedianInPlace(scratch)
	}
	if localBase > 0.3*cAmp { // implausible baseline: fall back to zero
		localBase = 0
	}
	b0f, ok := line.XAtY(localBase)
	if !ok {
		return 0, 0, false, ErrNoUpstroke
	}
	b0 := int(b0f + 0.5)
	minB := c - int(0.20*fs) // B cannot precede C by more than 200 ms
	if minB < 0 {
		minB = 0
	}
	b0 = dsp.ClampInt(b0, minB, c-1)

	if rule == BLineFitOnly {
		return b0, b0f, false, nil
	}

	// Look for the (+,-,+,-) second-derivative sign pattern left of C.
	pattern := hasSignPattern(d2, maxInt(minB-int(0.04*fs), 0), c)

	if rule == BPaper && pattern {
		// B = first minimum of the 3rd derivative to the left of B0. The
		// scan is bounded to a 40 ms proximity window: the rule targets
		// the B notch adjacent to the upstroke foot, and an unbounded
		// scan would wander into the quiet pre-B region on beats whose
		// notch was smoothed away.
		floor := maxInt(b0-int(0.04*fs), minB)
		if b := prevLocalMinAfter(d3, b0, floor); b >= 0 {
			return b, b0f, true, nil
		}
	}
	// Fallback (and BZeroCrossOnly): first zero crossing of the first
	// derivative to the left of B0 — the foot of the upstroke. The
	// crossing must be persistent (the slope stays non-positive for two
	// samples on its left) so that noise wiggles right next to B0 do not
	// stop the scan early.
	if z := prevPersistentZeroCross(d1, b0+1, minB); z >= 0 {
		return z, b0f, pattern, nil
	}
	if z := dsp.PrevZeroCrossing(d1[:c+1], b0+1); z >= 0 && z >= minB {
		return z, b0f, pattern, nil
	}
	return b0, b0f, pattern, nil
}

// prevPersistentZeroCross scans left from start for a downward-to-upward
// slope transition where d1 is non-positive for at least two consecutive
// samples before turning positive; returns -1 if none is found above
// floor.
func prevPersistentZeroCross(d1 []float64, start, floor int) int {
	start = dsp.ClampInt(start, 0, len(d1)-1)
	if floor < 1 {
		floor = 1
	}
	for i := start - 1; i >= floor; i-- {
		if d1[i] <= 0 && i+1 < len(d1) && d1[i+1] > 0 && d1[i-1] <= 0 {
			return i
		}
	}
	return -1
}

// hasSignPattern reports whether the sign-run sequence of d2 inside
// [lo, hi) contains the subsequence +,-,+,- (runs shorter than 2 samples
// are ignored as noise).
func hasSignPattern(d2 []float64, lo, hi int) bool {
	lo = dsp.ClampInt(lo, 0, len(d2))
	hi = dsp.ClampInt(hi, 0, len(d2))
	// Streaming subsequence matcher: each completed run (>= 2 samples)
	// is tested against the next wanted sign the moment it ends, so no
	// run list is materialized — this runs once per candidate beat and
	// used to be the only per-beat heap allocation of the B rule.
	want := [4]int{1, -1, 1, -1}
	w := 0
	runLen := 0
	cur := 0
	for i := lo; i < hi; i++ {
		s := 0
		if d2[i] > 0 {
			s = 1
		} else if d2[i] < 0 {
			s = -1
		}
		if s == 0 {
			continue
		}
		if s == cur {
			runLen++
			continue
		}
		if cur != 0 && runLen >= 2 && cur == want[w] {
			w++
			if w == len(want) {
				return true
			}
		}
		cur = s
		runLen = 1
	}
	if cur != 0 && runLen >= 2 && cur == want[w] {
		w++
	}
	return w == len(want)
}

// prevLocalMinAfter returns the nearest local-minimum index of x strictly
// left of start but not before floor; -1 if none.
func prevLocalMinAfter(x []float64, start, floor int) int {
	start = dsp.ClampInt(start, 0, len(x)-1)
	floor = dsp.ClampInt(floor, 1, len(x)-1)
	for i := start - 1; i >= floor; i-- {
		if i+1 < len(x) && x[i] < x[i-1] && x[i] < x[i+1] {
			return i
		}
	}
	return -1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// detrendAnchored removes a linear baseline from seg in place. The
// initial line passes through the medians of the two quiet windows of
// the cardiac cycle — the 40 ms right after the R peak (before the B
// upstroke: PEP is at least 40 ms) and the last 120 ms of the beat (late
// diastole) — and is then polished by a robust refit that keeps only the
// samples whose residuals fall below the 60th percentile, dropping the
// systolic complex.
func detrendAnchored(a *dsp.Arena, seg []float64, fs float64) {
	n := len(seg)
	if n < 16 {
		return
	}
	headLen := int(0.04 * fs)
	if headLen < 2 {
		headLen = 2
	}
	if headLen > n/4 {
		headLen = n / 4
	}
	tailLen := int(0.12 * fs)
	if tailLen < 2 {
		tailLen = 2
	}
	if tailLen > n/3 {
		tailLen = n / 3
	}
	// All per-beat storage — the two anchor-median scratch copies and,
	// per refit iteration, the residuals, their sorted copy for the
	// percentile, and the kept points — shares one scratch block: this
	// runs on every beat of every window and dominated the pipeline's
	// small-object churn.
	buf := a.F64(4 * n)
	sorted := buf[n : 2*n]
	copy(sorted, seg[:headLen])
	headMed := dsp.MedianInPlace(sorted[:headLen])
	copy(sorted, seg[n-tailLen:])
	tailMed := dsp.MedianInPlace(sorted[:tailLen])
	x1 := float64(headLen-1) / 2
	x2 := float64(n-1) - float64(tailLen-1)/2
	line := dsp.Line{}
	if x2 > x1 {
		line.Slope = (tailMed - headMed) / (x2 - x1)
		line.Intercept = headMed - line.Slope*x1
	}
	// Robust refit: keep low-residual samples (the baseline), ignore the
	// systolic deflections. The refit is quadratic so the in-beat
	// curvature of the respiratory -dZ/dt component is captured, not just
	// its mean slope.
	res := buf[:n]
	kx := buf[2*n : 2*n : 3*n]
	ky := buf[3*n : 3*n : 4*n]
	quad := dsp.Quad{B: line.Slope, C: line.Intercept} // A = 0: the anchor line
	for iter := 0; iter < 2; iter++ {
		for i, v := range seg {
			r := v - quad.YAt(float64(i))
			if r < 0 {
				r = -r
			}
			res[i] = r
		}
		copy(sorted, res)
		thresh := dsp.PercentileInPlace(sorted, 60)
		kx, ky = kx[:0], ky[:0]
		for i, v := range seg {
			if res[i] <= thresh {
				kx = append(kx, float64(i))
				ky = append(ky, v)
			}
		}
		if len(kx) < 12 {
			break
		}
		if q, ok2 := dsp.FitQuad(kx, ky); ok2 {
			quad = q
		}
	}
	for i := range seg {
		seg[i] -= quad.YAt(float64(i))
	}
}
