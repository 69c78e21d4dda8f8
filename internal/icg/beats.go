package icg

import (
	"math"

	"repro/internal/dsp"
)

// Beat segmentation and whole-recording analysis: the ICG between two
// consecutive ECG R peaks is fed to the characteristic-point detector, on
// a beat-to-beat basis (Section IV-C).

// ShapeBins is the fixed length of the per-beat shape signature: the
// conditioned beat segment bin-averaged to this many points, mean-
// removed and scaled to unit variance. The per-beat quality gate
// (internal/quality) correlates these signatures against its running
// ensemble template.
const ShapeBins = 64

// BeatAnalysis is the outcome of analyzing one beat. Quality is the
// morphology score of the detected points (MorphScore, in [0,1]) and
// Shape the normalized conditioned-beat signature (valid when ShapeOK);
// both are emitted identically by the batch detector and the streaming
// Delineator, and the per-beat quality gate folds them into the
// composite acceptance decision.
type BeatAnalysis struct {
	Points  *BeatPoints
	Quality float64
	Shape   [ShapeBins]float64
	ShapeOK bool
	Err     error
}

// BeatShapeOf computes the shape signature of the conditioned segment
// x[lo:hi]: ShapeBins equal-width bin means (smoothing and resampling
// in one pass), mean-removed and scaled to unit variance. ok is false
// for degenerate (too-short or constant) segments.
func BeatShapeOf(x []float64, lo, hi int) (shape [ShapeBins]float64, ok bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(x) {
		hi = len(x)
	}
	m := hi - lo
	if m < ShapeBins/4 {
		return shape, false
	}
	seg := x[lo:hi]
	var sum float64
	for i := 0; i < ShapeBins; i++ {
		a, b := i*m/ShapeBins, (i+1)*m/ShapeBins
		if b <= a {
			b = a + 1
		}
		s := 0.0
		for j := a; j < b; j++ {
			s += seg[j]
		}
		shape[i] = s / float64(b-a)
		sum += shape[i]
	}
	mean := sum / ShapeBins
	var ss float64
	for i := range shape {
		shape[i] -= mean
		ss += shape[i] * shape[i]
	}
	if ss <= 0 {
		return shape, false
	}
	k := 1 / math.Sqrt(ss/ShapeBins)
	for i := range shape {
		shape[i] *= k
	}
	return shape, true
}

// DetectAll runs the beat detector on every RR segment. tPeaks may be nil
// (required only for the Carvalho X variant); rPeaks must be sorted.
func DetectAll(icg []float64, rPeaks []int, tPeaks []int, cfg DetectConfig) []BeatAnalysis {
	return DetectAllWith(nil, icg, rPeaks, tPeaks, cfg)
}

// DetectAllWith is DetectAll drawing every per-beat intermediate from
// an arena (nil falls back to the heap); the BeatAnalysis records and
// their BeatPoints are heap-allocated (one block for the whole
// recording) and safe to retain. The arena is not reset between beats,
// so its footprint converges to the beat loop's peak after the first
// recording.
func DetectAllWith(a *dsp.Arena, icg []float64, rPeaks []int, tPeaks []int, cfg DetectConfig) []BeatAnalysis {
	if len(rPeaks) < 2 {
		return nil
	}
	out := make([]BeatAnalysis, 0, len(rPeaks)-1)
	block := make([]BeatPoints, len(rPeaks)-1) //icg:allow hotalloc -- retained: one backing block of BeatPoints pointed into by the returned analyses, never arena scratch
	for i := 0; i+1 < len(rPeaks); i++ {
		tp := -1
		if tPeaks != nil && i < len(tPeaks) {
			tp = tPeaks[i]
		}
		err := DetectBeatInto(&block[i], a, icg, rPeaks[i], rPeaks[i+1], tp, cfg)
		ba := BeatAnalysis{Err: err}
		if err == nil {
			ba.Points = &block[i]
			ba.Quality = MorphScore(icg, ba.Points, rPeaks[i+1], cfg.FS)
			ba.Shape, ba.ShapeOK = BeatShapeOf(icg, rPeaks[i], rPeaks[i+1])
		}
		out = append(out, ba)
	}
	return out
}

// GoodBeats filters successful detections.
func GoodBeats(beats []BeatAnalysis) []*BeatPoints {
	var out []*BeatPoints
	for _, b := range beats {
		if b.Err == nil && b.Points != nil {
			out = append(out, b.Points)
		}
	}
	return out
}

// YieldRate returns the fraction of beats that were analyzed successfully.
func YieldRate(beats []BeatAnalysis) float64 {
	if len(beats) == 0 {
		return 0
	}
	good := 0
	for _, b := range beats {
		if b.Err == nil {
			good++
		}
	}
	return float64(good) / float64(len(beats))
}
