package icg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/physio"
)

// prep generates a recording and returns the filtered ICG plus truth.
func prep(t *testing.T, id int, cfg physio.GenConfig) (*physio.Recording, []float64) {
	t.Helper()
	s, ok := physio.SubjectByID(id)
	if !ok {
		t.Fatalf("no subject %d", id)
	}
	rec := s.Generate(cfg)
	filt, err := DefaultFilter(rec.FS).Apply(rec.ICG)
	if err != nil {
		t.Fatal(err)
	}
	return rec, filt
}

func TestFilterRemovesHighFrequency(t *testing.T) {
	fs := 250.0
	n := 4096
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*5*ti) + math.Sin(2*math.Pi*45*ti)
	}
	y, err := DefaultFilter(fs).Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	if hi := dsp.BandPower(y, fs, 40, 50); hi > 0.01*dsp.BandPower(x, fs, 40, 50) {
		t.Errorf("45 Hz not removed: %g", hi)
	}
	if lo := dsp.BandPower(y, fs, 4, 6); lo < 0.8*dsp.BandPower(x, fs, 4, 6) {
		t.Errorf("5 Hz damaged: %g", lo)
	}
}

func TestFilterZeroConfigDefaults(t *testing.T) {
	c := FilterConfig{FS: 250}
	x := make([]float64, 500)
	if _, err := c.Apply(x); err != nil {
		t.Fatalf("defaults should work: %v", err)
	}
}

func TestDetectBeatCleanAccuracy(t *testing.T) {
	cfg := physio.DefaultGenConfig()
	cfg.ICGNoiseStd = 0.005
	rec, filt := prep(t, 1, cfg)
	tr := rec.Truth
	dcfg := DefaultDetect(rec.FS)

	tolC := 3                   // 12 ms for the C peak
	tolB := int(0.020 * rec.FS) // 20 ms for B
	tolX := int(0.025 * rec.FS) // 25 ms for X
	nb := 0
	okC, okB, okX := 0, 0, 0
	for i := 0; i+1 < tr.Beats(); i++ {
		pts, err := DetectBeat(filt, tr.RPeaks[i], tr.RPeaks[i+1], -1, dcfg)
		if err != nil {
			continue
		}
		nb++
		if iabs(pts.C-tr.CPoints[i]) <= tolC {
			okC++
		}
		if iabs(pts.B-tr.BPoints[i]) <= tolB {
			okB++
		}
		if iabs(pts.X-tr.XPoints[i]) <= tolX {
			okX++
		}
	}
	if nb < tr.Beats()-3 {
		t.Fatalf("analyzed only %d of %d beats", nb, tr.Beats())
	}
	if f := frac(okC, nb); f < 0.95 {
		t.Errorf("C accuracy = %.2f", f)
	}
	if f := frac(okB, nb); f < 0.85 {
		t.Errorf("B accuracy = %.2f", f)
	}
	if f := frac(okX, nb); f < 0.85 {
		t.Errorf("X accuracy = %.2f", f)
	}
}

func TestDetectBeatOrderingInvariant(t *testing.T) {
	// Whatever the input, successful detections must satisfy
	// R <= B < C < X within the beat.
	for _, id := range []int{1, 2, 3, 4, 5} {
		rec, filt := prep(t, id, physio.DefaultGenConfig())
		tr := rec.Truth
		for i := 0; i+1 < tr.Beats(); i++ {
			pts, err := DetectBeat(filt, tr.RPeaks[i], tr.RPeaks[i+1], -1, DefaultDetect(rec.FS))
			if err != nil {
				continue
			}
			if !(pts.R <= pts.B && pts.B < pts.C && pts.C < pts.X) {
				t.Fatalf("subject %d beat %d: ordering R=%d B=%d C=%d X=%d",
					id, i, pts.R, pts.B, pts.C, pts.X)
			}
			if pts.CAmp <= 0 {
				t.Fatalf("non-positive C amplitude")
			}
		}
	}
}

func TestDetectBeatPEPLVETAccuracy(t *testing.T) {
	// The derived systolic time intervals must track the ground truth on
	// average (the per-beat tolerance is wider than the mean tolerance).
	cfg := physio.DefaultGenConfig()
	rec, filt := prep(t, 3, cfg)
	tr := rec.Truth
	var dPEP, dLVET []float64
	for i := 0; i+1 < tr.Beats(); i++ {
		pts, err := DetectBeat(filt, tr.RPeaks[i], tr.RPeaks[i+1], -1, DefaultDetect(rec.FS))
		if err != nil {
			continue
		}
		pep := float64(pts.B-pts.R) / rec.FS
		lvet := float64(pts.X-pts.B) / rec.FS
		dPEP = append(dPEP, pep-tr.PEP[i])
		dLVET = append(dLVET, lvet-tr.LVET[i])
	}
	if len(dPEP) < 20 {
		t.Fatalf("too few beats: %d", len(dPEP))
	}
	if m := math.Abs(dsp.Mean(dPEP)); m > 0.015 {
		t.Errorf("mean PEP bias = %.4f s", m)
	}
	if m := math.Abs(dsp.Mean(dLVET)); m > 0.020 {
		t.Errorf("mean LVET bias = %.4f s", m)
	}
}

func TestDetectBeatErrors(t *testing.T) {
	x := make([]float64, 1000)
	if _, err := DetectBeat(x, 0, 20, -1, DefaultDetect(250)); err != ErrBeatTooShort {
		t.Errorf("short beat: %v", err)
	}
	if _, err := DetectBeat(x, -5, 400, -1, DefaultDetect(250)); err != ErrBeatTooShort {
		t.Errorf("negative lo: %v", err)
	}
	// A flat beat has no C point above baseline.
	if _, err := DetectBeat(x, 0, 400, -1, DefaultDetect(250)); err == nil {
		t.Error("flat beat should fail")
	}
}

func TestDetectAllAndYield(t *testing.T) {
	rec, filt := prep(t, 2, physio.DefaultGenConfig())
	beats := DetectAll(filt, rec.Truth.RPeaks, nil, DefaultDetect(rec.FS))
	if len(beats) != rec.Truth.Beats()-1 {
		t.Fatalf("beats = %d", len(beats))
	}
	if y := YieldRate(beats); y < 0.9 {
		t.Errorf("yield = %g", y)
	}
	good := GoodBeats(beats)
	if len(good) == 0 {
		t.Fatal("no good beats")
	}
	if DetectAll(filt, []int{100}, nil, DefaultDetect(rec.FS)) != nil {
		t.Error("single R peak should give nil")
	}
	if YieldRate(nil) != 0 {
		t.Error("empty yield should be 0")
	}
}

func TestXVariantsBothWork(t *testing.T) {
	rec, filt := prep(t, 1, physio.DefaultGenConfig())
	tr := rec.Truth
	// T peaks approximated from the truth RR series.
	tPeaks := make([]int, tr.Beats())
	for i, r := range tr.RPeaks {
		tPeaks[i] = r + int(physio.TPeakOffset(tr.RR[i])*rec.FS)
	}
	carv := DefaultDetect(rec.FS)
	carv.XRule = XCarvalho
	okPaper, okCarv, n := 0, 0, 0
	tolX := int(0.03 * rec.FS)
	for i := 0; i+1 < tr.Beats(); i++ {
		p1, err1 := DetectBeat(filt, tr.RPeaks[i], tr.RPeaks[i+1], -1, DefaultDetect(rec.FS))
		p2, err2 := DetectBeat(filt, tr.RPeaks[i], tr.RPeaks[i+1], tPeaks[i], carv)
		if err1 != nil || err2 != nil {
			continue
		}
		n++
		if iabs(p1.X-tr.XPoints[i]) <= tolX {
			okPaper++
		}
		if iabs(p2.X-tr.XPoints[i]) <= tolX {
			okCarv++
		}
	}
	if n < 20 {
		t.Fatalf("too few beats: %d", n)
	}
	if f := frac(okPaper, n); f < 0.85 {
		t.Errorf("paper X accuracy = %.2f", f)
	}
	if f := frac(okCarv, n); f < 0.6 {
		t.Errorf("carvalho X accuracy = %.2f", f)
	}
}

func TestBVariantsOrdering(t *testing.T) {
	// All three B rules should produce a B before C; the paper rule
	// should be at least as accurate as the raw line fit.
	rec, filt := prep(t, 1, physio.DefaultGenConfig())
	tr := rec.Truth
	rules := []BVariant{BPaper, BZeroCrossOnly, BLineFitOnly}
	acc := make([]int, len(rules))
	n := 0
	tolB := int(0.02 * rec.FS)
	for i := 0; i+1 < tr.Beats(); i++ {
		allOK := true
		var pts [3]*BeatPoints
		for ri, rule := range rules {
			cfg := DefaultDetect(rec.FS)
			cfg.BRule = rule
			p, err := DetectBeat(filt, tr.RPeaks[i], tr.RPeaks[i+1], -1, cfg)
			if err != nil {
				allOK = false
				break
			}
			pts[ri] = p
		}
		if !allOK {
			continue
		}
		n++
		for ri := range rules {
			if pts[ri].B >= pts[ri].C {
				t.Fatalf("rule %d: B >= C", ri)
			}
			if iabs(pts[ri].B-tr.BPoints[i]) <= tolB {
				acc[ri]++
			}
		}
	}
	if n < 20 {
		t.Fatalf("too few beats analyzed: %d", n)
	}
	if acc[0] < acc[2] {
		t.Errorf("paper B rule (%d/%d) worse than raw line fit (%d/%d)",
			acc[0], n, acc[2], n)
	}
}

func TestHasSignPattern(t *testing.T) {
	// Construct a d2 sequence with runs +,+,-,-,+,+,-,-.
	d2 := []float64{1, 1, -1, -1, 1, 1, -1, -1}
	if !hasSignPattern(d2, 0, len(d2)) {
		t.Error("pattern missed")
	}
	// Only two runs.
	d2b := []float64{1, 1, 1, -1, -1, -1}
	if hasSignPattern(d2b, 0, len(d2b)) {
		t.Error("false pattern")
	}
	// Runs of length 1 are ignored.
	d2c := []float64{1, -1, 1, -1}
	if hasSignPattern(d2c, 0, len(d2c)) {
		t.Error("noise runs should not count")
	}
}

func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func TestDetectBeatNeverPanicsOnRandomInput(t *testing.T) {
	// Fuzz-style robustness: arbitrary signals may fail with an error but
	// must never panic, and successful detections must keep the point
	// ordering invariant.
	f := func(seed int64, lenRaw uint16) bool {
		n := 100 + int(lenRaw)%2000
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 2
		}
		hi := n - 1
		if hi < 80 {
			return true
		}
		pts, err := DetectBeat(x, 0, hi, -1, DefaultDetect(250))
		if err != nil {
			return true // errors are acceptable; panics are not
		}
		return pts.R <= pts.B && pts.B < pts.C && pts.C < pts.X && pts.X <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDetectBeatExtremeAmplitudes(t *testing.T) {
	// Scaling the signal by huge/small factors must not break detection
	// (the rules are ratio-based).
	rec, filt := prep(t, 1, physio.DefaultGenConfig())
	tr := rec.Truth
	for _, scale := range []float64{1e-6, 1e6} {
		scaled := dsp.Scale(filt, scale)
		ok := 0
		for i := 0; i+1 < tr.Beats(); i++ {
			pts, err := DetectBeat(scaled, tr.RPeaks[i], tr.RPeaks[i+1], -1, DefaultDetect(rec.FS))
			if err != nil {
				continue
			}
			if iabs(pts.C-tr.CPoints[i]) <= 3 {
				ok++
			}
		}
		if frac := float64(ok) / float64(tr.Beats()-1); frac < 0.9 {
			t.Errorf("scale %g: C accuracy %.2f", scale, frac)
		}
	}
}

func TestSavGolSmoothingVariant(t *testing.T) {
	// Both smoothing engines must detect the points; SavGol should be at
	// least comparable on C accuracy.
	cfg := physio.DefaultGenConfig()
	rec, filt := prep(t, 1, cfg)
	tr := rec.Truth
	for _, sg := range []bool{false, true} {
		dcfg := DefaultDetect(rec.FS)
		dcfg.UseSavGol = sg
		ok, n := 0, 0
		for i := 0; i+1 < tr.Beats(); i++ {
			pts, err := DetectBeat(filt, tr.RPeaks[i], tr.RPeaks[i+1], -1, dcfg)
			if err != nil {
				continue
			}
			n++
			if iabs(pts.C-tr.CPoints[i]) <= 3 {
				ok++
			}
		}
		if f := frac(ok, n); f < 0.9 {
			t.Errorf("savgol=%v: C accuracy %.2f", sg, f)
		}
	}
}
