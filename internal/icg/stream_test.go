package icg

import (
	"math"
	"testing"

	"repro/internal/dsp"
)

// synthICG builds a clean-ish -dZ/dt beat train with known R anchors.
func synthICG(nBeats int, fs float64) (sig []float64, rPeaks []int) {
	period := int(0.8 * fs)
	n := (nBeats + 1) * period
	sig = make([]float64, n)
	for b := 0; b <= nBeats; b++ {
		r := b * period
		rPeaks = append(rPeaks, r)
		// Systolic wave: B at ~r+0.05s, C peak at ~r+0.15s, X trough at
		// ~r+0.35s, shaped by two Gaussians.
		for i := 0; i < period && r+i < n; i++ {
			t := float64(i) / fs
			c := math.Exp(-(t - 0.15) * (t - 0.15) / (2 * 0.03 * 0.03))
			x := -0.35 * math.Exp(-(t-0.35)*(t-0.35)/(2*0.02*0.02))
			sig[r+i] += 1.2*c + x
		}
	}
	rPeaks = rPeaks[:nBeats]
	return sig, rPeaks
}

func TestDelineatorMatchesDetectAll(t *testing.T) {
	fs := 250.0
	sig, rPeaks := synthICG(20, fs)
	cfg := DefaultDetect(fs)
	want := DetectAll(sig, rPeaks, nil, cfg)

	// R peaks are delivered as their sample time passes, so the chunk
	// size bounds how far the ICG stream runs ahead of the R stream:
	// that is the delineator's lead, which sizes its history ring (the
	// overlong-beat test covers the starved case).
	for _, chunk := range []int{1, 7, 250, 600} {
		d := NewDelineator(cfg, nil, nil, 0, 0, 3, chunk, new(dsp.ArenaPool))
		var got []BeatAnalysis
		pos := 0
		nextR := 0
		for pos < len(sig) {
			end := pos + chunk
			if end > len(sig) {
				end = len(sig)
			}
			got = d.PushICG(nil, got, sig[pos:end])
			pos = end
			// Deliver R peaks as soon as their sample time has passed,
			// like the QRS detector would.
			for nextR < len(rPeaks) && rPeaks[nextR] < pos {
				got = d.PushR(got, rPeaks[nextR])
				nextR++
			}
		}
		got = d.Flush(nil, got)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d beats, want %d", chunk, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if (w.Err == nil) != (g.Err == nil) {
				t.Fatalf("chunk %d beat %d: err %v vs %v", chunk, i, g.Err, w.Err)
			}
			if w.Err != nil {
				continue
			}
			if g.Points.B != w.Points.B || g.Points.C != w.Points.C || g.Points.X != w.Points.X {
				t.Errorf("chunk %d beat %d: B/C/X %d/%d/%d vs %d/%d/%d",
					chunk, i, g.Points.B, g.Points.C, g.Points.X,
					w.Points.B, w.Points.C, w.Points.X)
			}
		}
	}
}

func TestDelineatorAlignmentShift(t *testing.T) {
	fs := 250.0
	sig, rPeaks := synthICG(10, fs)
	cfg := DefaultDetect(fs)
	want := DetectAll(sig, rPeaks, nil, cfg)

	// Delay the ICG stream by a fake group delay; with align set the
	// results must come back on the original clock.
	shift := 7
	delayed := make([]float64, len(sig)+shift)
	copy(delayed[shift:], sig)
	d := NewDelineator(cfg, nil, nil, shift, 0, 3, 0, new(dsp.ArenaPool))
	var got []BeatAnalysis
	got = d.PushICG(nil, got, delayed)
	for _, r := range rPeaks {
		got = d.PushR(got, r)
	}
	got = d.Flush(nil, got)
	if len(got) != len(want) {
		t.Fatalf("%d beats, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			continue
		}
		if got[i].Points.C != want[i].Points.C {
			t.Errorf("beat %d: C %d vs %d", i, got[i].Points.C, want[i].Points.C)
		}
	}
}

func TestDelineatorOverlongBeatDoesNotStall(t *testing.T) {
	fs := 250.0
	cfg := DefaultDetect(fs)
	d := NewDelineator(cfg, nil, nil, 0, 0, 2, 0, new(dsp.ArenaPool)) // 2 s ring
	long := make([]float64, int(10*fs))
	var got []BeatAnalysis
	got = d.PushICG(nil, got, long)
	got = d.PushR(got, 0)
	got = d.PushR(got, int(8*fs)) // 8 s "beat" exceeds the ring
	got = d.PushR(got, int(8.8*fs))
	got = d.Flush(nil, got)
	if len(got) != 2 {
		t.Fatalf("%d beats reported, want 2", len(got))
	}
	if got[0].Err == nil {
		t.Error("overlong beat should fail, not stall")
	}
	if d.Pending() != 0 {
		t.Errorf("%d beats still pending", d.Pending())
	}
}

func TestDelineatorReset(t *testing.T) {
	fs := 250.0
	sig, rPeaks := synthICG(8, fs)
	cfg := DefaultDetect(fs)
	d := NewDelineator(cfg, nil, nil, 0, 0, 3, 0, new(dsp.ArenaPool))
	run := func() []BeatAnalysis {
		var got []BeatAnalysis
		got = d.PushICG(nil, got, sig)
		for _, r := range rPeaks {
			got = d.PushR(got, r)
		}
		return d.Flush(nil, got)
	}
	first := run()
	d.Reset()
	second := run()
	if len(first) != len(second) {
		t.Fatalf("Reset changes beat count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if (first[i].Err == nil) != (second[i].Err == nil) {
			t.Fatalf("beat %d differs after Reset", i)
		}
		if first[i].Err == nil && first[i].Points.C != second[i].Points.C {
			t.Fatalf("beat %d C differs after Reset", i)
		}
	}
}

// Per-beat zero-phase refiltering with bounded context must agree with
// conditioning the whole recording at once (the batch path), away from
// the recording edges.
func TestDelineatorRefilterMatchesWholeRecording(t *testing.T) {
	fs := 250.0
	sig, rPeaks := synthICG(24, fs)
	// Add band-limited wiggle so the filters have work to do.
	for i := range sig {
		sig[i] += 0.08*math.Sin(2*math.Pi*27*float64(i)/fs) +
			0.2*math.Sin(2*math.Pi*0.28*float64(i)/fs)
	}
	lp, hp, err := DefaultFilter(fs).Design()
	if err != nil {
		t.Fatal(err)
	}
	whole := ApplyDesigned(nil, lp, hp, sig)
	cfg := DefaultDetect(fs)
	want := DetectAll(whole, rPeaks, nil, cfg)

	d := NewDelineator(cfg, lp, hp, 0, 1.0, 3, 0, new(dsp.ArenaPool))
	var a dsp.Arena // lent per push, like the streamer's
	var got []BeatAnalysis
	pos, nextR := 0, 0
	for pos < len(sig) {
		end := pos + 125
		if end > len(sig) {
			end = len(sig)
		}
		a.Reset()
		got = d.PushICG(&a, got, sig[pos:end])
		pos = end
		for nextR < len(rPeaks) && rPeaks[nextR] < pos {
			got = d.PushR(got, rPeaks[nextR])
			nextR++
		}
	}
	got = d.Flush(nil, got)
	if len(got) != len(want) {
		t.Fatalf("%d beats, want %d", len(got), len(want))
	}
	okErr, close := 0, 0
	for i := range want {
		if (want[i].Err == nil) == (got[i].Err == nil) {
			okErr++
		}
		if want[i].Err != nil || got[i].Err != nil {
			continue
		}
		db := got[i].Points.B - want[i].Points.B
		dx := got[i].Points.X - want[i].Points.X
		if db >= -2 && db <= 2 && dx >= -2 && dx <= 2 {
			close++
		}
	}
	if okErr < len(want)-1 {
		t.Errorf("success/failure pattern differs on %d beats", len(want)-okErr)
	}
	if close < len(want)-2 {
		t.Errorf("only %d/%d beats within 2 samples of batch", close, len(want))
	}
}
