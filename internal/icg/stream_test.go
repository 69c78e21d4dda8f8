package icg

import (
	"math"
	"testing"

	"repro/internal/bioimp"
	"repro/internal/dsp"
	"repro/internal/hw/afe"
)

// zLSB is the device's impedance AC-path LSB (2⁻¹² Ω), the grid the
// streamer's raw ring stores codes on.
var zLSB = afe.DefaultICG().ACADC.LSB()

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

// impedanceOf returns an impedance stream whose -dZ/dt is close to sig:
// a base impedance minus sig's running sum.
func impedanceOf(sig []float64, fs float64) []float64 {
	z := make([]float64, len(sig))
	acc := 30.0
	for i, v := range sig {
		acc -= v / fs
		z[i] = acc
	}
	return z
}

// streamZ appends z to raw in chunks of chunk samples, advancing d after
// each append on an arena lent per push like the streamer's, delivers
// each R peak once its sample time has passed, like the QRS detector
// would, and flushes.
func streamZ(d *Delineator, raw *dsp.Ring, z []float64, rPeaks []int, chunk int) []BeatAnalysis {
	var a dsp.Arena
	var got []BeatAnalysis
	nextR := 0
	for pos := 0; pos < len(z); {
		end := min(pos+chunk, len(z))
		raw.Append(z[pos:end])
		a.Reset()
		got = d.Advance(&a, got)
		pos = end
		for nextR < len(rPeaks) && rPeaks[nextR] < pos {
			got = d.PushR(got, rPeaks[nextR])
			nextR++
		}
	}
	return d.Flush(nil, got)
}

// causalICG is the causal ablation's conditioning of z in batch: -dZ/dt,
// then the low-pass and the high-pass, each causal from the zero state.
func causalICG(z []float64, lp, hp dsp.SOS, fs float64) []float64 {
	return hp.Filter(lp.Filter(bioimp.ICGFromZ(z, fs)))
}

func designed(t testing.TB) (lp, hp dsp.SOS) {
	t.Helper()
	lp, hp, err := DefaultFilter(250).Design()
	if err != nil {
		t.Fatal(err)
	}
	return lp, hp
}

// In the causal ablation the delineator analyzes each segment of the
// causally conditioned stream as it is, so it finds exactly the points
// the batch detector finds on the same signal, whatever the chunking.
func TestDelineatorMatchesDetectAll(t *testing.T) {
	fs := 250.0
	sig, rPeaks := synthICG(20, fs)
	z := impedanceOf(sig, fs)
	lp, hp := designed(t)
	cfg := DefaultDetect(fs)
	want := DetectAll(causalICG(z, lp, hp, fs), rPeaks, nil, cfg)
	ok := 0
	for _, w := range want {
		if w.Err == nil {
			ok++
		}
	}
	if ok < len(want)/2 {
		t.Fatalf("batch detector finds only %d of %d beats", ok, len(want))
	}

	// R peaks are delivered as their sample time passes, so the chunk
	// size bounds how far the raw stream runs ahead of the R stream:
	// that is the delineator's lead, which sizes the raw ring (the
	// overlong-beat test covers the starved case).
	for _, chunk := range []int{1, 7, 127, 128, 129, 250, 600} {
		raw := dsp.NewNarrowRing(RawHistory(cfg, true, 0, 3, chunk), zLSB)
		d := NewDelineator(cfg, lp, hp, true, 0, 3, raw, new(dsp.ArenaPool))
		got := streamZ(d, raw, z, rPeaks, chunk)
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
			if *g.Points != *w.Points {
				t.Errorf("chunk %d beat %d: points %+v vs %+v", chunk, i, *g.Points, *w.Points)
			}
		}
	}
}

// The delineator refilters with both cascades in either mode; a
// missing cascade is a wiring mistake.
func TestNewDelineatorNeedsBothCascades(t *testing.T) {
	lp, hp := designed(t)
	raw := dsp.NewRing(1024)
	for _, c := range [][2]dsp.SOS{{lp, nil}, {nil, hp}, {nil, nil}} {
		for _, causal := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("lp %v hp %v causal %v: no panic", c[0] != nil, c[1] != nil, causal)
					}
				}()
				NewDelineator(DefaultDetect(250), c[0], c[1], causal, 1, 3, raw, new(dsp.ArenaPool))
			}()
		}
	}
}

func TestDelineatorOverlongBeatDoesNotStall(t *testing.T) {
	fs := 250.0
	cfg := DefaultDetect(fs)
	lp, hp := designed(t)
	raw := dsp.NewNarrowRing(RawHistory(cfg, true, 0, 2, 250), zLSB) // 2 s beats
	d := NewDelineator(cfg, lp, hp, true, 0, 2, raw, new(dsp.ArenaPool))
	got := streamZ(d, raw, make([]float64, int(10*fs)), nil, 250)
	got = d.PushR(got, 0)
	got = d.PushR(got, int(8*fs)) // 8 s "beat" exceeds the bound
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

// A lapped forward pass is a wiring mistake: the owner must advance
// the delineator before the ring overwrites what it has not read.
func TestDelineatorPanicsWhenLapped(t *testing.T) {
	lp, hp := designed(t)
	raw := dsp.NewRing(256)
	d := NewDelineator(DefaultDetect(250), lp, hp, false, 1, 3, raw, new(dsp.ArenaPool))
	raw.Append(make([]float64, 300))
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	d.Advance(nil, nil)
}

func TestDelineatorReset(t *testing.T) {
	fs := 250.0
	sig, rPeaks := synthICG(8, fs)
	z := impedanceOf(sig, fs)
	cfg := DefaultDetect(fs)
	lp, hp := designed(t)
	for _, causal := range []bool{false, true} {
		raw := dsp.NewNarrowRing(RawHistory(cfg, causal, 1, 3, 50), zLSB)
		d := NewDelineator(cfg, lp, hp, causal, 1, 3, raw, new(dsp.ArenaPool))
		first := streamZ(d, raw, z, rPeaks, 50)
		raw.Reset()
		d.Reset()
		second := streamZ(d, raw, z, rPeaks, 50)
		if len(first) != len(second) || len(first) != len(rPeaks)-1 {
			t.Fatalf("causal %v: %d beats, after Reset %d", causal, len(first), len(second))
		}
		for i := range first {
			if (first[i].Err == nil) != (second[i].Err == nil) {
				t.Fatalf("causal %v: beat %d differs after Reset", causal, i)
			}
			if first[i].Err == nil && *first[i].Points != *second[i].Points {
				t.Fatalf("causal %v: beat %d points differ after Reset", causal, i)
			}
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
	z := impedanceOf(sig, fs)
	lp, hp := designed(t)
	whole := ApplyDesigned(nil, lp, hp, bioimp.ICGFromZ(z, fs))
	cfg := DefaultDetect(fs)
	want := DetectAll(whole, rPeaks, nil, cfg)

	raw := dsp.NewNarrowRing(RawHistory(cfg, false, 1, 3, 125), zLSB)
	d := NewDelineator(cfg, lp, hp, false, 1.0, 3, raw, new(dsp.ArenaPool))
	got := streamZ(d, raw, z, rPeaks, 125)
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

// cachedForward is the forward pass the delineator used to cache in an
// ICG ring, computed over the whole recording z: -dZ/dt (bioimp.ICGFromZ)
// through the high-pass, zi-primed on the odd-reflected prefix of the
// stream head, or, in the causal ablation, through the low-pass then
// the high-pass from the zero state.
func cachedForward(z []float64, lp, hp dsp.SOS, causal bool, fs float64) []float64 {
	if causal {
		return causalICG(z, lp, hp, fs)
	}
	x := bioimp.ICGFromZ(z, fs)
	pad := min(3*(2*len(hp)+1), len(x)-1)
	in := make([]float64, 0, pad+len(x))
	for i := pad; i >= 1; i-- {
		in = append(in, 2*x[0]-x[i])
	}
	in = append(in, x...)
	return dsp.NewSOSStream(hp, true).Push(nil, nil, in)[pad:]
}

// The replayed forward pass is bit for bit the cached one it replaces,
// for windows starting at every offset from a checkpoint, in both modes:
// mid-stream (the last sample still waits for its central difference),
// after the ring has lapped, and after Flush (the one-sided last
// sample), including a stream shorter than the reflect pad.
func TestDelineatorReplayMatchesCachedForwardPass(t *testing.T) {
	fs := 250.0
	sig, _ := synthICG(30, fs)
	for i := range sig {
		sig[i] += 0.1*math.Sin(2*math.Pi*13*float64(i)/fs) + 0.3*math.Sin(2*math.Pi*0.3*float64(i)/fs)
	}
	z := impedanceOf(sig, fs)
	lp, hp := designed(t)
	cfg := DefaultDetect(fs)
	check := func(t *testing.T, d *Delineator, want []float64, los []int, hi int) {
		t.Helper()
		var a dsp.Arena
		for _, lo := range los {
			a.Reset()
			got := d.replay(&a, lo, hi)
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[lo+i]) {
					t.Fatalf("window [%d, %d) sample %d: %v, cached %v", lo, hi, lo+i, v, want[lo+i])
				}
			}
		}
	}
	offsets := func(base int) []int {
		var los []int
		for k := 0; k < checkpointEvery; k++ {
			los = append(los, base+k)
		}
		return los
	}
	for _, causal := range []bool{false, true} {
		t.Run(map[bool]string{false: "zero-phase", true: "causal"}[causal], func(t *testing.T) {
			raw := dsp.NewNarrowRing(2048, zLSB)
			d := NewDelineator(cfg, lp, hp, causal, 1, 3, raw, new(dsp.ArenaPool))
			var a dsp.Arena
			// Mid-stream, before the ring laps: windows from the stream head.
			n := 1500
			for pos := 0; pos < n; pos += 97 {
				raw.Append(z[pos:min(pos+97, n)])
				a.Reset()
				d.Advance(&a, nil)
			}
			if d.n != n-1 {
				t.Fatalf("forward pass at %d, want %d", d.n, n-1)
			}
			check(t, d, cachedForward(z[:n], lp, hp, causal, fs), append(offsets(0), offsets(640)...), n-1)
			// Past a lap, then ended by Flush.
			n = len(z)
			for pos := 1500; pos < n; pos += 97 {
				raw.Append(z[pos:min(pos+97, n)])
				a.Reset()
				d.Advance(&a, nil)
			}
			d.Flush(&a, nil)
			if d.n != n || raw.Start() == 0 {
				t.Fatalf("forward pass at %d of %d, ring start %d", d.n, n, raw.Start())
			}
			want := cachedForward(z, lp, hp, causal, fs)
			check(t, d, want, offsets(n-1500), n)
			check(t, d, want, offsets(n - checkpointEvery - 1)[:checkpointEvery-1], n-1)
			// A stream shorter than the reflect pad, ended by Flush.
			for _, short := range []int{1, 2, 3, 8} {
				raw.Reset()
				d.Reset()
				raw.Append(z[:short])
				d.Advance(&a, nil)
				d.Flush(&a, nil)
				check(t, d, cachedForward(z[:short], lp, hp, causal, fs), []int{0, short - 1}, short)
			}
		})
	}
}
