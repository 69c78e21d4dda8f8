package core

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/physio"
)

// injectContactArtifacts corrupts the impedance channel the way a bad
// touch session does: flatline dropouts (lost finger contact, the AFE
// holds its last sample) and saturation bursts (motion drives the
// carrier amplitude past the ADC rails, which clip). ECG is left alone
// so the beats still delimit and the corruption shows up purely in the
// ICG-derived parameters.
func injectContactArtifacts(z []float64, fs float64) {
	lo, hi := dsp.MinMax(z)
	mid := (lo + hi) / 2
	window := func(startS, durS float64) (int, int) {
		a := int(startS * fs)
		b := a + int(durS*fs)
		if b > len(z) {
			b = len(z)
		}
		return a, b
	}
	// Dropouts: hold the last live sample.
	for _, start := range []float64{6, 15.5, 20, 33} {
		a, b := window(start, 1.4)
		for i := a + 1; i < b; i++ {
			z[i] = z[a]
		}
	}
	// Saturation bursts: amplify and clip at the session rails.
	for _, start := range []float64{12, 26, 36.5, 40} {
		a, b := window(start, 1.2)
		for i := a; i < b; i++ {
			v := mid + (z[i]-mid)*40
			if v > hi {
				v = hi
			}
			if v < lo {
				v = lo
			}
			z[i] = v
		}
	}
}

// medAbsErr matches each emitted beat to the nearest ground-truth beat
// (by R-peak index, within tol samples) and returns the median absolute
// error of the extracted field.
func medAbsErr(t *testing.T, beats []hemoBeat, truthR []int, truth []float64, fs float64) float64 {
	t.Helper()
	var errs []float64
	for _, b := range beats {
		r := int(b.timeS*fs + 0.5)
		bestJ, bestD := -1, 1<<30
		for j, tr := range truthR {
			d := r - tr
			if d < 0 {
				d = -d
			}
			if d < bestD {
				bestD, bestJ = d, j
			}
		}
		if bestJ < 0 || bestD > 15 || bestJ >= len(truth) {
			continue
		}
		errs = append(errs, math.Abs(b.v-truth[bestJ]))
	}
	if len(errs) == 0 {
		t.Fatal("no beats matched ground truth")
	}
	return dsp.Median(errs)
}

type hemoBeat struct{ timeS, v float64 }

// The acceptance criterion of the quality-gate layer: on a recording
// with injected contact artifacts, the gated beat set estimates the
// systolic time intervals strictly better than the ungated set — the
// gate removes exactly the beats whose parameters are garbage.
func TestGatingImprovesSTIUnderArtifacts(t *testing.T) {
	sub, _ := physio.SubjectByID(3)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 45)
	if err != nil {
		t.Fatal(err)
	}
	injectContactArtifacts(acq.Z, acq.FS)
	out, err := d.Process(acq)
	if err != nil {
		t.Fatal(err)
	}
	if out.AcceptRate >= 0.97 {
		t.Fatalf("gate accepted %.2f of beats on an artifact-ridden recording", out.AcceptRate)
	}
	if out.AcceptRate < 0.4 {
		t.Fatalf("gate rejected almost everything: accept rate %.2f", out.AcceptRate)
	}
	truth := acq.Rec.Truth
	collect := func(accepted bool, get func(b int) float64) []hemoBeat {
		var set []hemoBeat
		for i, b := range out.Beats {
			if accepted && !b.Accepted {
				continue
			}
			set = append(set, hemoBeat{timeS: b.TimeS, v: get(i)})
		}
		return set
	}
	for _, c := range []struct {
		name     string
		get      func(i int) float64
		truthVal []float64
	}{
		{"LVET", func(i int) float64 { return out.Beats[i].LVET }, truth.LVET},
		{"PEP", func(i int) float64 { return out.Beats[i].PEP }, truth.PEP},
	} {
		raw := medAbsErr(t, collect(false, c.get), truth.RPeaks, c.truthVal, acq.FS)
		gated := medAbsErr(t, collect(true, c.get), truth.RPeaks, c.truthVal, acq.FS)
		t.Logf("%s median abs err: ungated %.1f ms, gated %.1f ms (accept %.2f)",
			c.name, raw*1000, gated*1000, out.AcceptRate)
		if gated >= raw {
			t.Errorf("%s: gated MAE %.4f not below ungated %.4f", c.name, gated, raw)
		}
	}
}

// Batch Process and the incremental Streamer must agree on the gate
// decisions beat for beat on the study subjects — they share one
// quality.BeatGate, so only sub-sample R-peak jitter between the
// engines could ever flip a decision, and on clean recordings none sits
// that close to a threshold.
func TestGatingBatchStreamAgreement(t *testing.T) {
	for sid := 1; sid <= 5; sid++ {
		sub, _ := physio.SubjectByID(sid)
		d := device(t, func(c *Config) { c.OutlierK = 1e9 })
		acq, err := d.Acquire(&sub, 30)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := d.Process(acq)
		if err != nil {
			t.Fatal(err)
		}
		got := streamBeats(d.NewStreamer(DefaultStreamConfig()), acq.ECG, acq.Z, every(250))
		if len(got) != len(batch.Beats) {
			t.Fatalf("subject %d: %d stream beats vs %d batch", sid, len(got), len(batch.Beats))
		}
		for i := range got {
			if got[i].Accepted != batch.Beats[i].Accepted {
				t.Errorf("subject %d beat %d: stream accepted=%v batch=%v (q %.3f vs %.3f)",
					sid, i, got[i].Accepted, batch.Beats[i].Accepted,
					got[i].Quality, batch.Beats[i].Quality)
			}
			if math.Abs(got[i].Quality-batch.Beats[i].Quality) > 0.05 {
				t.Errorf("subject %d beat %d: quality %.4f vs %.4f",
					sid, i, got[i].Quality, batch.Beats[i].Quality)
			}
		}
	}
}

// The gate's accept rate reaches the batch Output and the Streamer:
// the batch rate and summaries are consistent with the per-beat flags,
// and a streamer counts every beat attempt it consumes.
func TestGateAcceptRatePlumbing(t *testing.T) {
	sub, _ := physio.SubjectByID(1)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 20)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Process(acq)
	if err != nil {
		t.Fatal(err)
	}
	if out.AcceptRate <= 0 || out.AcceptRate > 1 {
		t.Errorf("gated accept rate %.3f", out.AcceptRate)
	}
	if out.Gated.Raw.Beats != len(out.Beats) {
		t.Errorf("Gated.Raw covers %d of %d beats", out.Gated.Raw.Beats, len(out.Beats))
	}
	if out.Gated.Gated.Beats > out.Gated.Raw.Beats {
		t.Error("gated summary has more beats than raw")
	}
	st := d.NewStreamer(DefaultStreamConfig())
	if r := st.AcceptRate(); r != 1 {
		t.Errorf("fresh streamer accept rate %.3f, want 1", r)
	}
	pushChunks(st, acq.ECG, acq.Z, every(250))
	acc, total := st.AcceptCounts()
	if total == 0 || acc > total {
		t.Errorf("streamer counts %d/%d", acc, total)
	}
}

// The PMU folds the gate's acceptance rate into its policy.
func TestPMUDecideGated(t *testing.T) {
	p := DefaultPMU()
	if m := p.DecideGated(80, 0.9, 0.9); m != ModeContinuous {
		t.Errorf("healthy gated: %v", m)
	}
	if m := p.DecideGated(80, 0.9, 0.3); m != ModeEco {
		t.Errorf("low accept rate: %v", m)
	}
	if m := p.DecideGated(5, 0.9, 0.9); m != ModeSpotCheck {
		t.Errorf("critical battery: %v", m)
	}
	// Decide remains the acceptRate-agnostic form.
	if m := p.Decide(80, 0.9); m != ModeContinuous {
		t.Errorf("Decide regressed: %v", m)
	}
}
