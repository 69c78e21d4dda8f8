package quality

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/icg"
	"repro/internal/physio"
)

// gateFixture builds a synthetic raw impedance stream with R-peak
// delimited beats and their delineator-side analyses (shape + morph),
// including injected artifacts: a flatline dropout and a saturation
// burst, so the parity runs exercise every gate component.
type gateFixture struct {
	z      []float64
	rPeaks []int
	beats  []icg.BeatAnalysis
}

func makeFixture(t *testing.T) *gateFixture {
	t.Helper()
	const fs = 250
	rng := physio.NewRNG(99)
	beatLen := 200 // 0.8 s beats
	nBeats := 30
	n := beatLen*nBeats + 100
	f := &gateFixture{z: make([]float64, n)}
	// Base impedance with a pulsatile component and mild noise.
	for i := range f.z {
		tt := float64(i) / fs
		f.z[i] = 250 + 1.5*math.Sin(2*math.Pi*0.25*tt) + // respiration
			0.4*math.Sin(2*math.Pi*1.25*tt) + // cardiac-ish
			0.02*rng.NormFloat64()
	}
	// Flatline dropout across beats 9-10.
	for i := 9*beatLen + 50; i < 11*beatLen-50; i++ {
		f.z[i] = f.z[9*beatLen+49]
	}
	// Saturation burst across beats 19-20: clip hard against the
	// session extremes seen so far.
	lo, hi := f.z[0], f.z[0]
	for _, v := range f.z[:19*beatLen] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for i := 19*beatLen + 20; i < 21*beatLen-20; i++ {
		v := (f.z[i] - 250) * 40
		if v > 0 {
			f.z[i] = hi
		} else {
			f.z[i] = lo
		}
	}
	// R peaks and per-beat analyses. The conditioned "ICG" trace the
	// shapes come from is a synthetic consistent waveform with per-beat
	// noise; two beats fail delineation, and the artifact beats get a
	// noise-shaped signature.
	cond := make([]float64, n)
	for i := range cond {
		ph := float64(i%beatLen) / float64(beatLen)
		cond[i] = math.Exp(-40*(ph-0.3)*(ph-0.3)) - 0.4*math.Exp(-60*(ph-0.6)*(ph-0.6)) +
			0.05*rng.NormFloat64()
	}
	for b := 0; b <= nBeats; b++ {
		f.rPeaks = append(f.rPeaks, b*beatLen)
	}
	for b := 0; b+1 <= nBeats; b++ {
		lo, hi := f.rPeaks[b], f.rPeaks[b+1]
		ba := icg.BeatAnalysis{Quality: 0.9}
		switch {
		case b == 5 || b == 23: // delineation failures
			ba.Err = icg.ErrBeatTooShort
		default:
			ba.Points = &icg.BeatPoints{R: lo, B: lo + 30, C: lo + 60, X: lo + 110, CAmp: 1}
			ba.Shape, ba.ShapeOK = icg.BeatShapeOf(cond, lo, hi)
		}
		f.beats = append(f.beats, ba)
	}
	return f
}

// The batch form (BeatGate.Apply) and a chunked GateStream must produce
// bit-identical BeatSQI sequences for every chunking, including
// 1-sample pushes and regardless of how far the sample feed runs ahead
// of beat completion — the beat-level analogue of the PR-2 streaming
// parity law.
func TestGateBatchStreamParity(t *testing.T) {
	f := makeFixture(t)
	g := NewBeatGate(DefaultGate(250))
	ref := g.Apply(f.z, f.beats, f.rPeaks)
	if len(ref) != len(f.beats) {
		t.Fatalf("Apply returned %d results for %d beats", len(ref), len(f.beats))
	}
	nAcc, nRej := 0, 0
	for _, s := range ref {
		if s.Accepted {
			nAcc++
		} else {
			nRej++
		}
	}
	if nAcc < len(f.beats)/2 {
		t.Fatalf("fixture too hostile: only %d/%d accepted", nAcc, len(f.beats))
	}
	if nRej < 4 {
		t.Fatalf("fixture too benign: only %d rejected", nRej)
	}

	for _, chunk := range []int{1, 7, 64, 250, 1000} {
		// delay simulates the delineator's settling context: beat k is
		// scored only after rHi + delay samples were pushed (varying
		// per chunk size exercises feed-ahead invariance).
		for _, delay := range []int{0, 100, 625} {
			gs := newGateStream(g)
			var got []BeatSQI
			next := 0 // next beat to score
			pushed := 0
			score := func(flush bool) {
				for next < len(f.beats) {
					b := &f.beats[next]
					if b.Err != nil || b.Points == nil {
						gs.PushFailed()
						got = append(got, BeatSQI{})
						next++
						continue
					}
					if !flush && f.rPeaks[next+1]+delay > pushed {
						return
					}
					got = append(got, gs.PushBeat(nil, f.rPeaks[next], f.rPeaks[next+1], b))
					next++
				}
			}
			for pushed < len(f.z) {
				end := pushed + chunk
				if end > len(f.z) {
					end = len(f.z)
				}
				gs.ring.Append(f.z[pushed:end])
				pushed = end
				score(false)
			}
			score(true) // flush: everything is available now
			if len(got) != len(ref) {
				t.Fatalf("chunk %d delay %d: %d results vs %d", chunk, delay, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("chunk %d delay %d beat %d: %+v != %+v",
						chunk, delay, i, got[i], ref[i])
				}
			}
		}
	}
}

// The gate must reject the injected artifacts and accept the clean
// bulk, and a Reset stream must reproduce a fresh stream exactly.
func TestGateArtifactsAndReset(t *testing.T) {
	f := makeFixture(t)
	g := NewBeatGate(DefaultGate(250))
	sqis := g.Apply(f.z, f.beats, f.rPeaks)
	// The fully-flat beat and the fully-saturated beat must be rejected.
	if !sqis[10].Flat || sqis[10].Accepted {
		t.Errorf("dropout beat 10 not rejected as flat: %+v", sqis[10])
	}
	if sqis[20].Saturation < 0.5 || sqis[20].Accepted {
		t.Errorf("saturated beat 20 not rejected: %+v", sqis[20])
	}
	// Clean early beats accepted with sane component values.
	for _, i := range []int{1, 2, 3} {
		s := sqis[i]
		if !s.Accepted || s.Flat || s.Saturation > 0.1 || s.Score <= 0 {
			t.Errorf("clean beat %d rejected: %+v", i, s)
		}
	}
	gs := newGateStream(g)
	first := gs.Apply(nil, nil, f.z, f.beats, f.rPeaks)
	a1, t1 := gs.Counts()
	gs.Reset()
	second := gs.Apply(nil, nil, f.z, f.beats, f.rPeaks)
	a2, t2 := gs.Counts()
	if a1 != a2 || t1 != t2 {
		t.Fatalf("Reset changes counts: %d/%d vs %d/%d", a1, t1, a2, t2)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("beat %d differs after Reset", i)
		}
	}
	if gs.AcceptRate() <= 0 || gs.AcceptRate() > 1 {
		t.Errorf("accept rate %g", gs.AcceptRate())
	}
	if gs.TemplateSeeded() == 0 {
		t.Error("template never seeded")
	}
}

// Degenerate inputs must not panic and must reject deterministically.
func TestGateDegenerate(t *testing.T) {
	g := NewBeatGate(GateConfig{})
	gs := newGateStream(g)
	if r := gs.AcceptRate(); r != 1 {
		t.Errorf("empty stream accept rate %g, want 1", r)
	}
	// Beat scored with no samples at all.
	b := &icg.BeatAnalysis{Points: &icg.BeatPoints{}, Quality: 1}
	sqi := gs.PushBeat(nil, 0, 100, b)
	if sqi.Accepted {
		t.Error("beat without samples accepted")
	}
	// Beat whose history fell out of the ring.
	gs.Reset()
	huge := make([]float64, gs.cfg.HistorySamples*3)
	for i := range huge {
		huge[i] = float64(i % 17)
	}
	gs.ring.Append(huge)
	sqi = gs.PushBeat(nil, 0, 200, b)
	if sqi.Accepted {
		t.Error("beat with lost history accepted")
	}
}

// When the first scored beat arrives after the ring has wrapped (a
// long run of failed delineations), the running extremes must
// initialize from the first consumed sample — not fold in a phantom
// zero that would inflate the session span forever.
func TestGateExtremesAfterRingWrap(t *testing.T) {
	g := NewBeatGate(DefaultGate(250))
	gs := newGateStream(g)
	n := gs.cfg.HistorySamples * 2
	z := make([]float64, n)
	for i := range z {
		z[i] = 30 + 0.5*math.Sin(float64(i)/40) // all samples near 30 Ohm
	}
	gs.ring.Append(z)
	b := &icg.BeatAnalysis{Points: &icg.BeatPoints{}, Quality: 1}
	rLo := n - 300
	sqi := gs.PushBeat(nil, rLo, n-50, b)
	if gs.runLo < 29 {
		t.Fatalf("phantom zero folded into running extremes: runLo = %g", gs.runLo)
	}
	if sqi.Flat {
		t.Errorf("live beat flagged flat after ring wrap: %+v", sqi)
	}
}

// The accept-rate EWMA: starts at exactly 1 (the shared zero-beats
// contract), decays by RateBeta per rejected/failed beat, and Reset
// restores it.
func TestGateAcceptEWMAContract(t *testing.T) {
	g := NewBeatGate(DefaultGate(250))
	gs := newGateStream(g)
	if e := gs.AcceptEWMA(); e != 1 {
		t.Fatalf("fresh stream AcceptEWMA %g, want exactly 1", e)
	}
	gs.PushFailed()
	gs.PushFailed()
	want := 0.85 * 0.85 // two zero observations at beta 0.15
	if e := gs.AcceptEWMA(); math.Abs(e-want) > 1e-12 {
		t.Fatalf("AcceptEWMA after two failures %g, want %g", e, want)
	}
	if r := gs.AcceptRate(); r != 0 {
		t.Fatalf("cumulative AcceptRate %g, want 0", r)
	}
	gs.Reset()
	if e := gs.AcceptEWMA(); e != 1 {
		t.Fatalf("AcceptEWMA after Reset %g, want 1", e)
	}
	// Full recordings keep the EWMA in [0,1] and consistent with the
	// parity law (Apply drives the same stream, so no separate check).
	f := makeFixture(t)
	gs.Apply(nil, nil, f.z, f.beats, f.rPeaks)
	if e := gs.AcceptEWMA(); e < 0 || e > 1 {
		t.Fatalf("AcceptEWMA out of range: %g", e)
	}
}

// relockFixture builds a posture-change scenario: clean beats of shape
// A seed the template, a streak of failed beats drives the accept-rate
// EWMA below FastBelowRate, then beats of a related-but-different shape
// B arrive. Returns the gate stream state after the B beats were folded.
func runRelock(t *testing.T, cfg GateConfig) (gs *GateStream, shapeB [icg.ShapeBins]float64) {
	t.Helper()
	const fs = 250
	beatLen := 200
	nBeats := 18
	n := beatLen*nBeats + 100
	rng := physio.NewRNG(7)
	z := make([]float64, n)
	for i := range z {
		tt := float64(i) / fs
		z[i] = 250 + 1.5*math.Sin(2*math.Pi*0.25*tt) +
			0.4*math.Sin(2*math.Pi*1.25*tt) + 0.02*rng.NormFloat64()
	}
	// Conditioned traces: shape A for the first stretch, a correlated
	// but distinct shape B for the tail (same C bump, shifted X trough —
	// the correlation stays well above MinTemplateR so B beats are
	// accepted and can re-lock the ensemble).
	cond := make([]float64, n)
	for i := range cond {
		ph := float64(i%beatLen) / float64(beatLen)
		if i/beatLen < 14 {
			cond[i] = math.Exp(-40*(ph-0.3)*(ph-0.3)) - 0.4*math.Exp(-60*(ph-0.6)*(ph-0.6))
		} else {
			cond[i] = 0.8*math.Exp(-40*(ph-0.35)*(ph-0.35)) - 0.7*math.Exp(-30*(ph-0.75)*(ph-0.75))
		}
	}
	g := NewBeatGate(cfg)
	gs = newGateStream(g)
	gs.ring.Append(z)
	for b := 0; b+1 <= nBeats; b++ {
		lo, hi := b*beatLen, (b+1)*beatLen
		if b >= 6 && b < 14 {
			// Posture change: eight straight delineation failures.
			gs.PushFailed()
			continue
		}
		ba := &icg.BeatAnalysis{Quality: 0.9, Points: &icg.BeatPoints{R: lo, B: lo + 30, C: lo + 60, X: lo + 110, CAmp: 1}}
		ba.Shape, ba.ShapeOK = icg.BeatShapeOf(cond, lo, hi)
		if b == 14 {
			if e := gs.AcceptEWMA(); e >= g.Config().FastBelowRate {
				t.Fatalf("failure streak left EWMA at %g, not below FastBelowRate %g",
					e, g.Config().FastBelowRate)
			}
		}
		if b >= 14 {
			shapeB = ba.Shape
		}
		sqi := gs.PushBeat(nil, lo, hi, ba)
		if !sqi.Accepted {
			t.Fatalf("beat %d rejected (%+v); fixture must keep re-lock beats acceptable", b, sqi)
		}
	}
	return gs, shapeB
}

// Accept-rate-adaptive template weight: after a rejection streak, the
// default gate must re-lock its ensemble onto the new morphology
// measurably faster than a gate whose fast weight is pinned to the slow
// one, and both must converge back to the same slow-weight behavior as
// acceptance recovers (the EWMA climbs with each accepted beat).
func TestTemplateFastRelock(t *testing.T) {
	adaptive := DefaultGate(250)
	fixed := DefaultGate(250)
	fixed.TemplateFastAlpha = fixed.TemplateAlpha // adaptation off

	gsA, shapeB := runRelock(t, adaptive)
	gsF, _ := runRelock(t, fixed)

	rA := dsp.Pearson(gsA.template[:], shapeB[:])
	rF := dsp.Pearson(gsF.template[:], shapeB[:])
	if rA <= rF+0.01 {
		t.Fatalf("adaptive template correlation to the new shape %.4f, fixed %.4f: no faster re-lock", rA, rF)
	}
	// The accepted re-lock beats push the EWMA back up; once it clears
	// FastBelowRate the slow weight resumes (observable: the EWMA state
	// itself recovered).
	if e := gsA.AcceptEWMA(); e <= adaptive.FastBelowRate {
		t.Fatalf("EWMA did not recover after re-accepted beats: %g", e)
	}
}

// The gate config resolves zero fields to defaults and keeps explicit
// overrides.
func TestGateConfigDefaults(t *testing.T) {
	g := NewBeatGate(GateConfig{FS: 500, MinMorph: 0.3})
	cfg := g.Config()
	if cfg.MinMorph != 0.3 {
		t.Errorf("explicit MinMorph overridden: %g", cfg.MinMorph)
	}
	def := DefaultGate(500)
	if cfg.MaxSaturation != def.MaxSaturation || cfg.HistorySamples != def.HistorySamples {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

// newGateStream returns a stream over a fresh ring of the gate's own
// history, bounded like the batch form's.
func newGateStream(g *BeatGate) *GateStream {
	raw := dsp.NewRing(g.cfg.HistorySamples)
	return g.NewStream(raw, raw.Cap())
}
