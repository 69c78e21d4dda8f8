package quality

import (
	"repro/internal/dsp"
	"repro/internal/icg"
)

// Per-beat signal-quality gating. The window-level indices in quality.go
// grade a whole acquisition; the gate below grades every delineated beat
// as it completes, so corrupted beats (lost finger contact, motion, ADC
// rail saturation) are flagged before they reach the hemodynamic
// estimates. It follows the Stage/StageStream contract of the
// conditioning chains (internal/core/stage.go), lifted from the sample
// level to the beat level:
//
//   - BeatGate is immutable after construction and safe for concurrent
//     use; it holds only thresholds and sizing.
//   - All mutable state — the running session extremes, the ensemble
//     template — lives in the GateStream returned by NewStream, a
//     single-goroutine object with Reset. The raw-sample history it
//     scores beats from is a ring the caller appends to and shares: the
//     streaming engine keeps one raw impedance history per stream for
//     the gate and its base-impedance estimate alike.
//   - Parity is exact by construction: the batch form (Apply) drives a
//     GateStream over the same per-beat inputs in the same order, and a
//     streamed gate scores each beat from the same absolute raw-sample
//     window [rLo, rHi) and the same running extremes over [0, rHi), so
//     every chunking — including 1-sample pushes — produces
//     bit-identical BeatSQI sequences.
//
// The gate combines two signal domains per beat: the raw impedance
// segment (rail saturation, flatline dropouts, second-difference SNR —
// artifacts that conditioning would mask) and the conditioned-beat
// signature the delineator emits (icg.BeatAnalysis.Shape, correlated
// against a running ensemble template; icg.BeatAnalysis.Quality, the
// morphology score of the detected points).

// GateConfig parameterizes the per-beat quality gate. The zero value of
// any field falls back to the default of DefaultGate.
type GateConfig struct {
	FS float64

	// TemplateAlpha is the EWMA weight a newly accepted beat gets when
	// folded into the ensemble template.
	TemplateAlpha float64
	// TemplateFastAlpha is the template weight used instead of
	// TemplateAlpha while the running accept-rate EWMA sits below
	// FastBelowRate: after a posture change rejects a streak of beats,
	// the first re-accepted morphologies fold in fast so the ensemble
	// re-locks onto the new shape, then the weight reverts to
	// TemplateAlpha once acceptance recovers. Setting it equal to
	// TemplateAlpha disables the adaptation.
	TemplateFastAlpha float64
	// FastBelowRate is the accept-rate EWMA threshold below which
	// TemplateFastAlpha applies.
	FastBelowRate float64
	// RateBeta is the per-beat weight of the accept-rate EWMA (every
	// scored or failed beat contributes its 0/1 acceptance); the EWMA
	// starts at 1, matching the optimistic zero-beats AcceptRate
	// contract.
	RateBeta float64
	// TemplateWarmup is how many accepted beats must seed the template
	// before the correlation check starts rejecting.
	TemplateWarmup int
	// MinTemplateR rejects beats whose shape correlation against the
	// ensemble template falls below it (after warmup). Touch-channel
	// beats are noisy even when usable, so the default only rejects
	// beats that stopped resembling the ensemble at all.
	MinTemplateR float64

	// MaxSaturation rejects beats with more than this fraction of raw
	// samples pinned within RailTolFrac of the running session extremes
	// (ADC rail hits).
	MaxSaturation float64
	// RailTolFrac is the rail tolerance as a fraction of the running
	// session span.
	RailTolFrac float64
	// FlatFrac flags a beat as flat (lost contact) when its raw span is
	// below this fraction of the running session span.
	FlatFrac float64
	// MaxFlatRun flags a beat as flat when its longest run of exactly
	// equal consecutive raw samples exceeds this fraction of the beat —
	// a partial dropout (sample-and-hold) inside an otherwise live
	// beat. Clean quantized channels dither every 1-2 samples, so the
	// default has two orders of magnitude of margin.
	MaxFlatRun float64
	// MinSNR rejects beats whose endpoint-detrended raw variance over
	// second-difference noise variance falls below it (linear ratio).
	MinSNR float64
	// MinMorph rejects beats whose delineator morphology score
	// (icg.MorphScore) falls below it.
	MinMorph float64
}

// DefaultGate returns the gate configuration used by the device:
// lenient thresholds that keep clean touch recordings near-fully
// accepted while rejecting flatline dropouts, rail saturation and
// template-breaking motion artifacts.
func DefaultGate(fs float64) GateConfig {
	if fs <= 0 {
		fs = 250
	}
	return GateConfig{
		FS:                fs,
		TemplateAlpha:     0.15,
		TemplateFastAlpha: 0.5,
		FastBelowRate:     0.35,
		RateBeta:          0.15,
		TemplateWarmup:    4,
		MinTemplateR:      0.05,
		MaxSaturation:     0.2,
		RailTolFrac:       1e-3,
		FlatFrac:          1e-3,
		MaxFlatRun:        0.25,
		MinSNR:            0.5,
		MinMorph:          0.1,
	}
}

// withDefaults fills zero fields from DefaultGate.
func (c GateConfig) withDefaults() GateConfig {
	d := DefaultGate(c.FS)
	if c.TemplateAlpha <= 0 {
		c.TemplateAlpha = d.TemplateAlpha
	}
	if c.TemplateFastAlpha <= 0 {
		c.TemplateFastAlpha = d.TemplateFastAlpha
	}
	if c.FastBelowRate == 0 {
		c.FastBelowRate = d.FastBelowRate
	}
	if c.RateBeta <= 0 {
		c.RateBeta = d.RateBeta
	}
	if c.TemplateWarmup <= 0 {
		c.TemplateWarmup = d.TemplateWarmup
	}
	if c.MinTemplateR == 0 {
		c.MinTemplateR = d.MinTemplateR
	}
	if c.MaxSaturation == 0 {
		c.MaxSaturation = d.MaxSaturation
	}
	if c.RailTolFrac == 0 {
		c.RailTolFrac = d.RailTolFrac
	}
	if c.FlatFrac == 0 {
		c.FlatFrac = d.FlatFrac
	}
	if c.MaxFlatRun == 0 {
		c.MaxFlatRun = d.MaxFlatRun
	}
	if c.MinSNR == 0 {
		c.MinSNR = d.MinSNR
	}
	if c.MinMorph == 0 {
		c.MinMorph = d.MinMorph
	}
	c.FS = d.FS
	return c
}

// BeatSQI is the per-beat quality assessment.
type BeatSQI struct {
	TemplateR  float64 // shape correlation against the running ensemble (1 before warmup)
	Saturation float64 // fraction of raw samples pinned at the running rails
	SNR        float64 // detrended raw variance / second-difference noise variance
	Morph      float64 // delineator morphology score (icg.MorphScore)
	FlatRun    float64 // longest constant run as a fraction of the beat
	Flat       bool    // span collapsed or dropout run too long (lost contact)
	Score      float64 // composite quality in [0,1]
	Accepted   bool    // passes every gate threshold
}

// BeatGate is the per-beat quality gate shared by the batch and
// streaming engines. It is immutable after construction and safe for
// concurrent Apply calls; per-stream state lives in GateStream.
type BeatGate struct {
	cfg GateConfig
}

// NewBeatGate builds a gate, filling zero config fields with defaults.
func NewBeatGate(cfg GateConfig) *BeatGate {
	return &BeatGate{cfg: cfg.withDefaults()}
}

// Config returns the resolved gate configuration.
func (g *BeatGate) Config() GateConfig { return g.cfg }

// NewStream returns fresh streaming gate state that scores beats from
// raw, the raw impedance history by absolute sample index. The caller
// appends every sample to raw before scoring the beats it completes,
// and sizes raw to hold a beat of maxBeat samples for as long after its
// closing R as the beat can be scored; longer beats are unanalyzable
// (see PushBeat). raw may be shared.
func (g *BeatGate) NewStream(raw *dsp.Ring, maxBeat int) *GateStream {
	return &GateStream{
		cfg:      g.cfg,
		ring:     raw,
		maxBeat:  maxBeat,
		rateEWMA: 1,
	}
}

// Apply gates a whole recording: it drives a fresh GateStream over the
// raw impedance channel and the delineated beats in order, so the batch
// and streaming engines share one gate definition and match exactly.
// The returned slice is aligned with beats; failed beats get a zero
// BeatSQI. rPeaks must delimit the beats (len(beats)+1 peaks).
func (g *BeatGate) Apply(z []float64, beats []icg.BeatAnalysis, rPeaks []int) []BeatSQI {
	return g.NewBatchStream().Apply(nil, make([]BeatSQI, 0, len(beats)), z, beats, rPeaks)
}

// batchHistorySeconds sizes the raw-sample ring of a batch gate stream
// (rounded up to a power of two). GateStream.Apply feeds the ring
// exactly up to each beat's closing R, so it only has to hold the beat.
const batchHistorySeconds = 16

// NewBatchStream returns fresh gate state over a ring of its own, for
// whole-recording scoring with GateStream.Apply: batchHistorySeconds of
// raw history, and any beat the ring holds is analyzable. Apply and the
// device's pooled batch streams both build their state here.
func (g *BeatGate) NewBatchStream() *GateStream {
	raw := dsp.NewRing(int(batchHistorySeconds * g.cfg.FS))
	return g.NewStream(raw, raw.Cap())
}

// GateStream carries the gate's per-stream state across pushes: the
// running session extremes and the ensemble template, scored against
// the raw-sample history ring it reads. It is a single-goroutine
// object; Reset returns it to the initial state keeping allocations, so
// pooled engines can recycle it.
type GateStream struct {
	cfg     GateConfig
	ring    *dsp.Ring // raw impedance samples by absolute index (the caller appends)
	maxBeat int       // longest analyzable beat, samples

	// Running session extremes over [0, cursor); the cursor advances to
	// each beat's closing R when the beat is scored, never past it, so
	// the rails a beat sees are a function of the beat alone, not of
	// how far the sample feed has run ahead (chunking invariance).
	// haveExt guards the first consumed sample — the cursor may start
	// past 0 when the ring wrapped before the first scored beat.
	cursor       int
	runLo, runHi float64
	haveExt      bool

	template [icg.ShapeBins]float64 // running ensemble (EWMA of accepted shapes)
	tmplN    int                    // accepted beats folded in so far

	accepted, total int
	// rateEWMA tracks recent acceptance (RateBeta per beat, scored and
	// failed alike, starting at 1). It adapts the template weight and is
	// the chunking-invariant health signal the serving layer evicts on:
	// it advances only when a beat is pushed, never on raw samples.
	rateEWMA float64
}

// PushFailed records a beat that failed delineation: it counts against
// the acceptance rate but is not scored and does not touch the template.
func (gs *GateStream) PushFailed() {
	gs.total++
	gs.observe(false)
}

// observe folds one beat's acceptance into the running accept-rate EWMA.
func (gs *GateStream) observe(accepted bool) {
	x := 0.0
	if accepted {
		x = 1
	}
	b := gs.cfg.RateBeta
	gs.rateEWMA = (1-b)*gs.rateEWMA + b*x
}

// PushBeat scores the beat delimited by [rLo, rHi) on the raw sample
// clock, carrying the delineator's morphology score and conditioned
// shape signature in b, updates the running ensemble and acceptance
// counters, and returns the assessment. Beats must be pushed in order
// of non-decreasing rHi. A beat longer than the stream's maxBeat is
// flagged Flat without being read, so the decision never depends on
// how far the sample feed ran ahead of it. The beat's segment copy is drawn from a (nil
// allocates); the assessment holds no reference into it.
func (gs *GateStream) PushBeat(a *dsp.Arena, rLo, rHi int, b *icg.BeatAnalysis) BeatSQI {
	gs.total++
	c := &gs.cfg

	// Advance the running extremes exactly to the beat's closing R.
	if hi := gs.ring.N(); rHi > hi {
		rHi = hi
	}
	if gs.cursor < gs.ring.Start() {
		gs.cursor = gs.ring.Start()
	}
	for ; gs.cursor < rHi; gs.cursor++ {
		v := gs.ring.At(gs.cursor)
		if !gs.haveExt {
			gs.runLo, gs.runHi = v, v
			gs.haveExt = true
			continue
		}
		if v < gs.runLo {
			gs.runLo = v
		}
		if v > gs.runHi {
			gs.runHi = v
		}
	}
	span := gs.runHi - gs.runLo

	if rHi-rLo > gs.maxBeat || rHi-rLo < 4 || rLo < gs.ring.Start() {
		// Beat longer than the bound, or degenerate segment:
		// unanalyzable, reject deterministically. (History lost to a
		// feed running further ahead than the ring was sized for is
		// rejected the same way.)
		return gs.record(BeatSQI{Flat: true})
	}
	var seg []float64
	if a != nil {
		seg = a.F64(rHi - rLo)[:0]
	}
	seg = gs.ring.CopyTo(seg, rLo, rHi)

	sqi := BeatSQI{Morph: b.Quality, TemplateR: 1}

	segLo, segHi := dsp.MinMax(seg)
	maxRun, run := 1, 1
	for i := 1; i < len(seg); i++ {
		if seg[i] == seg[i-1] {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 1
		}
	}
	sqi.FlatRun = float64(maxRun) / float64(len(seg))
	sqi.Flat = segHi-segLo <= c.FlatFrac*span || sqi.FlatRun > c.MaxFlatRun
	if span > 0 {
		tol := c.RailTolFrac * span
		n := 0
		for _, v := range seg {
			if v >= gs.runHi-tol || v <= gs.runLo+tol {
				n++
			}
		}
		sqi.Saturation = float64(n) / float64(len(seg))
	}
	sqi.SNR = beatSNR(seg)

	// Shape correlation against the running ensemble. The template is
	// seeded and updated only by accepted beats, so one artifact cannot
	// poison the ensemble.
	if gs.tmplN > 0 && b.ShapeOK {
		sqi.TemplateR = dsp.Pearson(b.Shape[:], gs.template[:])
	}

	sqi.Accepted = !sqi.Flat &&
		sqi.Saturation <= c.MaxSaturation &&
		sqi.SNR >= c.MinSNR &&
		sqi.Morph >= c.MinMorph &&
		(gs.tmplN < c.TemplateWarmup || sqi.TemplateR >= c.MinTemplateR)

	r := sqi.TemplateR
	if gs.tmplN == 0 {
		r = 1
	}
	sqi.Score = dsp.Clamp(sqi.Morph, 0, 1) * dsp.Clamp(r, 0, 1) * (1 - dsp.Clamp(sqi.Saturation, 0, 1))
	if sqi.Flat {
		sqi.Score = 0
	}

	if sqi.Accepted && b.ShapeOK {
		// Accept-rate-adaptive weight: while recent acceptance (the EWMA
		// as of the previous beat) is poor, a re-accepted morphology
		// folds in fast so the ensemble re-locks after posture changes;
		// once acceptance recovers the slow weight resumes.
		a := c.TemplateAlpha
		if gs.rateEWMA < c.FastBelowRate {
			a = c.TemplateFastAlpha
		}
		if gs.tmplN == 0 {
			a = 1
		}
		for i := range gs.template {
			gs.template[i] = (1-a)*gs.template[i] + a*b.Shape[i]
		}
		gs.tmplN++
	}
	return gs.record(sqi)
}

// record updates the acceptance counters and the accept-rate EWMA.
func (gs *GateStream) record(sqi BeatSQI) BeatSQI {
	if sqi.Accepted {
		gs.accepted++
	}
	gs.observe(sqi.Accepted)
	return sqi
}

// Apply drives the stream over a complete recording: raw samples are
// appended to its history exactly up to each beat's closing R before
// the beat is scored, reproducing the streaming schedule. Results are appended to dst; the
// per-beat segment copies are drawn from a (nil allocates).
func (gs *GateStream) Apply(a *dsp.Arena, dst []BeatSQI, z []float64, beats []icg.BeatAnalysis, rPeaks []int) []BeatSQI {
	pushed := 0
	for i := range beats {
		b := &beats[i]
		if i+1 < len(rPeaks) {
			if need := min(rPeaks[i+1], len(z)); need > pushed {
				gs.ring.Append(z[pushed:need])
				pushed = need
			}
		}
		if b.Err != nil || b.Points == nil || i+1 >= len(rPeaks) {
			gs.PushFailed()
			dst = append(dst, BeatSQI{})
			continue
		}
		dst = append(dst, gs.PushBeat(a, rPeaks[i], rPeaks[i+1], b))
	}
	return dst
}

// Counts returns how many beats were accepted out of all pushed
// (scored and failed).
func (gs *GateStream) Counts() (accepted, total int) { return gs.accepted, gs.total }

// AcceptRate returns the fraction of pushed beats accepted so far.
//
// Zero-beats contract (pinned across every layer — GateStream,
// core.Streamer.AcceptRate, core.Output.AcceptRate and
// session.Session.AcceptRate all share it): before any beat has been
// pushed the rate is exactly 1, never 0 or NaN. A stream that has seen
// no beats has shown no evidence of bad contact, and the optimistic
// default keeps PMU policies in ModeContinuous during warmup.
func (gs *GateStream) AcceptRate() float64 {
	if gs.total == 0 {
		return 1
	}
	return float64(gs.accepted) / float64(gs.total)
}

// AcceptEWMA returns the running accept-rate EWMA: RateBeta-weighted
// over every pushed beat (scored and failed), 1 before any beat (the
// same zero-beats contract as AcceptRate). Unlike the cumulative
// AcceptRate it forgets, so it tracks the *current* contact; it
// advances only on beats, never on raw samples, so it is
// chunking-invariant per the gate parity law and safe to build serving
// decisions (session eviction, PMU hysteresis) on.
func (gs *GateStream) AcceptEWMA() float64 { return gs.rateEWMA }

// TemplateSeeded reports how many accepted beats shaped the ensemble.
func (gs *GateStream) TemplateSeeded() int { return gs.tmplN }

// GateSnapshot is the compact durable state of a GateStream: the
// ensemble template, the acceptance tallies and the running session
// extremes — everything needed to rehydrate the warm re-lock path
// after a restart, and nothing sample-sized. The raw-history ring is
// deliberately not captured: a restored stream rebuilds its rails from
// the snapshot extremes and scores new beats against the restored
// template immediately.
type GateSnapshot struct {
	Template        [icg.ShapeBins]float64
	TemplateN       int
	Accepted, Total int
	AcceptEWMA      float64
	RunLo, RunHi    float64
	HaveExt         bool
}

// Snapshot captures the stream's durable state.
func (gs *GateStream) Snapshot() GateSnapshot {
	return GateSnapshot{
		Template:   gs.template,
		TemplateN:  gs.tmplN,
		Accepted:   gs.accepted,
		Total:      gs.total,
		AcceptEWMA: gs.rateEWMA,
		RunLo:      gs.runLo,
		RunHi:      gs.runHi,
		HaveExt:    gs.haveExt,
	}
}

// Restore rehydrates a fresh (or Reset) stream from a snapshot. The
// sample cursor restarts at zero — the restored extremes seed the
// rails, and the new sample feed extends them from there.
func (gs *GateStream) Restore(s GateSnapshot) {
	gs.template = s.Template
	gs.tmplN = s.TemplateN
	gs.accepted, gs.total = s.Accepted, s.Total
	gs.rateEWMA = s.AcceptEWMA
	gs.runLo, gs.runHi = s.RunLo, s.RunHi
	gs.haveExt = s.HaveExt
	gs.cursor = 0
}

// HeldBytes reports the bytes the stream holds: itself, its template
// included. The raw ring it reads is its owner's and is not counted.
func (gs *GateStream) HeldBytes() int { return dsp.SizeOf[GateStream]() }

// Reset returns the stream, and the history it reads, to the initial
// state, keeping allocations.
func (gs *GateStream) Reset() {
	gs.ring.Reset()
	gs.cursor = 0
	gs.runLo, gs.runHi = 0, 0
	gs.haveExt = false
	gs.template = [icg.ShapeBins]float64{}
	gs.tmplN = 0
	gs.accepted, gs.total = 0, 0
	gs.rateEWMA = 1
}

// beatSNR is the per-beat noise measure: endpoint-detrended signal
// variance over the variance of the second difference. Smooth
// physiological beats score high; EMG-band contact noise collapses the
// ratio.
func beatSNR(seg []float64) float64 {
	n := len(seg)
	if n < 4 {
		return 0
	}
	// Detrend against the straight line through the endpoints, so the
	// baseline slope within the beat does not count as signal.
	a := seg[0]
	slope := (seg[n-1] - seg[0]) / float64(n-1)
	var sig float64
	for i, v := range seg {
		d := v - (a + slope*float64(i))
		sig += d * d
	}
	sig /= float64(n)
	var noise float64
	for i := 2; i < n; i++ {
		d := seg[i] - 2*seg[i-1] + seg[i-2]
		noise += d * d
	}
	noise /= float64(n - 2)
	if noise <= 0 {
		if sig <= 0 {
			return 0
		}
		return 1e12
	}
	return sig / noise
}
