package core

import (
	"repro/internal/dsp"
	"repro/internal/ecg"
	"repro/internal/event"
	"repro/internal/hemo"
	"repro/internal/icg"
	"repro/internal/quality"
)

// Streamer processes the two channels incrementally, the way streaming
// firmware must: every sample passes through the stateful conditioning
// chains exactly once (stage.go), the incremental Pan-Tompkins detector
// confirms R peaks as they appear, and the beat delineator analyzes
// each completed RR segment exactly once. Steady-state cost is O(1) per
// sample plus O(beat) per beat — it does not depend on any analysis
// window — and beats are emitted exactly once, in order, with absolute
// session TimeS.
//
// Output: Push and Flush deliver every completed beat as a KindBeat
// event to the sink armed with Emit (event.Discard until one is armed),
// with KindHealth floor transitions and KindMode governor flips in
// per-beat order.
//
// Reporting latency: a beat is emitted once its *closing* R peak is
// confirmed and its ICG refiltering context has arrived. For a beat the
// QRS detector confirms in the ordinary way that happens Latency()
// seconds after the closing R entered Push — the ICG side's 2.5 s
// settling context dominates at the paper's 250 Hz configuration. It is
// not a worst case: a beat closed by a search-back recovery, or by a
// peak deferred to the detector's threshold initialization, is emitted
// up to ecg.PTStream.MaxLag plus the ECG chain's lookahead after its
// closing R; zHorizon is that true bound. End-to-end, a beat is
// reported one RR interval plus that delay after its own R peak.
//
// Memory: the streamer holds only state that must survive between
// pushes — filter registers and history rings sized to the horizons
// their readers need. The impedance is held once, as the raw history
// that the quality gate, the base-impedance estimate and the beat
// delineator all read: the delineator replays its ICG from it per beat
// (icg.Delineator), so no ICG history is kept. Scratch is borrowed
// from the device's arena pool and returned: per push (the conditioning
// chains' inter-stage buffers, the detectors' working buffers, the
// pipeline's outputs, the gate's segment copies) and per beat (the
// delineator's refiltering and point detection).
type Streamer struct {
	dev *Device
	fs  float64

	ecgStream *ChainStream // baseline removal + zero-phase FIR
	pt        *ecg.PTStream
	// delin derives and conditions the ICG from raw and delineates
	// each beat.
	delin *icg.Delineator
	// gate is the per-beat quality gate state: the same
	// quality.BeatGate the batch Process applies, in streaming form,
	// scoring each beat from raw as its delineation completes.
	gate *quality.GateStream

	// Confirmed R peaks not yet consumed as beat boundaries: beat k is
	// delimited by rHist[beatIdx], rHist[beatIdx+1].
	rHist   []int
	beatIdx int

	// Contact-health signals (Health): the sample clock, the number of
	// beat attempts consumed (scored and failed), and the closing R of
	// the last one. All three advance deterministically with the input,
	// never with the chunking.
	nSamples    int
	nBeats      int
	lastBeatEnd int
	// beatBase/timeBase offset the *stamps* of emitted events after a
	// snapshot Restore: detector-local indices restart at zero (the DSP
	// state is rebuilt from new samples), but the session's beat count
	// and signal clock continue where the snapshot left them, so the
	// restored event stream and the governor's dwell axis stay
	// monotonic. Zero for a never-restored streamer; Reset clears them.
	beatBase int
	timeBase float64
	// healthFloor, when > 0, makes emit track the onset of the gate
	// EWMA sitting below it (belowSince, a sample index; -1 while at or
	// above). The onset is updated exactly where the EWMA changes — per
	// beat — so a recovery between two beats inside one push chunk is
	// never missed and the below-floor window is chunking-invariant.
	healthFloor float64
	belowSince  int

	// Typed event delivery (Emit): Push/Flush deliver beats, floor
	// transitions and governor mode changes to sink (event.Discard until
	// armed). The sink and session stamp are per-session state (Reset
	// disarms them); the armed governor, like healthFloor, is an
	// engine-lifetime policy that survives Reset with its mutable state
	// rewound.
	sink     event.Sink
	sess     uint64
	gov      *Governor
	lastMode PowerMode

	// raw is the raw impedance history, by absolute sample index: the
	// delineator replays -dZ/dt from it, the gate scores beats from it
	// and the causal base-impedance estimate sums it. Each beat reports
	// the mean impedance of the session up to its closing R peak: zSum
	// is the sequential sum of raw samples [0, zNext), folded forward to
	// each scored beat's closing R and, before an append would overwrite
	// them, over the samples about to leave the ring — the same
	// additions in the same order whatever the chunking. The ring
	// retains what its hungrier reader needs (rawN: the gate's or the
	// delineator's horizon). It stores float32 while every sample is on
	// the ADC grid and widens to float64 at the first sample that is not
	// (dsp.NewNarrowRing).
	raw   *dsp.Ring
	zSum  float64
	zNext int
	// zHorizon bounds how many samples past a beat's closing R the feed
	// has run when the beat is emitted (see NewStreamer); maxBeat is the
	// longest analyzable beat (StreamConfig.WindowSeconds) in samples;
	// rawN is raw's capacity before power-of-two rounding.
	zHorizon, maxBeat, rawN int

	body hemo.BodyConstants
}

// StreamConfig tunes the streamer.
type StreamConfig struct {
	// WindowSeconds bounds the analysis history of the streamer (the
	// longest analyzable RR segment; default 6 s). A beat with a longer
	// RR interval is a failed attempt, whatever the chunking.
	WindowSeconds float64
}

// DefaultStreamConfig returns the firmware defaults.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{WindowSeconds: 6}
}

func (sc StreamConfig) withDefaults() StreamConfig {
	if sc.WindowSeconds <= 0 {
		sc.WindowSeconds = 6
	}
	return sc
}

// defaultDetectFor builds the beat-detector configuration the device's
// engines share.
func defaultDetectFor(cfg Config, fs float64) icg.DetectConfig {
	dCfg := icg.DefaultDetect(fs)
	dCfg.XRule = cfg.XRule
	dCfg.BRule = cfg.BRule
	return dCfg
}

// NewStreamer builds the incremental streaming front end for the device.
func (d *Device) NewStreamer(sc StreamConfig) *Streamer {
	sc = sc.withDefaults()
	fs := d.cfg.FS
	bank := d.bank
	ptCfg := ecg.DefaultPT(fs)
	ptCfg.BandSOS = bank.ptSOS
	pt, err := ecg.NewPTStream(ptCfg)
	if err != nil {
		// The cached band-pass always exists; reaching here means the
		// device configuration was tampered with after construction.
		panic("core: streaming QRS detector: " + err.Error())
	}
	// Zero-phase conditioning cannot be streamed causally: the
	// delineator applies the Butterworth cascade forward-backward per
	// beat segment with a settling context, or, in the causal ablation,
	// the causal cascade (see icg.Delineator).
	causal := d.cfg.CausalFilters
	ctxSeconds := 0.0
	if !causal {
		ctxSeconds = icgCtxSeconds
	}
	ecgStream := bank.ecgChain.NewStream()
	// How far the feed can run past a beat's closing R before the beat
	// is emitted: the larger of the two sides' delays — the ECG chain's
	// lookahead plus the QRS detector's oldest possible emission (MaxLag:
	// a search-back recovery), or the ICG side's settling delay (as in
	// Latency) — plus the sub-chunk Push appends ahead of the pipeline.
	// Every history ring is sized from it, so a beat within the
	// WindowSeconds bound is still held when it is analyzed, whatever
	// the chunking.
	ecgSide := ecgStream.Lookahead() + pt.MaxLag()
	zHorizon := max(ecgSide, icgDelay(int(ctxSeconds*fs))) + streamSubChunk
	dCfg := defaultDetectFor(d.cfg, fs)
	s := &Streamer{
		belowSince: -1,
		dev:        d,
		fs:         fs,
		ecgStream:  ecgStream,
		pt:         pt,
		zHorizon:   zHorizon,
		maxBeat:    int(sc.WindowSeconds * fs),
		sink:       event.Discard,
		body:       d.cfg.Body,
	}
	// The raw ring serves the gate, which reads a beat of up to maxBeat
	// samples as late as zHorizon after its closing R (Z0 reads up to
	// that R), and the delineator, whose replay reaches further back.
	// The gate restarts its running extremes at the ring's start, so the
	// ring's size is part of the output.
	s.rawN = max(s.maxBeat+1+zHorizon,
		icg.RawHistory(dCfg, causal, ctxSeconds, sc.WindowSeconds, zHorizon))
	s.raw = dsp.NewNarrowRing(s.rawN)
	s.delin = icg.NewDelineator(dCfg, bank.icgLP, bank.icgHP, causal, ctxSeconds,
		sc.WindowSeconds, s.raw, &d.arenas)
	s.gate = d.gate.NewStream(s.raw, s.maxBeat)
	return s
}

// streamSubChunk bounds how many samples Push feeds through the pipeline
// per inner iteration, and so how far any history ring can run ahead of
// the reader that consumes it: with it, every ring size is a function of
// the configuration, never of the caller's chunk size.
const streamSubChunk = 128

// icgCtxSeconds is the per-beat refiltering context. The zero-phase
// cascade's slowest mode (the 0.5 Hz band-edge high-pass) decays by
// ~250x over 2.5 s, which empirically makes the per-beat conditioning
// bit-exact against the batch whole-recording filtfilt on the study
// subjects; shorter contexts leave occasional rule-boundary flips of
// the B/X points on single beats.
const icgCtxSeconds = 2.5

// Push appends simultaneously sampled ECG and impedance samples (equal
// lengths) and delivers the beats they complete, in order, as KindBeat
// events to the armed sink. A chunk of any size runs through the
// pipeline in streamSubChunk pieces, so the events do not depend on the
// chunking.
func (s *Streamer) Push(ecgSamples, zSamples []float64) {
	if len(ecgSamples) != len(zSamples) {
		panic("core: Streamer.Push requires equal-length channels")
	}
	a := s.dev.arenas.Get()
	for len(zSamples) > 0 {
		n := min(len(zSamples), streamSubChunk)
		a.Reset()
		s.push(a, ecgSamples[:n], zSamples[:n])
		ecgSamples, zSamples = ecgSamples[n:], zSamples[n:]
	}
	s.dev.arenas.Put(a)
}

// push runs one sub-chunk through the pipeline and emits the beats it
// completes. Every buffer it needs only while it runs comes from a,
// sized for the sub-chunk plus the producing chain's lookahead, so a
// warm arena serves the push without allocating.
func (s *Streamer) push(a *dsp.Arena, ecgSamples, zSamples []float64) {
	n := len(zSamples)
	s.nSamples += n
	s.foldZ(s.raw.N() + n - s.raw.Cap())
	s.raw.Append(zSamples)
	cond := s.ecgStream.Push(a, a.F64(n + s.ecgStream.Lookahead())[:0], ecgSamples)
	s.deliver(a, cond, false)
}

// Flush ends the session: the ECG chain drains its lookahead and the
// delineator derives the last sample with the batch edge treatment, the
// detector confirms its tail peaks, and the final completed beats are
// emitted.
func (s *Streamer) Flush() {
	a := s.dev.arenas.Get()
	cond := s.ecgStream.Flush(a, nil)
	s.deliver(a, cond, true)
	s.dev.arenas.Put(a)
}

// deliver feeds conditioned ECG samples to the QRS detector, advances
// the delineator over the raw samples appended since the last delivery,
// and emits the beats they complete; last ends the session. The
// detectors' outputs live in stack arrays unless a push completes more
// than they hold.
func (s *Streamer) deliver(a *dsp.Arena, cond []float64, last bool) {
	var rsArr [8]int
	var beatsArr [4]icg.BeatAnalysis
	rs := s.pt.Push(a, rsArr[:0], cond)
	if last {
		rs = s.pt.Flush(rs)
	}
	beats := s.delin.Advance(a, beatsArr[:0])
	for _, r := range rs {
		s.rHist = append(s.rHist, r)
		beats = s.delin.PushR(beats, r)
	}
	if last {
		beats = s.delin.Flush(a, beats)
	}
	s.emit(a, beats)
}

// foldZ advances the running impedance sum over raw samples up to (not
// including) index hi.
func (s *Streamer) foldZ(hi int) {
	for ; s.zNext < hi; s.zNext++ {
		s.zSum += s.raw.At(s.zNext)
	}
}

// emit converts completed beat analyses into hemodynamic parameters,
// each scored by the quality gate as it completes, and delivers them to
// the sink. Beat k corresponds to the R pair (rHist[beatIdx],
// rHist[beatIdx+1]); failed beats consume their pair without emitting,
// exactly once (the gate counts them against the acceptance rate).
//
// Event ordering law (pinned by the event tests): per beat attempt the
// sink receives at most one KindBeat, then at most one KindHealth
// (floor transition), then at most one KindMode (governor flip) — all
// stamped with the attempt index and the closing R's signal time, all
// pure functions of the samples pushed so far.
func (s *Streamer) emit(a *dsp.Arena, beats []icg.BeatAnalysis) {
	for i := range beats {
		b := &beats[i]
		rLo, rHi := s.rHist[s.beatIdx], s.rHist[s.beatIdx+1]
		s.beatIdx++
		s.nBeats++
		s.lastBeatEnd = rHi
		if b.Err != nil || b.Points == nil {
			s.gate.PushFailed()
			s.afterBeat(rHi)
			continue
		}
		// Causal base impedance: session mean up to the closing R. The
		// streamer serves the touch device, so it always applies the
		// hand-to-hand calibration.
		s.foldZ(rHi)
		z0 := s.zSum / float64(rHi)
		bp := hemo.FromPoints(b.Points, rHi, z0, s.fs, s.body, hemo.TouchCal())
		sqi := s.gate.PushBeat(a, rLo, rHi, b)
		bp.Quality = sqi.Score
		bp.Accepted = sqi.Accepted
		s.sink.Emit(event.Event{
			Kind:    event.KindBeat,
			Session: s.sess,
			Beat:    s.beatBase + s.nBeats,
			TimeS:   s.timeBase + float64(rHi)/s.fs,
			Params:  bp,
		})
		s.afterBeat(rHi)
	}
	// Compact the consumed R history so a long session stays O(1).
	if s.beatIdx > 256 {
		s.rHist = append(s.rHist[:0], s.rHist[s.beatIdx:]...)
		s.beatIdx = 0
	}
}

// afterBeat runs once per consumed beat attempt, after the gate state
// advanced: health-floor tracking (with its transition event) and the
// armed governor's per-beat step (with its mode-change event). These
// are the only points where the EWMA — and hence either decision — can
// change, so the resulting event stream is chunking-invariant.
func (s *Streamer) afterBeat(rHi int) {
	wasBelow := s.belowSince >= 0
	s.observeHealth(rHi)
	isBelow := s.belowSince >= 0
	tS := s.timeBase + float64(rHi)/s.fs
	if isBelow != wasBelow {
		s.sink.Emit(event.Event{
			Kind:       event.KindHealth,
			Session:    s.sess,
			Beat:       s.beatBase + s.nBeats,
			TimeS:      tS,
			AcceptEWMA: s.gate.AcceptEWMA(),
			Below:      isBelow,
			Floor:      s.healthFloor,
		})
	}
	if s.gov != nil {
		// Quality-only governor step: full battery and full yield, so
		// the mode is a pure function of the pushed samples (the gate's
		// per-beat accept EWMA). Battery-aware policies belong to the
		// caller, who has the battery state the stream does not.
		mode := s.gov.Decide(tS, 100, 1, s.gate.AcceptEWMA())
		if mode != s.lastMode {
			s.sink.Emit(event.Event{
				Kind:       event.KindMode,
				Session:    s.sess,
				Beat:       s.beatBase + s.nBeats,
				TimeS:      tS,
				AcceptEWMA: s.gov.AcceptEWMA(),
				Mode:       int(mode),
				PrevMode:   int(s.lastMode),
			})
			s.lastMode = mode
		}
	}
}

// Emit arms typed event delivery: subsequent Push and Flush calls
// deliver each completed beat as a KindBeat event to sink, along with
// KindHealth floor transitions (when SetHealthFloor armed a floor) and
// KindMode governor flips (when ArmGovernor armed a policy) — at the
// point they become true, in per-beat order, synchronously on the
// pushing goroutine. session stamps every event (0 for a bare
// streamer). A nil sink means event.Discard. The sink is per-session
// state: Reset disarms it.
func (s *Streamer) Emit(sink event.Sink, session uint64) {
	if sink == nil {
		sink = event.Discard
	}
	s.sink = sink
	s.sess = session
}

// ArmGovernor attaches a PMU policy whose hysteresis governor is
// stepped once per beat attempt on the gate's accept-rate EWMA (battery
// and yield pinned to their best case — the stream has no battery);
// quality-driven mode changes are delivered as KindMode events. Like the health floor, the policy is engine-lifetime
// configuration: it survives Reset with its mutable state rewound.
func (s *Streamer) ArmGovernor(p PMU) {
	s.gov = p.NewGovernor()
	s.lastMode = ModeContinuous
}

// Latency returns the delay in seconds from a beat's closing R peak
// entering Push to the beat being emitted when the QRS detector
// confirms that R in the ordinary way: the conditioning chains'
// lookahead plus the detector's confirmation-and-refinement lookahead
// on the ECG side, or the derivative's lookahead plus the delineator's
// settling context on the impedance side, whichever is larger. Both
// sides run on one clock: no stage displaces its output, so nothing is
// re-aligned. It is not a worst case: a beat whose closing R is
// recovered by search-back (or deferred to the detector's threshold
// initialization) is emitted up to ecg.PTStream.MaxLag plus the ECG
// chain's lookahead after it (zHorizon bounds that). End-to-end latency
// from the beat's own R peak adds one RR interval, since the beat is
// delimited by the next R. Health windows subtract this value from the
// signal clock.
func (s *Streamer) Latency() float64 {
	ecgSide := s.ecgStream.Lookahead() + s.pt.Lookahead()
	return float64(max(ecgSide, icgDelay(s.delin.Lookahead()))) / s.fs
}

// icgDelay is the ICG side's emission delay in samples: the central
// difference's lookahead of one sample plus the delineator's settling
// context of ctxN samples.
func icgDelay(ctxN int) int { return 1 + ctxN }

// AcceptRate returns the quality gate's acceptance rate over the beats
// processed so far — failed delineations count as rejected. Feed it to
// PMU.DecideGated: sustained low acceptance means bad contact is
// wasting processing energy.
//
// Zero-beats contract: before any beat has been processed the rate is
// exactly 1 — never 0 or NaN — matching quality.GateStream.AcceptRate,
// Output.AcceptRate and session.Session.AcceptRate. A fresh stream has
// shown no evidence of bad contact; the optimistic default keeps PMU
// policies in ModeContinuous through warmup.
func (s *Streamer) AcceptRate() float64 { return s.gate.AcceptRate() }

// SetHealthFloor arms per-beat tracking of the accept-rate EWMA
// sitting below floor (StreamHealth.RateBelowSinceS); 0 disarms it.
// The session engine sets it from HealthConfig.EvictBelowRate when a
// streamer enters its pool; it survives Reset (the floor is an
// engine-lifetime constant, not per-stream state). Changing the floor
// discards any tracked onset — it was measured against the old floor
// and would otherwise report a stale (or, after re-arming, instantly
// evictable) window.
func (s *Streamer) SetHealthFloor(floor float64) {
	s.healthFloor = floor
	s.belowSince = -1
}

// observeHealth runs once per consumed beat attempt, right after the
// gate state advanced: the only points where the EWMA can change, so
// the below-floor onset is exact regardless of chunking.
func (s *Streamer) observeHealth(rHi int) {
	if s.healthFloor <= 0 {
		return
	}
	if s.gate.AcceptEWMA() < s.healthFloor {
		if s.belowSince < 0 {
			s.belowSince = rHi
		}
	} else {
		s.belowSince = -1
	}
}

// StreamHealth is a snapshot of a streamer's contact-health signals.
// Every field is a pure function of the samples pushed so far — the
// EWMA advances per beat, the clocks per sample — so two streamers fed
// the same input under any chunking report identical snapshots at the
// same sample position (the gate parity law lifted to the health layer).
type StreamHealth struct {
	// AcceptEWMA is the per-beat accept-rate EWMA
	// (quality.GateStream.AcceptEWMA); 1 before any beat.
	AcceptEWMA float64
	// Beats counts beat attempts consumed so far, scored and failed.
	Beats int
	// Samples is the exact sample count pushed (SignalS is this divided
	// by the rate; consumers needing integers should use Samples rather
	// than re-deriving them from seconds, which truncates).
	Samples int
	// LastBeatS is the signal time (seconds) of the last consumed
	// beat's closing R peak; 0 before any beat.
	LastBeatS float64
	// SignalS is the total signal time pushed (seconds).
	SignalS float64
	// RateBelowSinceS is the signal time (seconds) of the beat at which
	// the EWMA last dropped below the armed health floor
	// (SetHealthFloor) and has stayed below since — updated per beat,
	// the only points where the EWMA changes, so an intra-chunk
	// recovery always resets it. -1 while at/above the floor or when no
	// floor is armed.
	RateBelowSinceS float64
}

// Health reports the streamer's contact-health signals; the session
// engine's eviction policy (session.HealthConfig) is built on it.
func (s *Streamer) Health() StreamHealth {
	h := StreamHealth{
		AcceptEWMA:      s.gate.AcceptEWMA(),
		Beats:           s.nBeats,
		Samples:         s.nSamples,
		LastBeatS:       float64(s.lastBeatEnd) / s.fs,
		SignalS:         float64(s.nSamples) / s.fs,
		RateBelowSinceS: -1,
	}
	if s.belowSince >= 0 {
		h.RateBelowSinceS = float64(s.belowSince) / s.fs
	}
	return h
}

// AcceptCounts returns how many beats the gate accepted out of all it
// saw.
func (s *Streamer) AcceptCounts() (accepted, total int) { return s.gate.Counts() }

// HeldBytes reports the bytes the streamer holds between pushes, summed
// over its components at their current storage widths: itself, the ECG
// chain, the QRS detector, the delineator, the gate, the raw impedance
// ring, the R-peak list and the armed governor. The device's shared
// designs and the borrowed scratch arenas are not counted.
func (s *Streamer) HeldBytes() int {
	n := dsp.SizeOf[Streamer]() + s.ecgStream.HeldBytes() + s.pt.HeldBytes() +
		s.delin.HeldBytes() + s.gate.HeldBytes() + s.raw.HeldBytes() + 8*cap(s.rHist)
	if s.gov != nil {
		n += dsp.SizeOf[Governor]()
	}
	return n
}

// Reset returns the streamer to its initial state, keeping every buffer
// and filter allocation, so pooled engines can reuse it across sessions.
func (s *Streamer) Reset() {
	s.ecgStream.Reset()
	s.pt.Reset()
	s.delin.Reset()
	s.gate.Reset()
	s.rHist = s.rHist[:0]
	s.beatIdx = 0
	s.nSamples = 0
	s.nBeats = 0
	s.lastBeatEnd = 0
	s.beatBase = 0
	s.timeBase = 0
	s.belowSince = -1 // healthFloor deliberately survives Reset
	s.raw.Reset()
	s.zSum = 0
	s.zNext = 0
	s.sink = event.Discard // the sink and stamp are per-session; the
	s.sess = 0             // armed governor POLICY survives, its state rewinds
	if s.gov != nil {
		s.gov.Reset()
		s.lastMode = ModeContinuous
	}
}
