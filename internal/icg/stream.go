package icg

import "repro/internal/dsp"

// Delineator is the incremental beat delineator: it consumes the
// streamed -dZ/dt samples and confirmed ECG R peaks as they appear, and
// runs the characteristic-point detector on each completed RR segment
// exactly once — the streaming counterpart of DetectAll, with O(beat)
// work per beat instead of re-analyzing a whole window per hop.
//
// The paper's ICG conditioning is a zero-phase Butterworth cascade,
// which no causal stream can reproduce (a one-pass causal filter has
// |H| instead of |H|^2 and a dispersive phase that visibly moves the B
// and X points). The delineator therefore applies the cascade
// forward-backward over each beat segment plus a bounded context on
// both sides: the cascade's transients decay well inside the context,
// so the segment interior matches the batch whole-recording filtfilt,
// while the cost stays O(beat + context) per beat. Pass nil filters to
// skip refiltering (the causal-ablation chain conditions the stream
// itself, sample for sample equal to its batch form).
//
// align shifts the ICG clock: the delineator treats ICG sample r+align
// as simultaneous with ECG sample r (non-zero only when the stream
// comes from an uncompensated causal chain).
//
// Rolling filtfilt cache: the dominant per-beat cost used to be the
// high-pass forward-backward pass over segment + 2*ctxN samples, where
// consecutive beats' windows overlap by almost the full context — the
// same samples were forward-filtered again for every beat. The default
// mode instead runs the high-pass *forward* pass exactly once per
// sample, as a persistent causal stream (zi-primed at the stream start,
// the same steady-state initialization filtfilt uses), and caches its
// output in the history ring. Per beat only the *backward* pass remains,
// over [segLo-guard, segHi+ctxN): its transient enters at the right
// edge and dies inside the trailing context, so the segment interior
// matches; the leading context is not needed at all, because the cached
// forward pass has no left-edge transient. The result is the same
// zero-phase |H|^2 conditioning at roughly a third of the
// biquad-samples per beat.
//
// Per-beat scratch (the segment copy, the refiltering passes and the
// point detector's intermediates) is borrowed from a shared ArenaPool
// for one beat and returned after it: nothing a beat's analysis returns
// aliases the arena, so the delineator holds no scratch between beats.
type Delineator struct {
	cfg    DetectConfig
	lp, hp dsp.SOS
	align  int
	ctxN   int
	fwd    *dsp.SOSStream // persistent causal hp forward pass (rolling mode)
	pad    int            // filtfilt's reflect-pad length for hp
	warmed bool           // forward pass started (reflected prefix consumed)
	warm   []float64      // samples buffered before the forward pass starts

	icg     *dsp.Ring      // raw -dZ/dt, or its cached hp-forward pass in rolling mode
	scratch *dsp.ArenaPool // lends each beat its refiltering scratch
	pushBuf []float64      // forward-pass input scratch per push, reused
	fltBuf  []float64      // forward-pass output scratch per push, reused
	lastR   int            // previous confirmed R peak (ECG clock), -1 before the first
	queue   []beatJob      // R pairs waiting for their ICG samples
}

type beatJob struct {
	rLo, rHi int
}

// NewDelineator builds a delineator. lp and hp (either may be nil) are
// the pre-designed conditioning cascades applied zero-phase per beat;
// ctxSeconds is the transient-settling context on each side of the
// segment. maxBeatSeconds bounds the longest analyzable RR interval;
// longer "beats" are reported as failures rather than stalling the
// queue. scratch lends each beat its scratch arena.
func NewDelineator(cfg DetectConfig, lp, hp dsp.SOS, align int, ctxSeconds, maxBeatSeconds float64, scratch *dsp.ArenaPool) *Delineator {
	fs := cfg.FS
	if fs <= 0 {
		fs = 250
	}
	if maxBeatSeconds <= 0 {
		maxBeatSeconds = 3
	}
	if ctxSeconds < 0 {
		ctxSeconds = 0
	}
	ctxN := 0
	if lp != nil || hp != nil {
		ctxN = int(ctxSeconds * fs)
	}
	n := int(maxBeatSeconds*fs) + 2*ctxN + align + 2
	d := &Delineator{
		cfg:     cfg,
		lp:      lp,
		hp:      hp,
		align:   align,
		ctxN:    ctxN,
		icg:     dsp.NewRing(n),
		scratch: scratch,
		lastR:   -1,
	}
	if hp != nil {
		d.fwd = dsp.NewSOSStream(hp, 0, true)
		d.pad = 3 * (2*len(hp) + 1) // FiltFilt's reflect-pad formula
	}
	return d
}

// rolling reports whether the forward-pass cache is active (a
// high-pass cascade is configured).
func (d *Delineator) rolling() bool { return d.hp != nil }

// Lookahead returns how many ICG samples past a beat's closing R peak
// must arrive before the beat can be analyzed (the refiltering context).
func (d *Delineator) Lookahead() int { return d.ctxN }

// PushICG appends newly streamed ICG samples (on the filter-output
// clock) and returns the beats they complete, appended to out. In
// rolling mode each sample passes through the persistent high-pass
// forward filter exactly once here, and the ring caches the result.
func (d *Delineator) PushICG(out []BeatAnalysis, x []float64) []BeatAnalysis {
	if d.rolling() {
		d.pushRolling(x, false)
	} else {
		d.icg.Append(x)
	}
	return d.drain(out, false)
}

// pushRolling feeds samples through the persistent forward filter into
// the ring. The first pad+1 samples are buffered so the filter can start
// on an odd-reflected prefix of the stream head — the same left-edge
// treatment, zi priming and therefore the same startup transient as the
// batch filtfilt forward pass; the cached forward signal then matches
// the batch one over the whole session, not just in steady state. last
// clamps the pad for a sub-pad-length session the way FiltFilt clamps
// on short inputs.
func (d *Delineator) pushRolling(x []float64, last bool) {
	if d.warmed {
		if len(x) > 0 {
			d.fltBuf = d.fwd.Push(d.fltBuf[:0], x)
			d.icg.Append(d.fltBuf)
		}
		return
	}
	d.warm = append(d.warm, x...)
	if len(d.warm) == 0 {
		return
	}
	pad := d.pad
	if last && pad >= len(d.warm) {
		pad = len(d.warm) - 1
	}
	if pad >= len(d.warm) {
		return // still buffering the reflected prefix
	}
	d.pushBuf = d.pushBuf[:0]
	for i := pad; i >= 1; i-- {
		d.pushBuf = append(d.pushBuf, 2*d.warm[0]-d.warm[i])
	}
	d.pushBuf = append(d.pushBuf, d.warm...)
	d.fltBuf = d.fwd.Push(d.fltBuf[:0], d.pushBuf)
	d.icg.Append(d.fltBuf[pad:])
	d.warmed = true
	d.warm = d.warm[:0]
}

// PushR registers the next confirmed R peak (ECG clock) and returns any
// beats it completes, appended to out. R peaks must arrive in strictly
// increasing order; a non-increasing peak is ignored (defense in depth —
// the incremental QRS detector already guarantees ordering).
func (d *Delineator) PushR(out []BeatAnalysis, r int) []BeatAnalysis {
	if r <= d.lastR {
		return d.drain(out, false)
	}
	if d.lastR >= 0 {
		d.queue = append(d.queue, beatJob{rLo: d.lastR, rHi: r})
	}
	d.lastR = r
	return d.drain(out, false)
}

// Flush analyzes the queued beats against whatever ICG samples arrived
// (end of session), clamping the trailing context like the batch
// filter clamps at the recording's end.
func (d *Delineator) Flush(out []BeatAnalysis) []BeatAnalysis {
	if d.rolling() && !d.warmed {
		d.pushRolling(nil, true) // drain a sub-pad-length session's buffer
	}
	return d.drain(out, true)
}

// drain runs the detector on every queued RR pair whose aligned ICG
// samples (segment plus trailing context) are available.
func (d *Delineator) drain(out []BeatAnalysis, last bool) []BeatAnalysis {
	done := 0
	for _, j := range d.queue {
		hi := j.rHi + d.align + d.ctxN
		if hi > d.icg.N() {
			if !last {
				break
			}
			hi = d.icg.N()
		}
		segLo := j.rLo + d.align // absolute segment bounds on the ICG clock
		segHi := j.rHi + d.align
		var lo int
		if d.rolling() {
			// The cached forward pass has no left-edge transient, so the
			// window starts at the low-pass guard instead of the full
			// high-pass context.
			lo = segLo - lpGuardSamples(d.cfg.FS)
		} else {
			lo = j.rLo + d.align - d.ctxN
		}
		if lo < 0 {
			lo = 0
		}
		if segHi > hi {
			segHi = hi
		}
		if lo < d.icg.Start() || segLo >= segHi {
			// Beat longer than the history ring (or starved stream):
			// report it as unanalyzable rather than stalling the queue.
			out = append(out, BeatAnalysis{Err: ErrBeatTooShort})
			done++
			continue
		}
		a := d.scratch.Get()
		out = append(out, d.analyze(a, j.rLo, lo, hi, segLo, segHi))
		d.scratch.Put(a)
		done++
	}
	if done > 0 {
		d.queue = append(d.queue[:0], d.queue[done:]...)
	}
	return out
}

// analyze delineates one beat from the ring window [lo, hi), whose
// segment is [segLo, segHi) on the ICG clock, with scratch drawn from a.
// The result holds no reference into a.
func (d *Delineator) analyze(a *dsp.Arena, rLo, lo, hi, segLo, segHi int) BeatAnalysis {
	buf := d.icg.CopyTo(a.F64(hi - lo)[:0], lo, hi)
	cond, trim := d.refilter(a, buf, segLo-lo, segHi-lo)
	relLo := segLo - lo - trim
	pts, err := DetectBeatWith(a, cond, relLo, segHi-lo-trim, -1, d.cfg)
	if err != nil {
		return BeatAnalysis{Err: err}
	}
	// Morphology quality and shape signature on the conditioned
	// segment, before the points leave its clock — the same calls the
	// batch detector makes on the whole-recording conditioned signal.
	ba := BeatAnalysis{Points: pts}
	ba.Quality = MorphScore(cond, pts, segHi-lo-trim, d.cfg.FS)
	ba.Shape, ba.ShapeOK = BeatShapeOf(cond, relLo, segHi-lo-trim)
	// Back onto the ECG clock: conditioned index relLo == ECG index rLo.
	off := rLo - relLo
	pts.R += off
	pts.B += off
	pts.C += off
	pts.X += off
	pts.X0 += off
	pts.B0 += float64(off)
	return ba
}

// refilter completes the zero-phase conditioning of the window (no-op
// when the stream is already conditioned). It returns the conditioned
// buffer and the offset of buf[0] within it (the low-pass runs over a
// trimmed sub-span).
//
// The slow filter — the band-edge high-pass, whose transients motivate
// the long context — runs its backward pass first over the whole
// window (its forward pass is the cached ring content); the low-pass's
// transients die within tens of milliseconds, so it runs over just the
// segment plus a short guard. The order swap relative to the batch
// lp-then-hp is exact for LTI cascades up to edge transients, which the
// contexts absorb.
func (d *Delineator) refilter(a *dsp.Arena, buf []float64, segLo, segHi int) ([]float64, int) {
	if d.rolling() {
		// buf already holds the cached forward pass; only the backward
		// pass remains. Its zi-primed transient enters at the right edge
		// and is absorbed by the trailing context before the segment.
		dsp.Reverse(buf)
		d.hp.FilterZiInPlace(buf)
		dsp.Reverse(buf)
	}
	if d.lp == nil {
		return buf, 0
	}
	guard := lpGuardSamples(d.cfg.FS)
	lo := segLo - guard
	if lo < 0 {
		lo = 0
	}
	hi := segHi + guard
	if hi > len(buf) {
		hi = len(buf)
	}
	return d.lp.FiltFiltWith(a, buf[lo:hi]), lo
}

// lpGuardSamples is the low-pass settling guard (~0.3 s): dozens of
// time constants of a 20 Hz Butterworth.
func lpGuardSamples(fs float64) int {
	if fs <= 0 {
		fs = 250
	}
	return int(0.3 * fs)
}

// Pending returns how many confirmed beats are still waiting for ICG
// samples.
func (d *Delineator) Pending() int { return len(d.queue) }

// Reset returns the delineator to its initial state, keeping buffers.
func (d *Delineator) Reset() {
	d.icg.Reset()
	if d.fwd != nil {
		d.fwd.Reset()
	}
	d.warmed = false
	d.warm = d.warm[:0]
	d.lastR = -1
	d.queue = d.queue[:0]
}
