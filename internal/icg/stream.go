package icg

import "repro/internal/dsp"

// Delineator is the incremental beat delineator: it reads the raw
// impedance stream from a ring its owner appends to, takes confirmed
// ECG R peaks as they appear, and runs the characteristic-point
// detector on each completed RR segment exactly once — the streaming
// counterpart of DetectAll, with O(beat) work per beat instead of
// re-analyzing a whole window per hop. The ICG it delineates is a pure
// function of that impedance, -dZ/dt (Section IV-B) through the
// Butterworth cascade (Section IV-A.2), so it keeps no ICG samples of
// its own: per beat it recomputes them from the raw ring.
//
// The paper's ICG conditioning is a zero-phase Butterworth cascade,
// which no causal stream can reproduce (a one-pass causal filter has
// |H| instead of |H|^2 and a dispersive phase that visibly moves the B
// and X points). The delineator therefore applies the cascade
// forward-backward over each beat segment plus a bounded context on
// both sides: the cascade's transients decay well inside the context,
// so the segment interior matches the batch whole-recording filtfilt,
// while the cost stays O(beat + context) per beat. The causal ablation
// (A5) instead conditions with the causal low-pass then high-pass and
// delineates each segment as it is, no refilter. ICG sample r is
// simultaneous with ECG sample r in both modes: no conditioning stage
// displaces its output.
//
// Checkpointed forward pass replayed from the raw ring: the forward
// pass of the high-pass (in A5, the whole causal cascade) runs once per
// sample as a persistent causal stream — zi-primed on an odd-reflected
// prefix of the stream head, the start filtfilt uses (A5 starts from
// the zero state, as its batch form does) — but only to advance its
// registers, which it saves every checkpointEvery samples.
// Per beat, the delineator recomputes -dZ/dt over its window from the
// raw ring, starting at the checkpoint at or below the window, and
// replays the cascade from the registers saved there: the same samples
// through the same recurrence, so the replayed forward pass is bit for
// bit the one a cache of it would hold. Only the *backward* pass
// remains, over [segLo-guard, segHi+ctxN): its transient enters at the
// right edge and dies inside the trailing context, so the segment
// interior matches; the leading context is not needed at all, because
// the forward pass has no left-edge transient.
//
// Per-beat scratch (the replayed window, the refiltering passes and
// the point detector's intermediates) is borrowed from a shared
// ArenaPool for one beat and returned after it: nothing a beat's
// analysis returns aliases the arena, so the delineator holds no
// scratch between beats. The forward pass's per-push buffers come from
// the arena Advance is lent, so it holds none between pushes either.
type Delineator struct {
	cfg     DetectConfig
	fs      float64
	lp, hp  dsp.SOS
	causal  bool // ablation A5: the causal cascade conditions, no refilter
	ctxN    int
	maxBeat int // longest analyzable RR interval, samples
	back    int // samples before its segment a beat's window starts (horizons)

	raw    *dsp.Ring      // the owner's raw impedance; read, never written
	casc   dsp.SOS        // the forward cascade: hp, or lp then hp in A5
	fwd    *dsp.SOSStream // its persistent registers
	pad    int            // filtfilt's reflect-pad length for hp; 0 in A5
	warmed bool           // forward pass started (reflected prefix consumed)
	ended  bool           // Flush derived the stream's last sample
	n      int            // -dZ/dt samples the forward pass has consumed
	// ck is the checkpoint ring: slot k%ckN holds the registers (z1
	// then z2) before sample k*checkpointEvery. It spans the raw ring,
	// so a window the raw ring still holds has its checkpoint.
	ck  []float64
	ckN int

	scratch *dsp.ArenaPool // lends each beat its replay and refilter scratch
	lastR   int            // previous confirmed R peak (ECG clock), -1 before the first
	queue   []beatJob      // R pairs waiting for their ICG samples
}

type beatJob struct {
	rLo, rHi int
}

// checkpointEvery is how many samples apart the forward pass saves its
// registers: a beat's replay starts up to checkpointEvery-1 samples
// before its window, and the checkpoint ring holds one register set
// per checkpointEvery samples of raw history.
const checkpointEvery = 128

// NewDelineator builds a delineator reading raw, the impedance ring its
// caller appends to (size it with RawHistory). lp and hp are the
// pre-designed conditioning cascades: applied zero-phase per beat, or,
// with causal (ablation A5), causally in that order with no refilter.
// ctxSeconds is the transient-settling context after the segment
// (unused in A5). maxBeatSeconds bounds the longest analyzable RR
// interval: longer "beats" are reported as failures rather than
// stalling the queue, a decision made from the beat's length alone.
// scratch lends each beat its scratch arena.
func NewDelineator(cfg DetectConfig, lp, hp dsp.SOS, causal bool, ctxSeconds, maxBeatSeconds float64, raw *dsp.Ring, scratch *dsp.ArenaPool) *Delineator {
	if lp == nil || hp == nil {
		panic("icg: NewDelineator needs both conditioning cascades")
	}
	fs, ctxN, maxBeat, back := horizons(cfg, causal, ctxSeconds, maxBeatSeconds)
	d := &Delineator{
		cfg:     cfg,
		fs:      fs,
		lp:      lp,
		hp:      hp,
		causal:  causal,
		ctxN:    ctxN,
		maxBeat: maxBeat,
		back:    back,
		raw:     raw,
		casc:    hp,
		scratch: scratch,
		lastR:   -1,
	}
	if causal {
		d.casc = append(append(dsp.SOS(nil), lp...), hp...)
	} else {
		d.pad = 3 * (2*len(hp) + 1) // FiltFilt's reflect-pad formula
	}
	d.fwd = dsp.NewSOSStream(d.casc, !causal)
	d.ckN = raw.Cap()/checkpointEvery + 1
	d.ck = make([]float64, d.ckN*2*len(d.casc))
	return d
}

// RawHistory returns how many raw impedance samples a delineator built
// with these arguments reads behind the newest one, when the feed runs
// up to lead samples past a beat's closing R before the beat is
// analyzed — for a streamer, how late its R peaks are confirmed plus
// one push. A ring of that size holds the window of every beat within
// the maxBeatSeconds bound, so each is analyzed whatever the chunking:
// the longest beat, the samples before its segment the window starts,
// the trailing context or the lead, the replay back to a checkpoint,
// and the derivative's neighbour on each side.
func RawHistory(cfg DetectConfig, causal bool, ctxSeconds, maxBeatSeconds float64, lead int) int {
	_, ctxN, maxBeat, back := horizons(cfg, causal, ctxSeconds, maxBeatSeconds)
	return maxBeat + back + max(lead, ctxN) + checkpointEvery + 2
}

// horizons resolves the delineator's sample rate and its horizons in
// samples: the settling context, the longest analyzable beat, and how
// many samples before its segment a beat's window starts — the
// low-pass guard when refiltering (the forward pass has no left-edge
// transient), none in A5.
func horizons(cfg DetectConfig, causal bool, ctxSeconds, maxBeatSeconds float64) (fs float64, ctxN, maxBeat, back int) {
	fs = cfg.FS
	if fs <= 0 {
		fs = 250
	}
	if maxBeatSeconds <= 0 {
		maxBeatSeconds = 3
	}
	if !causal {
		ctxN = int(max(ctxSeconds, 0) * fs)
		// The low-pass settling guard (~0.3 s): dozens of time
		// constants of a 20 Hz Butterworth.
		back = int(0.3 * fs)
	}
	return fs, ctxN, int(maxBeatSeconds * fs), back
}

// MaxReplay returns the longest window a beat replays, in samples: the
// longest beat, the samples before its segment the window starts, the
// trailing context, and the way back to a checkpoint.
func (d *Delineator) MaxReplay() int {
	return d.maxBeat + d.back + d.ctxN + checkpointEvery
}

// Lookahead returns how many ICG samples past a beat's closing R peak
// must arrive before the beat can be analyzed (the refiltering context).
func (d *Delineator) Lookahead() int { return d.ctxN }

// Advance runs the forward pass over the raw samples appended to the
// ring since the last call and returns the beats they complete,
// appended to out. Its per-push scratch is checked out of a (nil
// allocates). Call it after every append: the ring must not lap the
// forward pass.
func (d *Delineator) Advance(a *dsp.Arena, out []BeatAnalysis) []BeatAnalysis {
	// The central difference at the newest sample waits for the next.
	d.forward(a, d.raw.N()-1)
	return d.drain(out, false)
}

// forward advances the forward pass over -dZ/dt samples [d.n, end),
// saving its registers at every multiple of checkpointEvery.
func (d *Delineator) forward(a *dsp.Arena, end int) {
	if d.n >= end {
		return
	}
	if max(d.n-1, 0) < d.raw.Start() {
		panic("icg: the raw ring lapped the delineator's forward pass")
	}
	if !d.warmed && !d.warmUp(a, end) {
		return
	}
	x := d.deriv(a, d.n, end)
	y := a.F64(len(x))[:0] // the filtered samples are not kept
	for len(x) > 0 {
		m := min(len(x), checkpointEvery-d.n%checkpointEvery)
		d.fwd.Push(nil, y, x[:m])
		x = x[m:]
		d.n += m
		if d.n%checkpointEvery == 0 {
			d.save(d.n / checkpointEvery)
		}
	}
}

// warmUp starts the forward pass and saves checkpoint 0; it reports
// false while the zero-phase pass still waits for its prefix. A5
// starts from the zero state. The zero-phase pass starts on an
// odd-reflected prefix of the stream head, once its pad+1 samples are
// derivable — the same left-edge treatment, zi priming and therefore
// the same startup transient as the batch filtfilt forward pass, so
// the forward signal matches the batch one over the whole session, not
// just in steady state. At the end of a stream shorter than that the
// pad is clamped the way FiltFilt clamps on short inputs; checkpoint 0
// is the state after the prefix. (A one-sample stream's prefix is
// empty; its one -dZ/dt sample is 0, so priming on it leaves the zero
// registers checkpoint 0 holds.)
func (d *Delineator) warmUp(a *dsp.Arena, end int) bool {
	if !d.causal {
		pad := d.pad
		if d.ended {
			pad = min(pad, end-1)
		}
		if pad >= end {
			return false
		}
		x := d.deriv(a, 0, pad+1)
		in := a.F64(pad)
		for i := pad; i >= 1; i-- {
			in[pad-i] = 2*x[0] - x[i]
		}
		d.fwd.Push(nil, a.F64(pad)[:0], in)
	}
	d.warmed = true
	d.save(0)
	return true
}

// save stores the forward pass's registers as checkpoint k.
func (d *Delineator) save(k int) {
	z1, z2 := d.fwd.State()
	ck := d.checkpoint(k)
	copy(ck, z1)
	copy(ck[len(z1):], z2)
}

// checkpoint returns the slot of checkpoint k: z1 then z2.
func (d *Delineator) checkpoint(k int) []float64 {
	w := 2 * len(d.casc)
	i := k % d.ckN * w
	return d.ck[i : i+w]
}

// deriv recomputes -dZ/dt over [lo, hi) from one copy out of the raw
// ring, with dsp.DerivStream's expressions at gain -1: the forward
// difference at the stream head, central differences inside, and, once
// Flush has ended the stream, the one-sided difference at its last
// sample. The result is checked out of a.
func (d *Delineator) deriv(a *dsp.Arena, lo, hi int) []float64 {
	n := d.raw.N()
	zlo := max(lo-1, 0)
	z := d.raw.CopyTo(a.F64(min(hi+1, n) - zlo)[:0], zlo, min(hi+1, n))
	out := a.F64(hi - lo)
	fs := d.fs
	i, t := 0, lo
	if t == 0 && t < hi {
		out[0] = 0 // a one-sample stream's
		if n > 1 {
			out[0] = -(z[1] - z[0]) * fs
		}
		i, t = 1, 1
	}
	inner := hi
	if d.ended && hi == n {
		inner = n - 1
	}
	if t < inner {
		half := -fs / 2
		o := out[i : i+inner-t]
		zp, zm := z[t+1-zlo:][:len(o)], z[t-1-zlo:][:len(o)]
		for j := range o {
			o[j] = (zp[j] - zm[j]) * half
		}
		i, t = i+len(o), inner
	}
	if t < hi {
		out[i] = -(z[t-zlo] - z[t-1-zlo]) * fs
	}
	return out
}

// replay recomputes the forward pass over [lo, hi): -dZ/dt from the
// checkpoint at or below lo, through the cascade, each checkpoint
// stride from the registers saved at its start — every checkpoint from
// there to hi is saved, and the strides are independent recurrences
// the cascade runs side by side. The result is checked out of a.
func (d *Delineator) replay(a *dsp.Arena, lo, hi int) []float64 {
	c := lo - lo%checkpointEvery
	x := d.deriv(a, c, hi)
	w := 2 * len(d.casc)
	spans := (hi - c + checkpointEvery - 1) / checkpointEvery
	st := a.F64(spans * w)
	for j := range spans {
		copy(st[j*w:], d.checkpoint(c/checkpointEvery+j))
	}
	d.casc.FilterSpans(x, checkpointEvery, st)
	return x[lo-c:]
}

// held reports whether the raw ring still holds what a window starting
// at lo replays from: the checkpoint at or below lo and the sample
// before it. The checkpoint ring spans the raw ring, so the raw ring
// decides.
func (d *Delineator) held(lo int) bool {
	c := lo - lo%checkpointEvery
	return max(c-1, 0) >= d.raw.Start()
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

// Flush ends the stream: the last raw sample gets its one-sided
// derivative, and the queued beats are analyzed against whatever
// samples arrived, clamping the trailing context like the batch filter
// clamps at the recording's end; a lends the scratch Advance would.
func (d *Delineator) Flush(a *dsp.Arena, out []BeatAnalysis) []BeatAnalysis {
	d.ended = true
	d.forward(a, d.raw.N())
	return d.drain(out, true)
}

// drain runs the detector on every queued RR pair whose ICG samples
// (segment plus trailing context) the forward pass has reached.
func (d *Delineator) drain(out []BeatAnalysis, last bool) []BeatAnalysis {
	done := 0
	for _, j := range d.queue {
		hi := j.rHi + d.ctxN
		if hi > d.n {
			if !last {
				break
			}
			hi = d.n
		}
		segLo, segHi := j.rLo, min(j.rHi, hi) // absolute segment bounds
		lo := max(segLo-d.back, 0)
		// A beat longer than the bound (or a starved stream) is reported
		// as unanalyzable rather than stalling the queue. The decision
		// is the beat's own: within the bound, the raw ring holds the
		// window whenever the feed keeps to the lead it was sized for
		// (RawHistory); the ring check only guards a feed that runs
		// further ahead.
		if j.rHi-j.rLo > d.maxBeat || segLo >= segHi || !d.held(lo) {
			out = append(out, BeatAnalysis{Err: ErrBeatTooShort})
			done++
			continue
		}
		a := d.scratch.Get()
		out = append(out, d.analyze(a, lo, hi, segLo, segHi))
		d.scratch.Put(a)
		done++
	}
	if done > 0 {
		d.queue = append(d.queue[:0], d.queue[done:]...)
	}
	return out
}

// analyze delineates one beat from the window [lo, hi), whose segment
// is [segLo, segHi), with scratch drawn from a. The result holds no
// reference into a.
func (d *Delineator) analyze(a *dsp.Arena, lo, hi, segLo, segHi int) BeatAnalysis {
	buf := d.replay(a, lo, hi)
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
	// Back onto the stream clock: conditioned index relLo is sample segLo.
	off := segLo - relLo
	pts.R += off
	pts.B += off
	pts.C += off
	pts.X += off
	pts.X0 += off
	pts.B0 += float64(off)
	return ba
}

// refilter completes the zero-phase conditioning of the window (no-op
// in A5, whose forward pass is the whole conditioning). It returns the
// conditioned buffer and the offset of buf[0] within it (the low-pass
// runs over a trimmed sub-span).
//
// The slow filter — the band-edge high-pass, whose transients motivate
// the long context — runs its backward pass first over the whole
// window (its forward pass is the replayed window); the low-pass's
// transients die within tens of milliseconds, so it runs over just the
// segment plus a short guard. The order swap relative to the batch
// lp-then-hp is exact for LTI cascades up to edge transients, which the
// contexts absorb.
func (d *Delineator) refilter(a *dsp.Arena, buf []float64, segLo, segHi int) ([]float64, int) {
	if d.causal {
		return buf, 0
	}
	// buf already holds the forward pass; only the backward pass
	// remains. Its zi-primed transient enters at the right edge and is
	// absorbed by the trailing context before the segment.
	dsp.Reverse(buf)
	d.hp.FilterZiInPlace(buf)
	dsp.Reverse(buf)
	// The low-pass runs over the segment plus its guard, d.back.
	lo, hi := max(segLo-d.back, 0), min(segHi+d.back, len(buf))
	return d.lp.FiltFiltWith(a, buf[lo:hi]), lo
}

// Pending returns how many confirmed beats are still waiting for ICG
// samples.
func (d *Delineator) Pending() int { return len(d.queue) }

// HeldBytes reports the bytes the delineator holds between pushes:
// itself, its forward-pass registers and checkpoints, and the capacity
// of its beat queue (and, in A5, the concatenated cascade). The raw
// ring is its owner's and is not counted.
func (d *Delineator) HeldBytes() int {
	n := dsp.SizeOf[Delineator]() + d.fwd.HeldBytes() + 8*len(d.ck) +
		dsp.SizeOf[beatJob]()*cap(d.queue)
	if d.causal {
		n += dsp.SizeOf[dsp.Biquad]() * len(d.casc)
	}
	return n
}

// Reset returns the delineator to its initial state, keeping buffers.
// The raw ring is its owner's to reset.
func (d *Delineator) Reset() {
	d.fwd.Reset()
	d.warmed = false
	d.ended = false
	d.n = 0
	d.lastR = -1
	d.queue = d.queue[:0]
}
