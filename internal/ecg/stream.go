package ecg

import (
	"errors"

	"repro/internal/dsp"
)

// Streaming forms of the ECG conditioning and detection stages. The
// batch pipeline recomputes morphology, filtering and Pan-Tompkins over
// the whole rolling window on every hop; these carry their state across
// pushes so each sample is conditioned exactly once.

// BaselineStream is the streaming form of RemoveBaseline: the
// morphological opening-then-closing baseline estimate subtracted from
// the (delayed) input. Its output matches RemoveBaseline sample for
// sample, including the window clamping at both stream edges. The
// four cascaded erosion/dilation stages need l1-1 + l2-1 samples of
// lookahead (about 0.5 s at the paper's configuration).
type BaselineStream struct {
	stages [4]*dsp.MovExtStream
	raw    *dsp.Ring
	out    int // conditioned samples emitted
	la     int
	sub    int // samples per pass through the cascade (see NewBaselineStream)
}

// NewBaselineStream builds the streaming baseline remover for cfg. Its
// raw ring stores 16-bit codes on the grid lsb (the ECG ADC's
// quantization step) while the samples stay on it (dsp.NewCodeRing),
// never packed: the device's ECG, front-end noise included, passes a
// byte of its LSB from sample to sample too often for packing to pay
// (a packed ring steps down within 0.2 s on every study subject); its
// four sliding extrema store float32 while the samples are
// float32-exact.
// The naive-engine flag only selects the cost model of the batch path;
// both engines compute the same sliding extrema, so the stream always
// uses the O(1) block kernel (dsp.MovExtStream).
func NewBaselineStream(cfg BaselineConfig, lsb float64) *BaselineStream {
	l1, l2 := cfg.elementLengths()
	h1l, h1r := (l1-1)/2, l1/2
	h2l, h2r := (l2-1)/2, l2/2
	s := &BaselineStream{}
	// Opening: erosion then dilation with the transposed element.
	s.stages[0] = dsp.NewMovExtStream(h1l, h1r, true)
	s.stages[1] = dsp.NewMovExtStream(h1r, h1l, false)
	// Closing: dilation then erosion with the transposed element.
	s.stages[2] = dsp.NewMovExtStream(h2l, h2r, false)
	s.stages[3] = dsp.NewMovExtStream(h2r, h2l, true)
	for _, st := range s.stages {
		s.la += st.Lookahead()
	}
	// The raw ring is read up to the cascade's lookahead (plus two
	// samples of margin) behind the newest sample, and Push appends a
	// sub-chunk ahead of that: the ring is the smallest power of two
	// that holds the horizon plus baselineMinSub, and the sub-chunk is
	// whatever it holds past the horizon, so the ring has no slack.
	horizon := s.la + 2
	s.raw = dsp.NewCodeRing(dsp.NextPow2(horizon+baselineMinSub), lsb)
	s.sub = s.raw.Cap() - horizon
	return s
}

// The ECG streams append to their history rings in sub-chunks, ahead
// of the rings' readers. Each stream's raw-input ring holds its read
// horizon plus at least its minimum sub-chunk, rounded up to a power of
// two, and its sub-chunk takes up the rounding; PTStream's band-passed
// ring holds its own, shorter horizon plus that sub-chunk. So no ring's
// size depends on how large a chunk the caller pushes:
//
//   - baselineMinSub: the four-stage cascade runs once per sub-chunk
//     and pays per pass (each stage's call and state reload), so its
//     passes take at least the 128 samples core.Streamer feeds per push
//     (130 at the paper's 250 Hz);
//   - ptMinSub: PTStream band-passes the whole chunk at once, so its
//     sub-chunk only paces two ring appends ahead of its per-sample
//     detection loop, and 16 samples do (16 at 250 Hz, where the
//     conditioned ring's horizon is 112).
const (
	baselineMinSub = 128
	ptMinSub       = 16
)

// Lookahead returns the total pipeline latency in samples.
func (s *BaselineStream) Lookahead() int { return s.la }

// Push consumes raw ECG samples and appends the baseline-removed
// samples whose estimate is complete. Two scratch buffers from ar
// ping-pong through the cascade: each stage fully consumes its input
// before the buffer is rewritten two stages later; a third takes the
// raw span each pass subtracts from. They are sized for one sub-chunk
// plus the cascade's lookahead (no stage emits more per push), so a
// warm arena serves every push without allocating.
func (s *BaselineStream) Push(ar *dsp.Arena, dst, x []float64) []float64 {
	n := min(len(x), s.sub) + s.la
	b1, b2, b3 := ar.F64(n)[:0], ar.F64(n)[:0], ar.F64(n)
	for len(x) > 0 {
		sub := x
		if len(sub) > s.sub {
			sub = x[:s.sub]
		}
		x = x[len(sub):]
		s.raw.Append(sub)
		a := s.stages[0].Push(ar, b1[:0], sub)
		b := s.stages[1].Push(ar, b2[:0], a)
		a = s.stages[2].Push(ar, a[:0], b)
		b = s.stages[3].Push(ar, b[:0], a)
		dst = s.subtract(dst, b, b3)
	}
	return dst
}

// Flush drains the morphology cascade (end-of-stream window clamping)
// and appends the final conditioned samples. Each stage's tail ping-
// pongs through the later stages between two scratch buffers from ar,
// and a third takes the raw span it is subtracted from, all sized for
// the cascade's lookahead: no stage holds more outputs than its own
// lookahead, nor emits more per push than it takes in.
func (s *BaselineStream) Flush(ar *dsp.Arena, dst []float64) []float64 {
	b1, b2, b3 := ar.F64(s.la)[:0], ar.F64(s.la)[:0], ar.F64(s.la)
	for i := range s.stages {
		est := s.stages[i].Flush(ar, b1[:0])
		for j := i + 1; j < len(s.stages); j++ {
			b1, b2 = b2, b1
			est = s.stages[j].Push(ar, b1[:0], est)
		}
		dst = s.subtract(dst, est, b3)
	}
	return dst
}

// subtract emits raw[t] - baseline[t] for each newly available estimate,
// copying the raw span out of the ring once, into scratch (whose
// capacity holds est).
func (s *BaselineStream) subtract(dst, est, scratch []float64) []float64 {
	raw := s.raw.CopyTo(scratch[:0], s.out, s.out+len(est))
	for i, b := range est {
		dst = append(dst, raw[i]-b)
	}
	s.out += len(est)
	return dst
}

// Reset returns the stream to its initial state.
func (s *BaselineStream) Reset() {
	for _, st := range s.stages {
		st.Reset()
	}
	s.raw.Reset()
	s.out = 0
}

// Narrow reports whether the raw-ECG ring still stores ADC codes and
// the four sliding extrema still store float32: true while every
// sample pushed is on the lsb grid relative to the first
// (dsp.NewCodeRing) and float32-exact (dsp.MovExtStream), as every
// code of the device's ECG ADC is.
func (s *BaselineStream) Narrow() bool {
	narrow := s.raw.Narrow()
	for _, st := range s.stages {
		narrow = narrow && st.Narrow()
	}
	return narrow
}

// HeldBytes reports the bytes the stream holds between pushes: itself,
// its raw ring and its four sliding extrema at their current widths.
func (s *BaselineStream) HeldBytes() int {
	n := dsp.SizeOf[BaselineStream]() + s.raw.HeldBytes()
	for _, st := range s.stages {
		n += st.HeldBytes()
	}
	return n
}

// PTStream is the incremental Pan-Tompkins QRS detector: the band-pass,
// five-point derivative, squaring and moving-window integration run as
// per-sample state machines, and the dual adaptive thresholds, T-wave
// discrimination, search-back and R-refinement operate on the finalized
// candidate peaks. It replicates the stages of DetectQRS on the
// conditioned stream, so the R peaks it emits agree with the batch
// detector away from pathological peak chains.
//
// Every sample-window measurement a candidate needs — its max slope on
// the band-passed signal and its refined R position on the conditioned
// input — is taken once, when the candidate is finalized one refractory
// period after it occurred (the windows have arrived by then), and
// carried with it. The threshold logic, including the deferred
// processing of the first two seconds' candidates and search-back over
// the last six seconds, reads only those carried values, so the sample
// rings cover just the refractory period plus the measurement windows
// (see History), not the search-back horizon.
//
// Each value is held once. The squared derivative leaving the
// integration window is recomputed from the band-passed ring, one span
// copy per sub-chunk, rather than kept in a window of its own; the
// candidates finalized before the thresholds initialize are replayed
// from the search-back history, which holds exactly them then (no peak
// is pruned before sbWindow >= initN samples have arrived).
//
// R peaks are emitted exactly once, in strictly increasing order, as
// soon as they are confirmed (accepted or recovered by search-back):
// about RefractMs after the integrated-signal peak.
type PTStream struct {
	fs          float64
	band        *dsp.SOSStream
	searchBack  bool // PTConfig.SearchBack
	refineOnRaw bool // PTConfig.RefineOnRaw

	// Five-point derivative + squaring + moving integration state.
	d0, d1, d2, d3 float64 // last four band-passed samples
	win            int
	acc            float64
	prevGi         float64 // integrated value of the previous sample

	// Short histories for the slope and refinement measurements taken
	// when a candidate is finalized, and for the squared derivative
	// leaving the integration window.
	filt *dsp.Ring // band-passed
	raw  *dsp.Ring // conditioned input
	sub  int       // samples Push appends to the rings ahead of the detection loop

	n int // samples consumed

	// Candidate detection on the integrated signal (plateau-aware local
	// maxima with refractory suppression, the streaming counterpart of
	// dsp.FindPeaks).
	candStart  int // start of the current rising plateau, -1 when none
	candVal    float64
	pending    int // finalized-candidate-in-waiting
	pendingVal float64
	hasPending bool

	// Threshold initialization from the first two seconds.
	initN            int
	initMax, initSum float64
	inited           bool

	// Adaptive threshold state.
	spki, npki, th1 float64
	refractory      int
	tWaveWin        int
	slopeR          int
	halfRefine      int
	nQRS            int
	lastQRS         int
	lastSlope       float64
	rr              [8]float64
	rrLen           int

	// Finalized candidate peaks retained for search-back (the last
	// searchBackSeconds), and until initialization every candidate
	// finalized so far.
	hist     []histPeak
	sbWindow int // searchBackSeconds in samples

	// Refined positions of the peaks confirmed by the current sample,
	// and emission bookkeeping.
	accepted    []int
	lastRefined int

	// Counters mirroring Result.
	SearchBack int
	TWaveVeto  int
}

// histPeak is a finalized candidate with the measurements taken at
// finalization: its integrated value, the max band-passed slope around
// it and its refined R position.
type histPeak struct {
	idx   int
	val   float64
	slope float64
	r     int
}

// searchBackSeconds is how far back search-back looks for a missed peak:
// 1.66x the slowest physiological RR, with margin.
const searchBackSeconds = 6

// NewPTStream builds the incremental detector. cfg.BandSOS, when set,
// is used directly (the core device caches it); otherwise the band-pass
// is designed here.
func NewPTStream(cfg PTConfig) (*PTStream, error) {
	return newPTStream(cfg, 0)
}

// ErrRefractory rejects a streaming configuration whose refractory
// period does not exceed the refinement and slope half-windows: the
// stream measures each candidate when it is finalized, one refractory
// period after it, and those windows must have arrived by then.
var ErrRefractory = errors.New("ecg: streaming refractory period shorter than the refinement window")

// newPTStream builds the detector with both sample rings retaining
// ringN samples, or the derived History when ringN is 0 (tests pass
// larger rings as an oracle for the horizons). The sub-chunk is what
// the conditioned ring holds past its read horizon.
func newPTStream(cfg PTConfig, ringN int) (*PTStream, error) {
	cfg = cfg.normalized()
	sos := cfg.BandSOS
	if sos == nil {
		var err error
		if sos, err = DesignPTBandPass(cfg); err != nil {
			return nil, err
		}
	}
	fs := cfg.FS
	win := int(cfg.WindowMs / 1000 * fs)
	if win < 1 {
		win = 1
	}
	s := &PTStream{
		fs:          fs,
		band:        dsp.NewSOSStream(sos, false),
		searchBack:  cfg.SearchBack,
		refineOnRaw: cfg.RefineOnRaw,
		win:         win,
		candStart:   -1,
		initN:       int(2 * fs),
		refractory:  int(cfg.RefractMs / 1000 * fs),
		tWaveWin:    int(cfg.TWaveMs / 1000 * fs),
		slopeR:      int(0.075 * fs),
		halfRefine:  int(0.10 * fs),
		sbWindow:    int(searchBackSeconds * fs),
		lastQRS:     -int(cfg.RefractMs / 1000 * fs),
		lastRefined: -1 << 30,
	}
	if s.refractory <= s.halfRefine || s.refractory <= s.slopeR {
		return nil, ErrRefractory
	}
	rawN, filtN := ringN, ringN
	if ringN == 0 {
		rawN = dsp.NextPow2(s.horizon() + ptMinSub)
		filtN = s.filtHorizon() + rawN - s.horizon()
	}
	s.raw = dsp.NewRing(rawN)
	s.sub = rawN - s.horizon()
	s.filt = dsp.NewRing(filtN)
	return s, nil
}

// horizon returns how far behind the sample being detected the
// conditioned ring is read. A candidate is measured when it is
// finalized, a refractory period after it, over a refinement window
// reaching win+halfRefine samples further back.
func (s *PTStream) horizon() int { return s.refractory + s.win + s.halfRefine }

// filtHorizon returns how far behind the sample being detected the
// band-passed ring is read: slopeR+1 samples before a candidate
// finalized a refractory period ago (maxSlope), or the five-point
// derivative of the sample leaving the integration window (leaving).
func (s *PTStream) filtHorizon() int { return max(s.refractory+s.slopeR+1, s.win+4) }

// History returns how many samples the conditioned and the band-passed
// ring retain: each one's read horizon plus the sub-chunk Push appends
// ahead of the sample being detected. The sub-chunk takes up the
// conditioned ring's power-of-two rounding, so these are the rings'
// capacities exactly.
func (s *PTStream) History() (raw, filt int) {
	return s.horizon() + s.sub, s.filtHorizon() + s.sub
}

// Lookahead returns the confirmation delay in samples that
// Streamer.Latency budgets for: the refractory period after which an
// integrated-signal peak is finalized and refined, plus the refinement
// half-window. Search-back recoveries and peaks deferred to threshold
// initialization are emitted later; MaxLag bounds those.
func (s *PTStream) Lookahead() int { return s.refractory + s.halfRefine }

// MaxLag returns how old, in samples, an R peak can be when it is
// emitted, counted back from the samples consumed so far: a search-back
// recovery reaches searchBackSeconds back (the deferred first two
// seconds are no older), and refinement moves the R up to
// win+halfRefine earlier. Callers that must still hold data at an
// emitted R size their history from it.
func (s *PTStream) MaxLag() int { return max(s.sbWindow, s.initN) + s.win + s.halfRefine }

// Push consumes conditioned ECG samples and returns the R peaks
// confirmed by this chunk (absolute indices into the conditioned
// stream), appended to rs.
//
// The band-pass runs over the whole chunk through the pipelined SOS
// kernel, into a buffer checked out of a, before the per-sample
// detection loop; a chunked causal Push is bit-identical to the
// per-sample recurrence, so detection sees exactly the samples it would
// have one at a time. The rings take the chunk a sub-chunk at a time,
// never further ahead of the detection loop than their size allows;
// a second buffer from a takes each sub-chunk's squared derivatives
// leaving the integration window.
func (s *PTStream) Push(a *dsp.Arena, rs []int, x []float64) []int {
	if len(x) == 0 {
		return rs
	}
	f := s.band.Push(a, a.F64(len(x))[:0], x)
	lv := a.F64(min(len(x), s.sub) + 4)
	for len(x) > 0 {
		n := min(len(x), s.sub)
		s.raw.Append(x[:n])
		s.filt.Append(f[:n])
		for k, v := range s.leaving(lv, n) {
			rs = s.pushSample(rs, f[k], v)
		}
		x, f = x[n:], f[n:]
	}
	return rs
}

// sqDeriv returns the squared five-point derivative at a band-passed
// sample f given the samples one, three and four before it.
func sqDeriv(f, f1, f3, f4, fs float64) float64 {
	d := (2*f + f1 - f3 - 2*f4) / 8 * fs
	return float64(d * d)
}

// leaving returns the squared derivatives that leave the integration
// window as the next n samples enter it, in buf (at least n+4 long):
// that of sample i-win for sample i, recomputed from one span copied
// out of the band-passed ring (zero for the first four samples, and
// unused before the window fills). Slot k of the span holds sample
// j0-4+k, j0 being the sample leaving as the first one enters; slots
// before sample 0 are never read. Each derivative is computed in place
// over the oldest of the five samples it reads.
func (s *PTStream) leaving(buf []float64, n int) []float64 {
	j0 := s.n - s.win
	pre := min(max(4-j0, 0), n+4)
	f := s.filt.CopyTo(buf[:pre], max(j0-4, 0), j0+n)
	for k := range n {
		if j0+k < 4 {
			f[k] = 0
			continue
		}
		f[k] = sqDeriv(f[k+4], f[k+3], f[k+1], f[k], s.fs)
	}
	return f[:n]
}

// pushSample advances the per-sample detection state machines with one
// band-passed sample f, out being the squared derivative leaving the
// integration window (the raw and filtered rings were already extended
// by Push).
func (s *PTStream) pushSample(rs []int, f, out float64) []int {
	i := s.n

	// Five-point derivative (zero for the first four samples), squared.
	var sqv float64
	if i >= 4 {
		sqv = sqDeriv(f, s.d0, s.d2, s.d3, s.fs)
	}
	s.d3, s.d2, s.d1, s.d0 = s.d2, s.d1, s.d0, f

	// Causal moving-window integration with warm-up denominator.
	s.acc += sqv
	if i >= s.win {
		s.acc -= out
	}
	den := s.win
	if i+1 < s.win {
		den = i + 1
	}
	gi := s.acc / float64(den)
	prev := s.prevGi
	s.prevGi = gi
	s.n++

	// Threshold initialization statistics over the first two seconds.
	if i < s.initN {
		if i == 0 || gi > s.initMax {
			s.initMax = gi
		}
		s.initSum += gi
		if i == s.initN-1 {
			s.initThresholds(s.initN)
		}
	}

	// Candidate local-max detection on the integrated signal.
	if i >= 1 {
		if s.candStart >= 0 {
			switch {
			case gi == s.candVal:
				// plateau continues
			case gi < s.candVal:
				s.offerCandidate(s.candStart, s.candVal)
				s.candStart = -1
			default:
				s.candStart, s.candVal = i, gi
			}
		} else if gi > prev && gi >= 0 {
			s.candStart, s.candVal = i, gi
		}
	}
	// Refractory finalization of the pending candidate: once no future
	// candidate can start within minDist, the pending peak is decided.
	if s.hasPending {
		barrier := i
		if s.candStart >= 0 {
			barrier = s.candStart
		}
		if barrier >= s.pending+s.refractory {
			s.finalize(s.pending, s.pendingVal)
			s.hasPending = false
		}
	}

	return s.drainRefined(rs)
}

// offerCandidate applies the minDist suppression of dsp.FindPeaks
// incrementally: within a refractory distance the higher peak wins.
func (s *PTStream) offerCandidate(idx int, val float64) {
	if s.hasPending {
		if idx-s.pending < s.refractory {
			if val > s.pendingVal {
				s.pending, s.pendingVal = idx, val
			}
			return
		}
		s.finalize(s.pending, s.pendingVal)
	}
	s.pending, s.pendingVal = idx, val
	s.hasPending = true
}

// finalize records a suppressed-peak survivor with its slope and refined
// position, and runs it through the adaptive thresholds (or leaves it
// in the history until initialization replays it).
func (s *PTStream) finalize(idx int, val float64) {
	hp := histPeak{idx: idx, val: val, slope: s.maxSlope(idx), r: s.refine(idx)}
	s.hist = append(s.hist, hp)
	s.prune()
	if s.inited {
		s.processPeak(hp)
	}
}

// refine returns the R position of the candidate at p: the conditioned
// input's maximum over [p-win-halfRefine, p+halfRefine) when refining on
// the raw signal, p itself otherwise.
func (s *PTStream) refine(p int) int {
	if s.refineOnRaw {
		if m := s.raw.ArgMax(p-s.win-s.halfRefine, p+s.halfRefine); m >= 0 {
			return m
		}
	}
	return p
}

// prune drops history peaks older than the search-back horizon.
func (s *PTStream) prune() {
	horizon := s.n - s.sbWindow
	keep := 0
	for keep < len(s.hist) && s.hist[keep].idx < horizon {
		keep++
	}
	if keep > 0 {
		s.hist = append(s.hist[:0], s.hist[keep:]...)
	}
}

// initThresholds sets the thresholds from the first n samples'
// statistics and replays the candidates finalized so far, all of which
// the history still holds.
func (s *PTStream) initThresholds(n int) {
	mean := 0.0
	if n > 0 {
		mean = s.initSum / float64(n)
	}
	s.spki = 0.25 * s.initMax
	s.npki = 0.5 * mean
	s.th1 = s.npki + 0.25*(s.spki-s.npki)
	s.inited = true
	for _, hp := range s.hist {
		s.processPeak(hp)
	}
}

// maxSlope mirrors maxSlopeAround on the band-passed ring, copying the
// span out of it (in pieces of a stack buffer, each overlapping the
// last by the sample its first difference reads).
func (s *PTStream) maxSlope(p int) float64 {
	lo := max(p-s.slopeR, 1, s.filt.Start()+1)
	hi := min(p+s.slopeR, s.filt.N()-1)
	var buf [128]float64
	best := 0.0
	for lo <= hi {
		m := min(hi-lo+1, len(buf)-1)
		f := s.filt.CopyTo(buf[:0], lo-1, lo+m)
		for k := 1; k <= m; k++ {
			d := f[k] - f[k-1]
			if d < 0 {
				d = -d
			}
			if d > best {
				best = d
			}
		}
		lo += m
	}
	return best
}

// accept mirrors the batch acceptPeak: RR bookkeeping, slope capture.
func (s *PTStream) accept(hp histPeak) {
	p := hp.idx
	if s.nQRS > 0 {
		rrv := float64(p-s.lastQRS) / s.fs
		if s.rrLen < len(s.rr) {
			s.rr[s.rrLen] = rrv
			s.rrLen++
		} else {
			copy(s.rr[:], s.rr[1:])
			s.rr[len(s.rr)-1] = rrv
		}
	}
	s.nQRS++
	s.lastQRS = p
	s.lastSlope = hp.slope
	s.accepted = append(s.accepted, hp.r)
}

// processPeak replicates one iteration of the batch threshold loop.
func (s *PTStream) processPeak(hp histPeak) {
	p, pk := hp.idx, hp.val
	if p-s.lastQRS < s.refractory {
		s.npki = 0.125*pk + 0.875*s.npki
		s.th1 = s.npki + 0.25*(s.spki-s.npki)
		return
	}
	if pk > s.th1 {
		if s.nQRS > 0 && p-s.lastQRS < s.tWaveWin {
			if hp.slope < 0.5*s.lastSlope {
				s.TWaveVeto++
				s.npki = 0.125*pk + 0.875*s.npki
				s.th1 = s.npki + 0.25*(s.spki-s.npki)
				return
			}
		}
		s.accept(hp)
		s.spki = 0.125*pk + 0.875*s.spki
	} else {
		s.npki = 0.125*pk + 0.875*s.npki
	}
	s.th1 = s.npki + 0.25*(s.spki-s.npki)

	// Search-back: recover the largest missed peak in a long RR gap.
	if s.searchBack && s.rrLen >= 2 && s.nQRS > 0 {
		avg := 0.0
		for i := 0; i < s.rrLen; i++ {
			avg += s.rr[i]
		}
		avg /= float64(s.rrLen)
		if float64(p-s.lastQRS)/s.fs > 1.66*avg {
			lo := s.lastQRS + s.refractory
			hi := p
			best, bestV := -1, s.th1*0.5
			for k, h := range s.hist {
				if h.idx <= lo || h.idx >= hi {
					continue
				}
				if h.val > bestV {
					best, bestV = k, h.val
				}
			}
			if best >= 0 && s.hist[best].idx > 0 {
				s.accepted = append(s.accepted, s.hist[best].r)
				s.lastQRS = s.hist[best].idx
				s.spki = 0.25*bestV + 0.75*s.spki
				s.SearchBack++
			}
		}
	}
}

// drainRefined emits the refined positions of the peaks just confirmed,
// dropping a refined duplicate within a refractory period of the last
// emitted R (the batch detector's dedupeSorted).
func (s *PTStream) drainRefined(rs []int) []int {
	for _, r := range s.accepted {
		if s.refineOnRaw {
			if r-s.lastRefined < s.refractory {
				continue
			}
			s.lastRefined = r
		}
		rs = append(rs, r)
	}
	s.accepted = s.accepted[:0]
	return rs
}

// Flush ends the stream: the pending candidate is decided (measured
// against the final samples), a shorter-than-2-s stream initializes
// from what arrived, and the remaining confirmed peaks are emitted.
func (s *PTStream) Flush(rs []int) []int {
	if s.hasPending {
		s.finalize(s.pending, s.pendingVal)
		s.hasPending = false
	}
	if !s.inited {
		s.initThresholds(s.n)
	}
	return s.drainRefined(rs)
}

// HeldBytes reports the bytes the detector holds between pushes:
// itself, its band-pass registers, its sample rings, and the capacity
// of its candidate and confirmation lists.
func (s *PTStream) HeldBytes() int {
	return dsp.SizeOf[PTStream]() + s.band.HeldBytes() +
		s.filt.HeldBytes() + s.raw.HeldBytes() +
		dsp.SizeOf[histPeak]()*cap(s.hist) + 8*cap(s.accepted)
}

// Reset returns the detector to its initial state, keeping allocations.
func (s *PTStream) Reset() {
	s.band.Reset()
	s.d0, s.d1, s.d2, s.d3 = 0, 0, 0, 0
	s.acc = 0
	s.prevGi = 0
	s.filt.Reset()
	s.raw.Reset()
	s.n = 0
	s.candStart = -1
	s.hasPending = false
	s.initMax, s.initSum = 0, 0
	s.inited = false
	s.spki, s.npki, s.th1 = 0, 0, 0
	s.nQRS = 0
	s.lastQRS = -s.refractory
	s.lastSlope = 0
	s.rrLen = 0
	s.hist = s.hist[:0]
	s.accepted = s.accepted[:0]
	s.lastRefined = -1 << 30
	s.SearchBack, s.TWaveVeto = 0, 0
}
