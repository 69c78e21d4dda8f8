package dsp

import (
	"math"
	"reflect"
)

// Streaming (stateful) counterparts of the batch kernels. The batch
// pipeline re-runs every filter over the whole rolling window on each
// hop; these kernels instead carry their state — delay lines, biquad
// registers, sliding-extremum blocks — across pushes, so conditioning
// costs O(1) per sample regardless of the analysis window. They are the
// foundation of the incremental streaming engine in internal/core.
//
// Conventions shared by every kernel:
//
//   - Push(a, dst, x) consumes the next chunk of the input stream and
//     appends the newly computable outputs to dst, returning the
//     extended slice. Output index t always corresponds to input index
//     t; a kernel that needs lookahead simply emits output t later.
//     Working memory the push needs only while it runs is checked out
//     of a, as the batch *With kernels do (nil allocates), so a kernel
//     holds nothing between pushes but its state.
//   - Flush(a, dst) ends the stream: it appends the outputs that were
//     waiting for future samples, using the same edge treatment as the
//     batch kernel.
//   - Lookahead reports how many future input samples the kernel needs
//     before it can emit output t (its pipeline latency in samples).
//   - Reset returns the kernel to its initial state without freeing
//     its buffers, so pooled engines can reuse it across sessions.
//   - Kernels are single-stream state machines: not safe for concurrent
//     use; use one instance per stream.

// SizeOf returns the bytes a T occupies itself, not counting what its
// slices, maps and pointers reference: the header term of the streams'
// HeldBytes ledgers.
func SizeOf[T any]() int { return int(reflect.TypeFor[T]().Size()) }

// FIRStream applies an FIR filter one sample at a time, carrying the
// delay line across pushes. The alignment of the emitted outputs is
// controlled at construction:
//
//   - NewFIRStream: plain causal filtering (y[t] = sum h[j] x[t-j]),
//     matching FIR.ApplyCausal. Lookahead 0.
//   - NewFIRSameStream: centered "same" convolution with zero padding,
//     matching FIR.ApplyTo / Apply sample for sample. Lookahead (k-1)/2.
//   - NewZeroPhaseFIRStream: the forward-backward (zero-phase) response
//     of FiltFiltFIR, computed causally through the squared kernel
//     h*reverse(h) with the same odd-reflection edge treatment, so the
//     streamed output matches dsp.FiltFiltFIR on the full signal up to
//     the rounding of one pass against two (a stream shorter than the
//     preamble runs FiltFiltFIR itself at Flush). Lookahead k-1 (direct
//     engine). NewNarrowZeroPhaseFIRStream is the same stream with its
//     overlap-save carry stored as ADC codes.
//
// Wide kernels switch the inner engine from the direct valid-mode
// correlation to block-carried overlap-save on the packed real-input
// FFT (see osState); the engine choice never affects WHICH outputs a
// push emits being a pure function of the cumulative sample count, so
// every chunking of a stream — including 1-sample pushes — produces a
// bit-identical output sequence.
type FIRStream struct {
	taps []float64 // effective kernel (shared, read-only)
	rev  []float64 // kernel reversed, for the valid-mode correlation (shared, read-only)
	hist []float64 // the last k-1 fed samples (zero-initialized)

	skip    int              // leading raw outputs dropped (alignment)
	tailN   int              // trailing outputs recovered by Flush
	reflect int              // odd-reflection preamble/postamble length (0 = zero pad)
	zp      *zeroPhaseKernel // the zero-phase design (shared; nil for the other alignments)
	// The first preNeed samples wait until the preamble is known,
	// parked in the history storage the filter has not used yet (see
	// park): the first npre of them have arrived.
	npre, preNeed int
	primed        bool

	fed int // samples fed through the filter (including synthetic ones)

	os *osState // overlap-save engine for wide kernels (nil = direct)
}

// osKernel is the immutable part of the streaming overlap-save engine
// for one tap set: the block geometry, the tap half-spectrum and the
// cached twiddle tables. Every stream of the same designed FIR shares
// one kernel (see FIR.zeroPhase), like the twiddle plans themselves.
type osKernel struct {
	fftN int          // real block length
	half int          // fftN/2: complex transform size
	step int          // fresh outputs per block: fftN - (k-1)
	km1  int          // len(taps) - 1
	h    []complex128 // tap half-spectrum, inverse normalization folded in
	w    []complex128 // butterfly twiddles for the half-size FFT
	wr   []complex128 // split twiddles exp(-2*pi*i*k/fftN)
}

// newOSKernel transforms taps into an overlap-save kernel sized by
// streamFFTSizeForTaps.
func newOSKernel(taps []float64) *osKernel {
	k := len(taps)
	fftN := streamFFTSizeForTaps(k)
	rp, _ := NewRFFTPlan(fftN) // power of two by construction
	o := &osKernel{
		fftN: fftN,
		half: fftN / 2,
		step: fftN - (k - 1),
		km1:  k - 1,
		h:    make([]complex128, fftN/2+1),
		w:    rp.w,
		wr:   rp.wr,
	}
	padded := make([]float64, fftN)
	copy(padded, taps)
	rp.Forward(o.h, padded)
	inv := 1 / float64(o.half)
	for i := range o.h {
		o.h[i] = scaleC(o.h[i], inv)
	}
	return o
}

// osState is the streaming overlap-save engine: a carry buffer holding
// the k-1 sample overlap followed by the pending (not yet transformed)
// input, processed one fixed-size block at a time on an ABSOLUTE block
// grid — block b always covers raw output indices [b*step, (b+1)*step),
// regardless of how the input was chunked. A block runs exactly when
// its last input sample arrives, so which block computes a given output
// (and hence its floating-point value) is a pure function of the
// cumulative input count: chunk boundaries cannot perturb the stream.
// The final partial block (run by Flush) zero-pads the unfilled tail,
// which is exact for the outputs it emits — a causal convolution output
// never reads past its own index. The half-size spectrum a block is
// transformed in is per-push scratch, checked out of the push's arena.
//
// The carry holds input samples only (the block's products live in the
// scratch spectrum), so a narrow stream stores it as 16-bit codes on
// the input's ADC grid with base 0 (codeStore), and widens it to
// float64 for good at the first sample off that grid.
type osState struct {
	*osKernel // shared, read-only

	carry codeStore // fftN slots: [0,km1) overlap, [km1,km1+pend) pending input
	pend  int       // pending samples not yet transformed
	base  int       // raw output index of the next block's first output
}

// enableOS switches the stream's inner engine to overlap-save on the
// shared kernel k, its carry stored as codes on grid or, when grid is
// nil, as float64. Must be called at construction time, before any
// samples are pushed. The direct engine's delay line is dropped: under
// overlap-save the carry buffer holds the history.
func (s *FIRStream) enableOS(k *osKernel, grid *codeGrid) {
	carry := wideStore(k.fftN)
	if grid != nil {
		carry = narrowStore(k.fftN, *grid)
	}
	s.os = &osState{osKernel: k, carry: carry}
	s.hist = nil
}

// NewFIRStream returns the causal streaming form of f.
func NewFIRStream(f *FIR) *FIRStream { return newFIRStream(f.Taps, reversedTaps(f.Taps), 0, 0, 0) }

// NewFIRSameStream returns the streaming form of the centered
// zero-padded convolution FIR.Apply; output t is emitted once input
// t+(k-1)/2 has arrived.
func NewFIRSameStream(f *FIR) *FIRStream {
	k := len(f.Taps)
	return newFIRStream(f.Taps, reversedTaps(f.Taps), (k-1)/2, (k-1)/2, 0)
}

// NewZeroPhaseFIRStream returns a streaming filter whose output equals
// dsp.FiltFiltFIR(f, x) exactly: the causal squared kernel delayed by
// k-1 samples, with the batch path's odd-reflection padding synthesized
// at the stream edges. Output t is emitted once input t+k-1 has arrived.
// The composite kernel and its overlap-save spectrum are built once per
// FIR and shared by every stream (call f.Prepare before constructing
// streams from several goroutines).
func NewZeroPhaseFIRStream(f *FIR) *FIRStream { return newZeroPhaseFIRStreamOS(f, nil) }

// NewNarrowZeroPhaseFIRStream returns a stream like
// NewZeroPhaseFIRStream's whose overlap-save carry stores 16-bit codes
// on the grid step (positive and finite) relative to 0 until its first
// input sample off that grid, from which it stores float64 for good:
// the outputs are bit-identical in either width. Streams of samples
// that are differences of ADC codes use it, with the ADC's LSB (the
// odd-reflection edges, 2·x0 − x[i], stay on the grid). A kernel
// narrow enough for the direct engine has no carry; step is then
// unused.
func NewNarrowZeroPhaseFIRStream(f *FIR, step float64) *FIRStream {
	g := newCodeGrid(step)
	g.base = 0 // the zero-initialized overlap must decode to 0
	return newZeroPhaseFIRStreamOS(f, &g)
}

// newZeroPhaseFIRStreamOS builds the zero-phase stream of f, on the
// overlap-save engine with its carry on grid (nil: float64) when the
// kernel is wide enough.
func newZeroPhaseFIRStreamOS(f *FIR, grid *codeGrid) *FIRStream {
	zp := f.zeroPhase()
	s := newZeroPhaseFIRStream(zp)
	if zp.os != nil {
		s.enableOS(zp.os, grid)
	}
	return s
}

// zeroPhaseKernel is the immutable state every zero-phase stream of one
// FIR shares: the composite kernel g = h*reverse(h), its reversal for
// the direct engine and, when the streaming crossover picks the FFT
// engine, its overlap-save spectrum.
type zeroPhaseKernel struct {
	h    []float64 // the designed taps
	k    int       // len(h)
	taps []float64 // g, 2k-1 taps
	rev  []float64 // g reversed
	os   *osKernel // nil when the direct engine is cheaper
}

func newZeroPhaseKernel(h []float64) *zeroPhaseKernel {
	k := len(h)
	g := make([]float64, 2*k-1)
	for i, a := range h {
		for j, b := range h {
			g[i+(k-1-j)] += a * b
		}
	}
	zp := &zeroPhaseKernel{h: h, k: k, taps: g, rev: reversedTaps(g)}
	if useFFTStream(len(g)) {
		zp.os = newOSKernel(g)
	}
	return zp
}

// newZeroPhaseFIRStream returns a zero-phase stream on the direct
// (per-sample recurrence) engine whatever the kernel width: the engine
// narrow kernels run on, and the in-package reference the overlap-save
// engine is tested and benchmarked against.
func newZeroPhaseFIRStream(zp *zeroPhaseKernel) *FIRStream {
	k := zp.k
	s := newFIRStream(zp.taps, zp.rev, 2*(k-1), k-1, k-1)
	s.zp = zp
	return s
}

func newFIRStream(taps, rev []float64, skip, tail, reflect int) *FIRStream {
	k := len(taps)
	s := &FIRStream{
		taps:    taps,
		rev:     rev,
		hist:    make([]float64, k-1),
		skip:    skip,
		tailN:   tail,
		reflect: reflect,
		preNeed: reflect + 1,
	}
	if reflect == 0 {
		s.primed = true
	}
	return s
}

// reversedTaps returns taps in reverse order.
func reversedTaps(taps []float64) []float64 {
	k := len(taps)
	rev := make([]float64, k)
	for i, t := range taps {
		rev[k-1-i] = t
	}
	return rev
}

// Lookahead returns the number of future input samples needed before
// output t can be emitted. The overlap-save engine emits in blocks, so
// its worst-case lag adds the block advance: output t waits for its
// block's last input, up to step-1 samples past the direct engine's
// requirement.
func (s *FIRStream) Lookahead() int {
	if s.os != nil {
		la := s.os.step + s.skip - s.reflect - 1
		if la > s.tailN {
			return la
		}
	}
	return s.tailN
}

// run feeds a batch of samples through the filter: a linear work buffer
// from a (the k-1 sample history followed by the chunk) turns the delay
// line into valid-mode correlations over contiguous memory, which the
// four-accumulator dot product chews through at full speed.
func (s *FIRStream) run(a *Arena, dst []float64, xs []float64) []float64 {
	m := len(xs)
	if m == 0 {
		return dst
	}
	if s.os != nil {
		return s.osRun(a, dst, xs)
	}
	k := len(s.rev)
	work := a.F64(k - 1 + m)
	copy(work, s.hist)
	copy(work[k-1:], xs)
	start := 0
	if s.fed < s.skip {
		start = s.skip - s.fed
		if start > m {
			start = m
		}
	}
	base := len(dst)
	mm := m - start
	if cap(dst)-base < mm {
		grown := make([]float64, base, base+mm+base/2)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+mm]
	convSeqInto(dst[base:], s.rev, work[start:])
	s.fed += m
	copy(s.hist, work[m:])
	return dst
}

// osRun feeds samples into the overlap-save carry buffer, running one
// block each time step pending samples have accumulated. Raw output
// index == raw input index (causal alignment), so the absolute block
// grid is a pure function of the cumulative fed count. The block
// spectrum is checked out of a once, by the first block the push runs.
func (s *FIRStream) osRun(a *Arena, dst []float64, xs []float64) []float64 {
	o := s.os
	var blk []complex128
	for len(xs) > 0 {
		n := min(len(xs), o.step-o.pend)
		o.carry.put(o.km1+o.pend, xs[:n])
		o.pend += n
		xs = xs[n:]
		s.fed += n
		if o.pend == o.step {
			if blk == nil {
				blk = a.C128(o.half)
			}
			dst = s.osBlock(blk, dst, o.step)
			// Slide: the block's last km1 inputs become the next overlap.
			o.carry.slide(o.step, o.km1)
			o.base += o.step
			o.pend = 0
		}
	}
	return dst
}

// osBlock transforms the current carry block in blk (o.half complex
// scratch) and appends its first emitN fresh outputs (raw indices
// [base, base+emitN)), dropping those below the alignment skip. The
// carry buffer is left untouched.
func (s *FIRStream) osBlock(blk []complex128, dst []float64, emitN int) []float64 {
	o := s.os
	if carry := o.carry.buf; carry != nil {
		for c := range blk {
			blk[c] = complex(carry[2*c], carry[2*c+1])
		}
	} else {
		codes, g := o.carry.codes, o.carry.grid
		for c := range blk {
			blk[c] = complex(g.decode(codes[2*c]), g.decode(codes[2*c+1]))
		}
	}
	fftWith(blk, o.w)
	mulSpectrumPacked(blk, o.h, o.wr, o.half)
	ifftNoScale(blk, o.w)
	lo := o.base
	if lo < s.skip {
		lo = s.skip
	}
	cnt := o.base + emitN - lo
	if cnt <= 0 {
		return dst
	}
	base := len(dst)
	if cap(dst)-base < cnt {
		grown := make([]float64, base, base+cnt+base/2)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+cnt]
	out := dst[base:]
	// Valid outputs sit at real block positions [km1, fftN); unpack the
	// complex pairs for raw indices [lo, lo+cnt).
	p := o.km1 + (lo - o.base)
	t := 0
	if p&1 == 1 {
		out[0] = imag(blk[p>>1])
		t = 1
	}
	for ; t+1 < cnt; t += 2 {
		c := blk[(p+t)>>1]
		out[t] = real(c)
		out[t+1] = imag(c)
	}
	if t < cnt {
		out[t] = real(blk[(p+t)>>1])
	}
	return dst
}

// convSeqInto computes out[t] = sum_j rev[j]*w[t+j] for every t. Outputs
// run four at a time so each tap is loaded once per group instead of once
// per output; the trailing <4 outputs use the scalar dotSeq. Both paths
// accumulate each output in the same two-lane order (even taps, odd taps,
// then one combine), so a given output's value is bit-identical no matter
// which path produced it — chunk boundaries cannot perturb the stream.
func convSeqInto(out, rev, w []float64) {
	k := len(rev)
	n4 := len(out) &^ 3
	for t := 0; t < n4; t += 4 {
		ww := w[t : t+k+3]
		var a0, b0, a1, b1, a2, b2, a3, b3 float64
		j := 0
		for ; j+2 <= k; j += 2 {
			h0, h1 := rev[j], rev[j+1]
			w0, w1, w2, w3, w4 := ww[j], ww[j+1], ww[j+2], ww[j+3], ww[j+4]
			a0 += h0 * w0
			b0 += h1 * w1
			a1 += h0 * w1
			b1 += h1 * w2
			a2 += h0 * w2
			b2 += h1 * w3
			a3 += h0 * w3
			b3 += h1 * w4
		}
		if j < k {
			h := rev[j]
			a0 += h * ww[j]
			a1 += h * ww[j+1]
			a2 += h * ww[j+2]
			a3 += h * ww[j+3]
		}
		out[t] = a0 + b0
		out[t+1] = a1 + b1
		out[t+2] = a2 + b2
		out[t+3] = a3 + b3
	}
	for t := n4; t < len(out); t++ {
		out[t] = dotSeq(rev, w[t:t+k])
	}
}

// dotSeq is the scalar counterpart of convSeqInto's group kernel: even
// taps into one accumulator, odd taps into another, one final combine —
// the exact accumulation order each grouped output uses.
func dotSeq(rev, w []float64) float64 {
	var a, b float64
	j := 0
	for ; j+2 <= len(rev); j += 2 {
		a += rev[j] * w[j]
		b += rev[j+1] * w[j+1]
	}
	if j < len(rev) {
		a += rev[j] * w[j]
	}
	return a + b
}

// Push consumes a chunk and appends the newly computable outputs to dst;
// its working buffers are checked out of a (nil allocates).
func (s *FIRStream) Push(a *Arena, dst, x []float64) []float64 {
	if s.primed {
		return s.run(a, dst, x)
	}
	take := min(s.preNeed-s.npre, len(x))
	s.park(x[:take])
	x = x[take:]
	if s.npre < s.preNeed {
		return dst
	}
	// Synthesize the odd-reflection preamble ext[-reflect..-1]
	// (ext[-i] = 2 x[0] - x[i]) and run it plus the buffered head.
	head := s.unpark(a)
	pre := a.F64(s.reflect)
	for i := 1; i <= s.reflect; i++ {
		pre[s.reflect-i] = 2*head[0] - head[i]
	}
	dst = s.run(a, dst, pre)
	dst = s.run(a, dst, head)
	s.primed = true
	return s.run(a, dst, x)
}

// park stores the next head samples while the stream waits for its
// preamble, in the history storage the filter has not used yet: the
// overlap-save carry's pending slots (as codes while the carry is
// narrow) or the direct engine's delay line. Both hold the head:
// preNeed = k is at most the 2k-2 slots of the composite kernel's
// delay line and at most the carry's block advance (fftN >= 2(2k-1)).
func (s *FIRStream) park(xs []float64) {
	if o := s.os; o != nil {
		o.carry.put(o.km1+s.npre, xs)
	} else {
		copy(s.hist[s.npre:], xs)
	}
	s.npre += len(xs)
}

// unpark returns the parked head in scratch from a and gives its slots
// back to the filter: the delay line is zeroed again, and the carry's
// pending slots are rewritten by the run before any block reads them.
func (s *FIRStream) unpark(a *Arena) []float64 {
	head := a.F64(s.npre)
	if o := s.os; o != nil {
		o.carry.read(head, o.km1)
	} else {
		copy(head, s.hist)
		clear(s.hist[:s.npre])
	}
	return head
}

// Flush ends the stream, appending the outputs that were waiting on
// future samples using the batch kernel's edge treatment (odd
// reflection for the zero-phase alignment, zero padding otherwise).
func (s *FIRStream) Flush(a *Arena, dst []float64) []float64 {
	if !s.primed {
		// Degenerate stream shorter than the reflection preamble (only
		// possible for the zero-phase alignment): the whole signal is
		// the parked head, so run the batch filter over it.
		if s.npre == 0 {
			return dst
		}
		head := s.unpark(a)
		s.npre = 0
		return append(dst, FiltFiltFIRWith(a, &FIR{Taps: s.zp.h}, head)...)
	}
	if s.tailN == 0 {
		return dst
	}
	post := a.F64(s.tailN)
	clear(post)
	if s.reflect > 0 {
		// ext[n+i] = 2 x[n-1] - x[n-2-i]; the raw tail is the history
		// buffer's suffix. Under overlap-save the last k-1 fed samples
		// live in the carry buffer (overlap ++ pending, both zero-backed
		// at the stream start, exactly like hist).
		h := s.hist
		if o := s.os; o != nil {
			h = a.F64(o.km1)
			o.carry.read(h, o.pend)
		}
		last := h[len(h)-1]
		for i := 0; i < s.tailN; i++ {
			post[i] = 2*last - h[len(h)-2-i]
		}
	}
	dst = s.run(a, dst, post)
	if o := s.os; o != nil && o.pend > 0 {
		// Final partial block: zero-pad the unfilled tail (exact for the
		// pend outputs emitted — causal outputs never read past their own
		// index) and emit the stragglers.
		o.carry.zero(o.km1+o.pend, o.fftN)
		dst = s.osBlock(a.C128(o.half), dst, o.pend)
		o.base += o.pend
		o.pend = 0
	}
	return dst
}

// Reset returns the stream to its initial state.
func (s *FIRStream) Reset() {
	s.fed = 0
	s.npre = 0
	s.primed = s.reflect == 0
	clear(s.hist)
	if o := s.os; o != nil {
		o.carry.zero(0, o.fftN)
		o.pend = 0
		o.base = 0
	}
}

// Narrow reports whether the stream still stores its input history as
// codes: true until the first input sample off a narrow stream's grid.
// The direct engine's float64 delay line never changes width, so a
// stream on it reports true, as a pool that takes back only narrow
// streams wants.
func (s *FIRStream) Narrow() bool { return s.os == nil || s.os.carry.narrow() }

// HeldBytes reports the bytes the stream holds between pushes: itself,
// its delay line and, under overlap-save, its engine state and carry
// block at its current width (the head waiting for the preamble is
// parked in one of them). The taps and the kernel spectrum are shared
// by every stream of the design and are not counted.
func (s *FIRStream) HeldBytes() int {
	n := SizeOf[FIRStream]() + 8*cap(s.hist)
	if s.os != nil {
		n += SizeOf[osState]() + s.os.carry.heldBytes()
	}
	return n
}

// SOSStream applies a biquad cascade causally one sample at a time with
// persistent direct-form-II-transposed registers, matching SOS.Filter /
// SOS.FilterTo sample for sample when started from the zero state.
//
// With prime enabled, the registers are initialized on the first sample
// to the steady state of a constant input (the lfilter_zi treatment),
// which suppresses the start-up transient of the causal pass.
type SOSStream struct {
	sos    SOS
	z1, z2 []float64
	prime  bool
	n      int
}

// NewSOSStream returns the causal streaming form of s.
func NewSOSStream(s SOS, prime bool) *SOSStream {
	return &SOSStream{sos: s, z1: make([]float64, len(s)), z2: make([]float64, len(s)), prime: prime}
}

// Lookahead returns 0: a causal IIR emits output t at input t.
func (s *SOSStream) Lookahead() int { return 0 }

// PushSample advances the cascade by one sample.
func (s *SOSStream) PushSample(v float64) float64 {
	if s.n == 0 && s.prime {
		u := v
		for i, bq := range s.sos {
			zi1, zi2 := biquadZi(bq)
			s.z1[i], s.z2[i] = zi1*u, zi2*u
			// A constant u produces u*Gdc from the first sample with the
			// zi state; propagate the level to the next section.
			den := 1 + bq.A1 + bq.A2
			if den != 0 {
				u *= (bq.B0 + bq.B1 + bq.B2) / den
			}
		}
	}
	s.n++
	for i, bq := range s.sos {
		out := bq.B0*v + s.z1[i]
		s.z1[i] = bq.B1*v - bq.A1*out + s.z2[i]
		s.z2[i] = bq.B2*v - bq.A2*out
		v = out
	}
	return v
}

// Push consumes a chunk and appends the filtered samples to dst. The
// cascade runs in place in dst, so it needs no scratch from a.
func (s *SOSStream) Push(a *Arena, dst, x []float64) []float64 {
	if len(x) == 0 {
		return dst
	}
	// The zi priming on the very first sample touches every section at
	// once; route it through PushSample, then run the pipelined kernels
	// with the persistent registers for the rest of the chunk.
	if s.n == 0 && s.prime {
		dst = append(dst, s.PushSample(x[0]))
		x = x[1:]
		if len(x) == 0 {
			return dst
		}
	}
	base := len(dst)
	dst = append(dst, x...)
	out := dst[base:]
	sosPipeRun(out, out, s.sos, s.z1, s.z2, false)
	s.n += len(x)
	return dst
}

// State returns the live registers, z1 and z2 per section: a view
// valid until the next Push or Reset. A caller that checkpoints the
// stream copies them, and SOS.FilterSpans resumes from the copies.
func (s *SOSStream) State() (z1, z2 []float64) { return s.z1, s.z2 }

// Flush is a no-op for a causal IIR: there is no pending output.
func (s *SOSStream) Flush(a *Arena, dst []float64) []float64 { return dst }

// Reset zeroes the filter registers.
func (s *SOSStream) Reset() {
	s.n = 0
	for i := range s.z1 {
		s.z1[i], s.z2[i] = 0, 0
	}
}

// HeldBytes reports the bytes the stream holds: itself and its
// registers (the cascade design is shared and not counted).
func (s *SOSStream) HeldBytes() int { return SizeOf[SOSStream]() + 8*(len(s.z1)+len(s.z2)) }

// DerivStream is the streaming form of DerivativeTo scaled by gain:
// central differences in the interior with one-sided differences at the
// stream edges. With gain = -1 it computes the ICG derivation
// ICG = -dZ/dt exactly as bioimp.ICGFromZ does. Lookahead 1.
type DerivStream struct {
	fs, gain float64
	x1, x2   float64 // last two inputs (x1 most recent)
	n        int
}

// NewDerivStream returns a streaming derivative at sampling rate fs
// with output scaled by gain.
func NewDerivStream(fs, gain float64) *DerivStream {
	return &DerivStream{fs: fs, gain: gain}
}

// Lookahead returns 1 (the central difference needs the next sample).
func (s *DerivStream) Lookahead() int { return 1 }

// Push consumes a chunk and appends the computable derivatives to dst
// (it needs no scratch from a).
func (s *DerivStream) Push(a *Arena, dst, x []float64) []float64 {
	i := 0
	if s.n == 0 && i < len(x) {
		s.x1 = x[i]
		s.n++
		i++
	}
	if s.n == 1 && i < len(x) {
		// First output: forward difference.
		dst = append(dst, s.gain*(x[i]-s.x1)*s.fs)
		s.x2, s.x1 = s.x1, x[i]
		s.n++
		i++
	}
	// Interior: central differences in a branch-free loop.
	half := s.gain * s.fs / 2
	p2, p1 := s.x2, s.x1
	s.n += len(x) - i
	for ; i < len(x); i++ {
		v := x[i]
		dst = append(dst, (v-p2)*half)
		p2, p1 = p1, v
	}
	s.x2, s.x1 = p2, p1
	return dst
}

// Flush appends the final one-sided difference.
func (s *DerivStream) Flush(a *Arena, dst []float64) []float64 {
	switch s.n {
	case 0:
		return dst
	case 1:
		return append(dst, 0)
	}
	return append(dst, s.gain*(s.x1-s.x2)*s.fs)
}

// Reset returns the stream to its initial state.
func (s *DerivStream) Reset() { s.n = 0; s.x1, s.x2 = 0, 0 }

// MovExtStream is the streaming sliding-window extremum (flat erosion or
// dilation): output t is the min or max of the inputs in
// [t-left, t+right] clamped to the stream, exactly matching the batch
// dsp.Erode / dsp.Dilate (which run this kernel) including their edge
// clamping. O(1) per sample; lookahead right.
//
// Kernel: van Herk/Gil-Werman over blocks of w = left+right+1 samples.
// The stream is padded at its start with left identity samples (+Inf
// for erosion, -Inf for dilation), which is the start clamping, and
// Flush pushes right more, which is the end clamping; the window that
// ends at block offset j is then the previous block's suffix from offset
// j+1 and the current block's prefix through j. One buffer of w values
// holds everything: the previous block's suffix extremum from j+1 sits
// in slot j+1, the current block's prefix extremum is the scalar p, and
// the new sample overwrites slot j, which nothing reads again. At the
// end of each block one in-place backward pass turns the buffer into
// that block's suffix extrema. That is about three comparisons per
// sample and no data-dependent loop.
//
// Ties: among equal values the output is the newest, as a monotonic
// deque's is (a newer equal evicts the older): the prefix takes v when
// v <= p (>= for max), the suffix pass keeps the newer slot unless the
// older is strictly better, and the output takes p unless the suffix is
// strictly better. So ±0, which compare equal, come out bit for bit as
// the deque's. Bit-identity with the deque is pinned for finite inputs;
// the session layer's NonFinite policy keeps NaN and ±Inf out of every
// streamer.
//
// Storage width: the buffer's values are input samples or extrema of
// them, so it stores them as float32 while every sample pushed is
// float32-exact — converting it to float32 and back reproduces its
// float64 bits, as every code of a 16-bit ADC whose LSB is a power of
// two or a small multiple of one does — and widens to float64 for good
// at the first that is not, as a NewNarrowRing ring does: the float32
// values are converted over exactly and the float32 buffer is dropped.
// float32 to float64 conversion is exact and order-preserving, so
// comparisons and outputs are bit-identical in either width. Reset
// keeps the width. (16-bit codes, a NewNarrowRing ring's wider coded
// form, would save 2 B a slot more but cost the baseline cascade about
// 45% in time with the deque this kernel replaced: every sample is
// re-encoded at each of its four stages.)
type MovExtStream struct {
	left, right int
	min         bool

	// The block buffer: one of v32 (narrow) and v64 (wide) is non-nil.
	// Slots below j hold the current block's samples, slots from j on
	// the previous block's suffix extrema.
	v32 []float32
	v64 []float64
	j   int     // offset in the current block
	p   float64 // the current block's prefix extremum
	lag int     // samples still to take before the first output
}

// NewMovExtStream returns a streaming sliding extremum over windows
// [t-left, t+right]; min selects erosion, otherwise dilation. It holds
// one block buffer of left+right+1 values.
func NewMovExtStream(left, right int, min bool) *MovExtStream {
	s := &MovExtStream{left: left, right: right, min: min, v32: make([]float32, left+right+1)}
	s.Reset()
	return s
}

// Lookahead returns the window's right extent.
func (s *MovExtStream) Lookahead() int { return s.right }

// Narrow reports whether the buffer still stores float32 values.
func (s *MovExtStream) Narrow() bool { return s.v64 == nil }

// identity is the extremum's neutral value: +Inf for erosion, -Inf for
// dilation.
func (s *MovExtStream) identity() float64 {
	if s.min {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

// widen moves the buffer to float64 storage, converting every stored
// value exactly.
func (s *MovExtStream) widen() {
	s.v64 = make([]float64, len(s.v32))
	for i, f := range s.v32 {
		s.v64[i] = float64(f)
	}
	s.v32 = nil
}

// Push consumes a chunk and appends the outputs whose full (clamped)
// window has arrived. A narrow stream runs the chunk at float32 up to
// its first sample that is not float32-exact, widens there for good,
// and runs the rest at float64. It needs no scratch from a.
func (s *MovExtStream) Push(a *Arena, dst, x []float64) []float64 {
	if s.v64 == nil {
		var k int
		if dst, k = movExtRun(s, s.v32, dst, x); k == len(x) {
			return dst
		}
		s.widen()
		x = x[k:]
	}
	dst, _ = movExtRun(s, s.v64, dst, x)
	return dst
}

// movExtRun is Push's loop at one storage width: it consumes samples of
// x until one is not representable in T exactly and returns how many it
// consumed (all of them at float64). The kernel state lives in locals
// for the whole chunk — reloading the fields through the pointer on
// every sample costs ~30% of the cascade's time at this call rate.
func movExtRun[T float32 | float64](s *MovExtStream, buf []T, dst, x []float64) ([]float64, int) {
	w, min := len(buf), s.min
	j, p, lag := s.j, T(s.p), s.lag
	k := 0
	for ; k < len(x); k++ {
		xv := x[k]
		v := T(xv)
		if math.Float64bits(float64(v)) != math.Float64bits(xv) {
			break
		}
		var out T
		if min {
			if j == 0 || v <= p {
				p = v
			}
			if out = p; j+1 < w && buf[j+1] < p {
				out = buf[j+1]
			}
		} else {
			if j == 0 || v >= p {
				p = v
			}
			if out = p; j+1 < w && buf[j+1] > p {
				out = buf[j+1]
			}
		}
		buf[j] = v
		if lag > 0 {
			lag--
		} else {
			dst = append(dst, float64(out))
		}
		if j++; j == w {
			j = 0
			// The block is complete: turn its samples into its suffix
			// extrema, the newer slot winning ties.
			if min {
				for i := w - 2; i >= 0; i-- {
					if buf[i+1] <= buf[i] {
						buf[i] = buf[i+1]
					}
				}
			} else {
				for i := w - 2; i >= 0; i-- {
					if buf[i+1] >= buf[i] {
						buf[i] = buf[i+1]
					}
				}
			}
		}
	}
	s.j, s.p, s.lag = j, float64(p), lag
	return dst, k
}

// Flush appends the trailing outputs, whose windows clamp at the
// stream's end: it pushes right identity samples.
func (s *MovExtStream) Flush(a *Arena, dst []float64) []float64 {
	var pad [64]float64
	for i := range pad {
		pad[i] = s.identity()
	}
	for n := s.right; n > 0; n -= len(pad) {
		dst = s.Push(a, dst, pad[:min(n, len(pad))])
	}
	return dst
}

// Reset returns the stream to its initial state, keeping the buffer and
// its width: the buffer holds the identity, as do the left samples the
// start clamping pads the stream with.
func (s *MovExtStream) Reset() {
	id := s.identity()
	for i := range s.v32 {
		s.v32[i] = float32(id)
	}
	for i := range s.v64 {
		s.v64[i] = id
	}
	s.j, s.p, s.lag = s.left, id, s.right
}

// HeldBytes reports the bytes the stream holds between pushes: itself
// and its buffer at the current width.
func (s *MovExtStream) HeldBytes() int {
	return SizeOf[MovExtStream]() + 4*len(s.v32) + 8*len(s.v64)
}
