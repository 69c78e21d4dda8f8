package dsp

import (
	"math"
	"reflect"
	"slices"
)

// Streaming (stateful) counterparts of the batch kernels. The batch
// pipeline re-runs every filter over the whole rolling window on each
// hop; these kernels instead carry their state — delay lines, biquad
// registers, monotonic deques — across pushes, so conditioning costs
// O(1) per sample regardless of the analysis window. They are the
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

// Ring retains the most recent samples of a stream, addressed by
// absolute sample index. It backs the history-dependent streaming
// stages (R-peak refinement, beat delineation, the gate's raw
// impedance) with O(1) memory.
//
// Storage width: a ring built by NewRing stores float64. One built by
// NewNarrowRing stores float32 while every sample it has taken is
// float32-exact — converting it to float32 and back reproduces its
// float64 bits — which every ADC code on the front end's 16-bit grids
// is. The first sample that is not (a dithered or computed value, a
// float64 subnormal, a magnitude beyond float32's range, most NaNs)
// widens the ring to float64 for good: the float32 contents are
// converted over exactly and the float32 buffer is dropped, so a
// widened ring holds what a NewRing ring holds and never two buffers.
// Every reader (At, CopyTo, ArgMax, Start, N, Cap) returns bit-identical
// values in either width, so the width is invisible downstream.
//
// Aliasing invariant: the storage is replaced at most once in the
// ring's life, narrow to wide, and only inside Push/Append; it is never
// resized, so the power-of-two index masking always lands inside the
// current backing array. No reader keeps a slice into the storage —
// CopyTo copies out — so the replacement cannot leave a stale view.
// Reset rewinds the logical stream without touching the storage (a
// widened ring stays wide), which is what lets pooled engines hand
// rings across sessions while old absolute indices go stale rather
// than dangle.
type Ring struct {
	buf  []float64 // wide storage; nil while the ring is narrow
	b32  []float32 // narrow storage; nil once the ring is wide
	mask int
	n    int // total samples pushed
}

// NewRing returns a float64 ring that retains at least capacity
// samples (rounded up to a power of two). Rings of filter outputs use
// it: their samples are rarely float32-exact.
func NewRing(capacity int) *Ring {
	size := ringSize(capacity)
	return &Ring{buf: make([]float64, size), mask: size - 1}
}

// NewNarrowRing returns a ring like NewRing's that stores float32 until
// its first sample that is not float32-exact. Rings of raw ADC samples
// use it.
func NewNarrowRing(capacity int) *Ring {
	size := ringSize(capacity)
	return &Ring{b32: make([]float32, size), mask: size - 1}
}

func ringSize(capacity int) int {
	if capacity < 2 {
		capacity = 2
	}
	return NextPow2(capacity)
}

// Narrow reports whether the ring still stores float32.
func (r *Ring) Narrow() bool { return r.buf == nil }

// widen moves a narrow ring to float64 storage, converting every
// stored sample exactly.
func (r *Ring) widen() {
	r.buf = make([]float64, len(r.b32))
	for i, f := range r.b32 {
		r.buf[i] = float64(f)
	}
	r.b32 = nil
}

// Push appends one sample.
func (r *Ring) Push(v float64) { r.Append([]float64{v}) }

// Append appends a chunk with at most two bulk copies per ring lap
// (per-sample conversions while the ring is narrow).
func (r *Ring) Append(xs []float64) {
	if r.buf == nil {
		if xs = r.appendNarrow(xs); len(xs) == 0 {
			return
		}
		r.widen()
	}
	for len(xs) > 0 {
		p := r.n & r.mask
		n := copy(r.buf[p:], xs)
		r.n += n
		xs = xs[n:]
	}
}

// appendNarrow stores the leading float32-exact samples of xs in the
// narrow storage and returns the rest, which starts at the first
// sample that is not float32-exact.
func (r *Ring) appendNarrow(xs []float64) []float64 {
	for len(xs) > 0 {
		dst := r.b32[r.n&r.mask:]
		m := min(len(dst), len(xs))
		for i, v := range xs[:m] {
			f := float32(v)
			if math.Float64bits(float64(f)) != math.Float64bits(v) {
				r.n += i
				return xs[i:]
			}
			dst[i] = f
		}
		r.n += m
		xs = xs[m:]
	}
	return nil
}

// N returns the total number of samples pushed so far.
func (r *Ring) N() int { return r.n }

// Cap returns how many samples the ring retains: its capacity rounded
// up to a power of two.
func (r *Ring) Cap() int { return r.mask + 1 }

// Start returns the oldest absolute index still retained.
func (r *Ring) Start() int { return max(r.n-r.Cap(), 0) }

// At returns the sample at absolute index i, which must be in
// [Start(), N()).
func (r *Ring) At(i int) float64 {
	if r.buf == nil {
		return float64(r.b32[i&r.mask])
	}
	return r.buf[i&r.mask]
}

// CopyTo appends the samples of [lo, hi) to dst with at most two bulk
// copies (per-sample conversions while the ring is narrow). The range
// must be retained.
func (r *Ring) CopyTo(dst []float64, lo, hi int) []float64 {
	for lo < hi {
		p := lo & r.mask
		end := min(p+(hi-lo), r.Cap())
		if r.buf != nil {
			dst = append(dst, r.buf[p:end]...)
		} else {
			src := r.b32[p:end]
			n := len(dst)
			dst = slices.Grow(dst, len(src))[:n+len(src)]
			for i, f := range src {
				dst[n+i] = float64(f)
			}
		}
		lo += end - p
	}
	return dst
}

// ArgMax returns the absolute index of the maximum over [lo, hi)
// clamped to the retained window, mirroring dsp.ArgMax's clamp-to-signal
// semantics for a stream whose ring covers the requested range; it
// returns -1 for an empty range. float32 to float64 conversion is exact
// and order-preserving, so a narrow ring compares its float32 samples
// directly.
func (r *Ring) ArgMax(lo, hi int) int {
	lo = ClampInt(lo, r.Start(), r.n)
	hi = ClampInt(hi, r.Start(), r.n)
	if lo >= hi {
		return -1
	}
	best := lo
	if r.buf == nil {
		for i := lo + 1; i < hi; i++ {
			if r.b32[i&r.mask] > r.b32[best&r.mask] {
				best = i
			}
		}
		return best
	}
	for i := lo + 1; i < hi; i++ {
		if r.buf[i&r.mask] > r.buf[best&r.mask] {
			best = i
		}
	}
	return best
}

// Reset forgets all samples, keeping the storage and its width.
func (r *Ring) Reset() { r.n = 0 }

// HeldBytes reports the bytes the ring holds: itself and its storage
// at the current width.
func (r *Ring) HeldBytes() int { return SizeOf[Ring]() + 8*len(r.buf) + 4*len(r.b32) }

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
//     streamed output matches dsp.FiltFiltFIR exactly on the full
//     signal. Lookahead k-1 (direct engine).
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

	skip    int       // leading raw outputs dropped (alignment)
	tailN   int       // trailing outputs recovered by Flush
	reflect int       // odd-reflection preamble/postamble length (0 = zero pad)
	pre     []float64 // first samples buffered until the preamble is known
	preNeed int
	primed  bool

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
type osState struct {
	*osKernel // shared, read-only

	carry []float64 // fftN: [0,km1) overlap, [km1,km1+pend) pending input
	pend  int       // pending samples not yet transformed
	base  int       // raw output index of the next block's first output
}

// enableOS switches the stream's inner engine to overlap-save on the
// shared kernel k. Must be called at construction time, before any
// samples are pushed. The direct engine's delay line is dropped: under
// overlap-save the carry buffer holds the history.
func (s *FIRStream) enableOS(k *osKernel) {
	s.os = &osState{
		osKernel: k,
		carry:    make([]float64, k.fftN),
	}
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
func NewZeroPhaseFIRStream(f *FIR) *FIRStream {
	zp := f.zeroPhase()
	s := newZeroPhaseFIRStream(zp)
	if zp.os != nil {
		s.enableOS(zp.os)
	}
	return s
}

// zeroPhaseKernel is the immutable state every zero-phase stream of one
// FIR shares: the composite kernel g = h*reverse(h), its reversal for
// the direct engine and, when the streaming crossover picks the FFT
// engine, its overlap-save spectrum.
type zeroPhaseKernel struct {
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
	zp := &zeroPhaseKernel{k: k, taps: g, rev: reversedTaps(g)}
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
	return newFIRStream(zp.taps, zp.rev, 2*(k-1), k-1, k-1)
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
		n := copy(o.carry[o.km1+o.pend:], xs)
		o.pend += n
		xs = xs[n:]
		s.fed += n
		if o.pend == o.step {
			if blk == nil {
				blk = a.C128(o.half)
			}
			dst = s.osBlock(blk, dst, o.step)
			// Slide: the block's last km1 inputs become the next overlap.
			copy(o.carry[:o.km1], o.carry[o.step:])
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
	carry := o.carry
	for c := range blk {
		blk[c] = complex(carry[2*c], carry[2*c+1])
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
	for len(x) > 0 && !s.primed {
		take := s.preNeed - len(s.pre)
		if take > len(x) {
			take = len(x)
		}
		s.pre = append(s.pre, x[:take]...)
		x = x[take:]
		if len(s.pre) < s.preNeed {
			return dst
		}
		// Synthesize the odd-reflection preamble ext[-reflect..-1]
		// (ext[-i] = 2 x[0] - x[i]) and run it plus the buffered head.
		pre := a.F64(s.reflect)
		for i := 1; i <= s.reflect; i++ {
			pre[s.reflect-i] = 2*s.pre[0] - s.pre[i]
		}
		dst = s.run(a, dst, pre)
		dst = s.run(a, dst, s.pre)
		s.primed = true
	}
	return s.run(a, dst, x)
}

// Flush ends the stream, appending the outputs that were waiting on
// future samples using the batch kernel's edge treatment (odd
// reflection for the zero-phase alignment, zero padding otherwise).
func (s *FIRStream) Flush(a *Arena, dst []float64) []float64 {
	if !s.primed {
		// Degenerate stream shorter than the reflection preamble (only
		// possible for the zero-phase alignment): approximate with the
		// centered squared kernel on the buffered head.
		if len(s.pre) == 0 {
			return dst
		}
		f := &FIR{Taps: s.taps}
		y := f.Apply(s.pre)
		return append(dst, y...)
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
			h = o.carry[o.pend : o.pend+o.km1]
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
		for i := o.km1 + o.pend; i < len(o.carry); i++ {
			o.carry[i] = 0
		}
		dst = s.osBlock(a.C128(o.half), dst, o.pend)
		o.base += o.pend
		o.pend = 0
	}
	return dst
}

// Reset returns the stream to its initial state.
func (s *FIRStream) Reset() {
	s.fed = 0
	s.pre = s.pre[:0]
	s.primed = s.reflect == 0
	for i := range s.hist {
		s.hist[i] = 0
	}
	if o := s.os; o != nil {
		for i := range o.carry {
			o.carry[i] = 0
		}
		o.pend = 0
		o.base = 0
	}
}

// HeldBytes reports the bytes the stream holds between pushes: itself,
// its delay line, its buffered head and, under overlap-save, its engine
// state and carry block. The taps and the kernel spectrum are shared by
// every stream of the design and are not counted.
func (s *FIRStream) HeldBytes() int {
	n := SizeOf[FIRStream]() + 8*(cap(s.hist)+cap(s.pre))
	if s.os != nil {
		n += SizeOf[osState]() + 8*len(s.os.carry)
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
// monotonic-deque engine (dsp.Erode / dsp.Dilate) including its edge
// clamping. Amortized O(1) per sample; lookahead right.
//
// Storage width: the deque's values are input samples (order
// statistics of the window), so it stores them as float32 while every
// sample pushed is float32-exact and widens to float64 for good at the
// first that is not — the NewNarrowRing rule: the float32 values are
// converted over exactly and the float32 buffer is dropped. float32 to
// float64 conversion is exact and order-preserving, so comparisons and
// outputs are bit-identical in either width. Reset keeps the width.
// Indices are uint32 sample counters compared by wrapping subtraction:
// a deque entry is never more than left+right+1 samples old, so the
// counters may wrap past 2^32 on long streams.
type MovExtStream struct {
	left, right int
	min         bool

	// Monotonic deque carrying (index, value) pairs in parallel rings,
	// so neither admission nor emission chases a second buffer. One of
	// v32 (narrow) and v64 (wide) is non-nil.
	idx              []uint32
	v32              []float32
	v64              []float64
	mask             int
	head, tail, size int

	in, out uint32
}

// NewMovExtStream returns a streaming sliding extremum over windows
// [t-left, t+right]; min selects erosion, otherwise dilation. The
// deque holds at most left+right+2 entries: the window plus the sample
// being admitted before the oldest is evicted.
func NewMovExtStream(left, right int, min bool) *MovExtStream {
	size := NextPow2(left + right + 2)
	return &MovExtStream{
		left: left, right: right, min: min,
		idx: make([]uint32, size), v32: make([]float32, size), mask: size - 1,
	}
}

// Lookahead returns the window's right extent.
func (s *MovExtStream) Lookahead() int { return s.right }

// Narrow reports whether the deque still stores float32 values.
func (s *MovExtStream) Narrow() bool { return s.v64 == nil }

// widen moves the deque's values to float64 storage, converting every
// stored value exactly.
func (s *MovExtStream) widen() {
	s.v64 = make([]float64, len(s.v32))
	for i, f := range s.v32 {
		s.v64[i] = float64(f)
	}
	s.v32 = nil
}

// Push consumes a chunk and appends the outputs whose full (clamped)
// window has arrived. A narrow deque runs the chunk at float32 up to
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
// consumed (all of them at float64). The deque state lives in locals
// for the whole chunk — reloading the fields through the pointer on
// every sample costs ~30% of the cascade's time at this call rate.
func movExtRun[T float32 | float64](s *MovExtStream, val []T, dst, x []float64) ([]float64, int) {
	idx, mask := s.idx, s.mask
	head, tail, size := s.head, s.tail, s.size
	in, out := s.in, s.out
	k := 0
	for ; k < len(x); k++ {
		xv := x[k]
		v := T(xv)
		if math.Float64bits(float64(v)) != math.Float64bits(xv) {
			break
		}
		if s.min {
			for size > 0 && v <= val[(tail-1)&mask] {
				tail = (tail - 1) & mask
				size--
			}
		} else {
			for size > 0 && v >= val[(tail-1)&mask] {
				tail = (tail - 1) & mask
				size--
			}
		}
		idx[tail] = in
		val[tail] = v
		tail = (tail + 1) & mask
		size++
		in++
		for in-out > uint32(s.right) {
			// Evict entries older than the window's left edge: an
			// index is older than lo when idx-lo wraps negative.
			lo := out - uint32(s.left)
			for size > 0 && int32(idx[head]-lo) < 0 {
				head = (head + 1) & mask
				size--
			}
			out++
			dst = append(dst, float64(val[head]))
		}
	}
	s.head, s.tail, s.size = head, tail, size
	s.in, s.out = in, out
	return dst, k
}

// Flush appends the trailing outputs, whose windows clamp at the
// stream's end.
func (s *MovExtStream) Flush(a *Arena, dst []float64) []float64 {
	if s.v64 == nil {
		return movExtDrain(s, s.v32, dst)
	}
	return movExtDrain(s, s.v64, dst)
}

// movExtDrain emits every output still owed, at one storage width.
func movExtDrain[T float32 | float64](s *MovExtStream, val []T, dst []float64) []float64 {
	for s.out != s.in {
		lo := s.out - uint32(s.left)
		for s.size > 0 && int32(s.idx[s.head]-lo) < 0 {
			s.head = (s.head + 1) & s.mask
			s.size--
		}
		s.out++
		dst = append(dst, float64(val[s.head]))
	}
	return dst
}

// Reset returns the stream to its initial state, keeping the storage
// and its width.
func (s *MovExtStream) Reset() {
	s.head, s.tail, s.size = 0, 0, 0
	s.in, s.out = 0, 0
}

// HeldBytes reports the bytes the stream holds between pushes: itself
// and its deque at the current width.
func (s *MovExtStream) HeldBytes() int {
	return SizeOf[MovExtStream]() + 4*len(s.idx) + 4*len(s.v32) + 8*len(s.v64)
}
