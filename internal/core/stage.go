package core

import (
	"repro/internal/bioimp"
	"repro/internal/dsp"
	"repro/internal/ecg"
)

// The conditioning chains of Fig 3 expressed as composable stages that
// both engines share: batch Process applies each stage over the whole
// acquisition (Stage.Apply), while the incremental Streamer drives the
// same chain sample by sample through the stateful form returned by
// Stage.NewStream. Keeping one chain definition guarantees the two
// engines compute the same conditioning, and pins down the state rules:
//
//   - A Stage itself is immutable after construction (it may hold
//     designed filters) and safe for concurrent Apply calls.
//   - All mutable per-stream state (delay lines, block buffers,
//     registers) lives in the StageStream, one instance per stream;
//     StageStreams are single-goroutine objects, reusable across
//     sessions via Reset.

// Stage is one conditioning step usable by both engines.
type Stage interface {
	// Apply runs the stage over a complete signal; full-length
	// intermediates come from the arena (nil falls back to the heap),
	// and the result is arena-owned when a is non-nil. Apply is safe
	// for concurrent use.
	Apply(a *dsp.Arena, x []float64) []float64
	// NewStream returns fresh streaming state for this stage.
	NewStream() StageStream
}

// StageStream is the stateful streaming form of a Stage. Push appends
// the newly computable outputs for a chunk, Flush drains outputs
// waiting on future samples with the batch edge treatment, and
// Lookahead is the pipeline latency in samples. Output t is on input
// t's timeline: a stage may emit it late, never displaced, so a chain's
// outputs need no re-alignment.
// Like Apply, Push and Flush check the working memory they need only
// while they run out of the arena (nil allocates): a stream holds its
// state between pushes and nothing else.
type StageStream interface {
	Push(a *dsp.Arena, dst, x []float64) []float64
	Flush(a *dsp.Arena, dst []float64) []float64
	Lookahead() int
	Reset()
}

// Chain is an ordered stage sequence.
type Chain []Stage

// Apply runs the whole chain over x.
func (c Chain) Apply(a *dsp.Arena, x []float64) []float64 {
	for _, st := range c {
		x = st.Apply(a, x)
	}
	return x
}

// NewStream builds the streaming form of the chain.
func (c Chain) NewStream() *ChainStream {
	cs := &ChainStream{stages: make([]StageStream, len(c))}
	for i, st := range c {
		cs.stages[i] = st.NewStream()
		cs.la += cs.stages[i].Lookahead()
	}
	return cs
}

// ChainStream pipes chunks through the stage streams. It holds only the
// stages' state: the inter-stage buffers are per-push scratch.
type ChainStream struct {
	stages []StageStream
	la     int // total pipeline latency in samples
}

// Push consumes a chunk and appends the conditioned samples to dst. The
// stages ping-pong between two buffers checked out of a, each sized for
// the chunk plus the chain's lookahead (no stage emits more per push),
// and the last stage appends straight to dst.
func (cs *ChainStream) Push(a *dsp.Arena, dst, x []float64) []float64 {
	last := len(cs.stages) - 1
	if last < 0 {
		return append(dst, x...)
	}
	var bufs [2][]float64
	cur := x
	for i, st := range cs.stages[:last] {
		b := &bufs[i&1]
		if *b == nil {
			*b = a.F64(len(x) + cs.la)
		}
		cur = st.Push(a, (*b)[:0], cur)
	}
	return cs.stages[last].Push(a, dst, cur)
}

// Flush drains every stage in order, piping each stage's tail through
// the rest of the chain, and appends the final samples to dst. The
// tails ping-pong between two buffers checked out of a, sized for the
// chain's lookahead: no stage holds more outputs than its lookahead,
// nor emits more per push than it takes in.
func (cs *ChainStream) Flush(a *dsp.Arena, dst []float64) []float64 {
	b1, b2 := a.F64(cs.la)[:0], a.F64(cs.la)[:0]
	for i := range cs.stages {
		tail := cs.stages[i].Flush(a, b1[:0])
		for j := i + 1; j < len(cs.stages); j++ {
			b1, b2 = b2, b1
			tail = cs.stages[j].Push(a, b1[:0], tail)
		}
		dst = append(dst, tail...)
	}
	return dst
}

// Lookahead returns the chain's total pipeline latency in samples.
func (cs *ChainStream) Lookahead() int { return cs.la }

// Reset returns every stage to its initial state, keeping buffers.
func (cs *ChainStream) Reset() {
	for _, st := range cs.stages {
		st.Reset()
	}
}

// Narrow reports whether every stage that can store its samples
// narrow (the baseline's ADC-code ring and float32 block buffers, the
// zero-phase band-pass's ADC-code carry) still does.
func (cs *ChainStream) Narrow() bool {
	for _, st := range cs.stages {
		if n, ok := st.(interface{ Narrow() bool }); ok && !n.Narrow() {
			return false
		}
	}
	return true
}

// HeldBytes reports the bytes the chain holds between pushes: itself,
// its stage list and every stage's state, which each stage stream
// reports (the dsp and ecg streams' HeldBytes; the ECG chain's stages
// all have one).
func (cs *ChainStream) HeldBytes() int {
	n := dsp.SizeOf[ChainStream]() + dsp.SizeOf[StageStream]()*cap(cs.stages)
	for _, st := range cs.stages {
		n += st.(interface{ HeldBytes() int }).HeldBytes()
	}
	return n
}

// --- Concrete stages of the paper's chains. ---

// baselineStage removes the morphological baseline estimate
// (Section IV-A.1). The naive-engine ablation flag affects only the
// batch cost model; both engines compute identical sliding extrema.
// lsb is the ECG ADC's quantization step, the grid the stream's raw
// history stores codes on.
type baselineStage struct {
	cfg ecg.BaselineConfig
	lsb float64
}

func (st baselineStage) Apply(a *dsp.Arena, x []float64) []float64 {
	return ecg.RemoveBaselineWith(a, x, st.cfg)
}
func (st baselineStage) NewStream() StageStream { return ecg.NewBaselineStream(st.cfg, st.lsb) }

// firZeroPhaseStage applies the pre-designed FIR forward-backward
// (zero phase), the paper's default ECG band-pass application. Its
// input, the baseline stage's raw − min/max(raw), is a difference of
// two ECG ADC codes, so lsb (the ADC's quantization step) is the grid
// the stream's overlap-save carry stores codes on.
type firZeroPhaseStage struct {
	f   *dsp.FIR
	lsb float64
}

func (st firZeroPhaseStage) Apply(a *dsp.Arena, x []float64) []float64 {
	return dsp.FiltFiltFIRWith(a, st.f, x)
}
func (st firZeroPhaseStage) NewStream() StageStream {
	return dsp.NewNarrowZeroPhaseFIRStream(st.f, st.lsb)
}

// firSameStage applies the FIR once with centered group-delay
// compensation (the single-pass ablation A5).
type firSameStage struct{ f *dsp.FIR }

func (st firSameStage) Apply(a *dsp.Arena, x []float64) []float64 {
	if a != nil {
		return st.f.ApplyTo(a.F64(len(x)), x)
	}
	return st.f.Apply(x)
}
func (st firSameStage) NewStream() StageStream { return dsp.NewFIRSameStream(st.f) }

// icgDerivStage derives ICG = -dZ/dt from the impedance channel
// (Section IV-B). No streamer builds its stream: the delineator derives
// -dZ/dt from the raw impedance ring with DerivStream's expressions (see
// icg.Delineator); the Stage contract still requires one.
type icgDerivStage struct{ fs float64 }

func (st icgDerivStage) Apply(a *dsp.Arena, x []float64) []float64 {
	var dst []float64
	if a != nil {
		dst = a.F64(len(x))
	} else {
		dst = make([]float64, len(x))
	}
	return bioimp.ICGFromZTo(dst, x, st.fs)
}
func (st icgDerivStage) NewStream() StageStream { return dsp.NewDerivStream(st.fs, -1) }

// sosZeroPhaseStage applies the biquad cascade forward-backward in
// batch. No streamer builds its stream (the delineator refilters the
// zero-phase cascade per beat); the Stage contract still requires one,
// the causal cascade with steady-state priming.
type sosZeroPhaseStage struct{ s dsp.SOS }

func (st sosZeroPhaseStage) Apply(a *dsp.Arena, x []float64) []float64 {
	return st.s.FiltFiltWith(a, x)
}
func (st sosZeroPhaseStage) NewStream() StageStream { return dsp.NewSOSStream(st.s, true) }

// sosCausalStage applies the cascade once, causally (ablation A5). The
// streaming delineator replays the same causal cascade from the zero
// state, so batch and stream match sample for sample; no streamer
// builds this stage's stream, which the Stage contract still requires.
type sosCausalStage struct{ s dsp.SOS }

func (st sosCausalStage) Apply(a *dsp.Arena, x []float64) []float64 {
	if a != nil {
		return st.s.FilterTo(a.F64(len(x)), x)
	}
	return st.s.Filter(x)
}
func (st sosCausalStage) NewStream() StageStream { return dsp.NewSOSStream(st.s, false) }

// buildChains assembles the conditioning chains for a designed bank.
func buildChains(cfg Config, fs float64, b *filterBank) {
	blCfg := ecg.DefaultBaseline(fs)
	blCfg.Naive = cfg.NaiveMorph
	b.blCfg = blCfg
	lsb := cfg.ECGFrontEnd.ADC.LSB()
	baseline := baselineStage{cfg: blCfg, lsb: lsb}
	if cfg.CausalFilters {
		b.ecgChain = Chain{baseline, firSameStage{f: b.ecgFIR}}
		b.icgChain = Chain{icgDerivStage{fs: fs}, sosCausalStage{s: b.icgLP}, sosCausalStage{s: b.icgHP}}
		return
	}
	b.ecgChain = Chain{baseline, firZeroPhaseStage{f: b.ecgFIR, lsb: lsb}}
	// Zero-phase cascades commute, so the high-pass runs first: the
	// incremental delineator exploits that order (the slow band-edge
	// high-pass over the full settling context, the fast low-pass over a
	// short guard), and keeping batch and stream on the same order keeps
	// them numerically identical beat for beat.
	b.icgChain = Chain{icgDerivStage{fs: fs}, sosZeroPhaseStage{s: b.icgHP}, sosZeroPhaseStage{s: b.icgLP}}
}
