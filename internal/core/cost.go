package core

import (
	"math"

	"repro/internal/ecg"
	"repro/internal/hw/mcu"
)

// costEstimator prices each pipeline stage in operation counts. The
// counts model a straightforward C implementation of each algorithm on
// the STM32L151 (soft-float Cortex-M3); mcu.CostModel converts them to
// cycles and mcu.STM32L151.DutyCycle applies the calibrated firmware
// overhead (experiment E8 in DESIGN.md).
type costEstimator struct {
	counter *mcu.Counter
	cfg     Config
}

func newCostEstimator(cfg Config) *costEstimator {
	return &costEstimator{counter: mcu.NewCounter(), cfg: cfg}
}

// baseline prices the morphological baseline estimation plus subtraction.
func (c *costEstimator) baseline(n int, cfg ecg.BaselineConfig) {
	l1 := int(cfg.L1Seconds*cfg.FS) | 1
	l2 := int(cfg.L1Seconds*cfg.L2Factor*cfg.FS) | 1
	nn := int64(n)
	if cfg.Naive {
		// Four sliding-window scans (erode+dilate, twice), each
		// comparing k samples per output.
		ops := nn * int64(2*l1+2*l2)
		c.counter.Add("ecg-baseline", mcu.OpFloatCmp, ops)
		c.counter.Add("ecg-baseline", mcu.OpMemory, ops)
	} else {
		// Block kernel (van Herk/Gil-Werman): ~3 comparisons/sample
		// per scan — prefix, output and suffix pass.
		ops := nn * 4 * 3
		c.counter.Add("ecg-baseline", mcu.OpFloatCmp, ops)
		c.counter.Add("ecg-baseline", mcu.OpMemory, ops*2)
		c.counter.Add("ecg-baseline", mcu.OpBranch, ops)
	}
	// Subtraction pass.
	c.counter.Add("ecg-baseline", mcu.OpFloatAdd, nn)
	c.counter.Add("ecg-baseline", mcu.OpMemory, 2*nn)
}

// fir prices an FIR filter of the given tap count over n samples, passes
// = 1 (causal) or 2 (forward-backward), as direct-form MACs.
//
// The host DSP layer runs wide kernels through real-input FFT
// overlap-save instead (dsp.useFFTConv: one half-size transform pair
// per block, roughly 20*log2(N/2)+30 real flops per output at block
// size N against 2*taps direct, handicapped 1.5x — crossover a little
// above 32 taps), but the MCU model deliberately keeps direct-form
// pricing: the
// STM32L151 has no FPU, a soft-float radix-2 butterfly costs ~10x a
// soft-float MAC (function-call overhead per float op dwarfs the
// multiply-count saving), and the firmware's widest kernel — the 33-tap
// QRS band-pass — sits at the crossover where the transform bookkeeping
// erases the asymptotic win. E8's duty-cycle calibration therefore
// remains anchored to the direct implementation the paper's firmware
// ships.
func (c *costEstimator) fir(n, taps, passes int) {
	mac := int64(n) * int64(taps) * int64(passes)
	c.counter.Add("ecg-bandpass", mcu.OpFloatMul, mac)
	c.counter.Add("ecg-bandpass", mcu.OpFloatAdd, mac)
	c.counter.Add("ecg-bandpass", mcu.OpMemory, 2*mac)
}

// sos prices a biquad cascade: 5 multiplies and 4 adds per section per
// sample.
func (c *costEstimator) sos(n, sections, passes int) {
	per := int64(n) * int64(sections) * int64(passes)
	c.counter.Add("icg-lowpass", mcu.OpFloatMul, 5*per)
	c.counter.Add("icg-lowpass", mcu.OpFloatAdd, 4*per)
	c.counter.Add("icg-lowpass", mcu.OpMemory, 3*per)
}

// panTompkins prices the QRS detector stages.
func (c *costEstimator) panTompkins(n int) {
	nn := int64(n)
	// Band-pass: two biquads, causal.
	c.counter.Add("qrs-detect", mcu.OpFloatMul, 10*nn)
	c.counter.Add("qrs-detect", mcu.OpFloatAdd, 8*nn)
	// Derivative (4 adds, 2 muls), squaring (1 mul), integration
	// (2 adds, 1 div amortized via reciprocal multiply).
	c.counter.Add("qrs-detect", mcu.OpFloatAdd, 6*nn)
	c.counter.Add("qrs-detect", mcu.OpFloatMul, 4*nn)
	// Threshold logic.
	c.counter.Add("qrs-detect", mcu.OpFloatCmp, 4*nn)
	c.counter.Add("qrs-detect", mcu.OpBranch, 2*nn)
	c.counter.Add("qrs-detect", mcu.OpMemory, 6*nn)
}

// derivative prices the ICG = -dZ/dt stage.
func (c *costEstimator) derivative(n int) {
	nn := int64(n)
	c.counter.Add("icg-derivative", mcu.OpFloatAdd, nn)
	c.counter.Add("icg-derivative", mcu.OpFloatMul, nn)
	c.counter.Add("icg-derivative", mcu.OpMemory, 2*nn)
}

// pointDetect prices the per-beat B/C/X detection: median (insertion sort
// on the segment), moving average, three derivative passes, the 40-80%
// line fit and the directional scans.
func (c *costEstimator) pointDetect(beats, avgBeatLen int) {
	if beats <= 0 || avgBeatLen <= 0 {
		return
	}
	m := int64(avgBeatLen)
	b := int64(beats)
	sortOps := int64(float64(m) * math.Log2(float64(m)+1))
	c.counter.Add("icg-points", mcu.OpFloatCmp, b*(sortOps+4*m))
	c.counter.Add("icg-points", mcu.OpFloatAdd, b*5*m)
	c.counter.Add("icg-points", mcu.OpFloatMul, b*2*m)
	c.counter.Add("icg-points", mcu.OpFloatDiv, b*8)
	c.counter.Add("icg-points", mcu.OpMemory, b*8*m)
	c.counter.Add("icg-points", mcu.OpBranch, b*2*m)
}

// gate prices the per-beat quality gate: the running-extreme scan is
// one compare per raw sample (amortized here per beat at the mean RR),
// plus the segment resample-and-correlate against the 64-point ensemble
// template, the saturation count and the second-difference noise scan.
func (c *costEstimator) gate(beats int) {
	if beats <= 0 {
		return
	}
	b := int64(beats)
	seg := int64(c.cfg.FS) // ~one RR interval of samples per beat
	tmpl := int64(64)
	c.counter.Add("quality-gate", mcu.OpFloatCmp, b*(3*seg+tmpl))
	c.counter.Add("quality-gate", mcu.OpFloatAdd, b*(3*seg+6*tmpl))
	c.counter.Add("quality-gate", mcu.OpFloatMul, b*(2*seg+5*tmpl))
	c.counter.Add("quality-gate", mcu.OpMemory, b*(4*seg+4*tmpl))
	c.counter.Add("quality-gate", mcu.OpBranch, b*seg)
}

// hemo prices the parameter computation (a handful of float ops per beat).
func (c *costEstimator) hemo(beats int) {
	b := int64(beats)
	c.counter.Add("hemodynamics", mcu.OpFloatMul, 12*b)
	c.counter.Add("hemodynamics", mcu.OpFloatAdd, 8*b)
	c.counter.Add("hemodynamics", mcu.OpFloatDiv, 6*b)
}

// radio prices beat-record marshalling and frame CRC.
func (c *costEstimator) radio(beats int) {
	b := int64(beats)
	// CRC16 over ~20 bytes: 8 shifts/xors per byte.
	c.counter.Add("radio-frames", mcu.OpIntALU, 20*8*2*b)
	c.counter.Add("radio-frames", mcu.OpMemory, 40*b)
}
