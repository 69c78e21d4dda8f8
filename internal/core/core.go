// Package core assembles the paper's device (Fig 2, Fig 3, Fig 4): a
// touch-operated acquisition and processing pipeline that sets the
// injection frequency, acquires ECG and ICG simultaneously, runs the
// noise-cancellation and characteristic-point algorithms of Section IV in
// a form suitable for the STM32L151, estimates the hemodynamic parameters,
// and hands per-beat records to the radio. It also prices every stage in
// CPU cycles so the paper's 40-50% duty-cycle claim (experiment E8) can be
// reproduced.
package core

import (
	"errors"
	"sync"

	"repro/internal/bioimp"
	"repro/internal/dsp"
	"repro/internal/ecg"
	"repro/internal/hemo"
	"repro/internal/hw/afe"
	"repro/internal/hw/imu"
	"repro/internal/hw/mcu"
	"repro/internal/icg"
	"repro/internal/physio"
	"repro/internal/quality"
)

// Config selects the acquisition and processing options of Fig 3's
// flowchart ("set frequency of the current" is InjectionFreq).
type Config struct {
	FS            float64         // sampling rate (Hz); the study uses 250
	InjectionFreq float64         // carrier frequency (Hz); 50 kHz for STIs
	Position      bioimp.Position // arm position during the measurement
	XRule         icg.XVariant    // X-point rule (paper vs Carvalho)
	BRule         icg.BVariant    // B-point rule (ablation A1)
	NaiveMorph    bool            // O(n*k) morphology engine (ablation A4)
	CausalFilters bool            // single-pass filters (ablation A5)
	Body          hemo.BodyConstants
	ECGFrontEnd   afe.ECGConfig
	ICGFrontEnd   afe.ICGConfig
	MCU           mcu.STM32L151
	OutlierK      float64 // MAD multiplier for beat rejection (default 4)
	// Gate configures the per-beat signal-quality gate both engines
	// route every beat through (zero fields fall back to
	// quality.DefaultGate(FS)).
	Gate quality.GateConfig
}

// DefaultConfig returns the device configuration used throughout the
// paper's evaluation: 250 Hz sampling, 50 kHz injection, position 1.
func DefaultConfig() Config {
	return Config{
		FS:            250,
		InjectionFreq: 50e3,
		Position:      bioimp.Position1,
		XRule:         icg.XPaper,
		BRule:         icg.BPaper,
		Body:          hemo.DefaultBody(),
		ECGFrontEnd:   afe.DefaultECG(),
		ICGFrontEnd:   afe.DefaultICG(),
		MCU:           mcu.DefaultSTM32L151(),
		OutlierK:      4,
	}
}

// Device is the assembled touch system. The conditioning filters of Fig 3
// are designed once here — re-running the windowed-sinc and bilinear
// designs on every Process call is pure waste on an MCU and dominated the
// constant-rate allocation profile of the Go pipeline. A pool of scratch
// arenas makes concurrent Process calls (the parallel study engine) safe
// while keeping steady-state allocations near zero; streaming sessions
// borrow from the same pool one beat at a time.
type Device struct {
	cfg   Config
	touch bioimp.Instrument
	bank  *filterBank
	// gate is the per-beat quality gate both engines share;
	// gateStreams pools its Reset streaming state for concurrent batch
	// Process calls.
	gate        *quality.BeatGate
	gateStreams sync.Pool

	// banks memoizes filter banks designed for acquisitions sampled at
	// a different rate than the device configuration, keyed by fs; the
	// whole bank design (windowed sinc, pole placement, bilinear
	// transforms, chain assembly) runs at most once per rate.
	banks sync.Map // float64 -> *filterBank

	arenas dsp.ArenaPool // per-call and per-beat scratch for every engine
}

// filterBank holds every filter the pipeline applies, designed once for
// one sampling rate, plus the conditioning chains (stage.go) both
// engines share.
type filterBank struct {
	fs      float64
	ecgFIR  *dsp.FIR // 32nd-order 0.05-40 Hz band-pass (Section IV-A.1)
	icgLP   dsp.SOS  // 20 Hz Butterworth low-pass (Section IV-A.2)
	icgHP   dsp.SOS  // 0.5 Hz band-edge high-pass (icg.DefaultFilter)
	twaveLP dsp.SOS  // 10 Hz T-wave low-pass (Carvalho X variant)
	ptSOS   dsp.SOS  // Pan-Tompkins QRS band-pass

	blCfg    ecg.BaselineConfig
	ecgChain Chain // baseline removal + FIR band-pass
	icgChain Chain // -dZ/dt + Butterworth conditioning
}

// designBank designs the full filter bank and conditioning chains for
// sampling rate fs under the device configuration. The FIR pre-builds
// its reversed-tap (and, when wide enough, FFT overlap-save) state so
// steady-state filtering never mutates shared data.
func designBank(cfg Config, fs float64) (*filterBank, error) {
	b := &filterBank{fs: fs}
	var err error
	if b.ecgFIR, err = ecg.DefaultBandPass(fs).Design(); err != nil {
		return nil, err
	}
	b.ecgFIR.Prepare()
	if b.icgLP, b.icgHP, err = icg.DefaultFilter(fs).Design(); err != nil {
		return nil, err
	}
	if b.twaveLP, err = ecg.DesignTWaveLowPass(fs); err != nil {
		return nil, err
	}
	if b.ptSOS, err = ecg.DesignPTBandPass(ecg.DefaultPT(fs)); err != nil {
		return nil, err
	}
	buildChains(cfg, fs, b)
	return b, nil
}

// bankFor returns the bank for sampling rate fs: the construction-time
// bank for the configured rate, or a memoized per-rate bank for
// off-rate acquisitions (designed on first use, then cached).
func (d *Device) bankFor(fs float64) (*filterBank, error) {
	if fs == d.bank.fs {
		return d.bank, nil
	}
	if cached, ok := d.banks.Load(fs); ok {
		return cached.(*filterBank), nil
	}
	b, err := designBank(d.cfg, fs)
	if err != nil {
		return nil, err
	}
	actual, _ := d.banks.LoadOrStore(fs, b)
	return actual.(*filterBank), nil
}

// Configuration errors.
var (
	ErrBadConfig = errors.New("core: invalid device configuration")
	ErrNoECG     = errors.New("core: no QRS complexes detected")
)

// NewDevice validates the configuration and builds a device.
func NewDevice(cfg Config) (*Device, error) {
	if cfg.FS <= 0 {
		return nil, ErrBadConfig
	}
	if cfg.InjectionFreq <= 0 {
		return nil, ErrBadConfig
	}
	if cfg.ECGFrontEnd.SampleRate == 0 {
		cfg.ECGFrontEnd = afe.DefaultECG()
	}
	if cfg.ICGFrontEnd.SampleRate == 0 {
		cfg.ICGFrontEnd = afe.DefaultICG()
	}
	cfg.ECGFrontEnd.SampleRate = cfg.FS
	cfg.ICGFrontEnd.SampleRate = cfg.FS
	cfg.ICGFrontEnd.CarrierFreq = cfg.InjectionFreq
	if err := cfg.ECGFrontEnd.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.ICGFrontEnd.Validate(); err != nil {
		return nil, err
	}
	if cfg.MCU.ClockHz == 0 {
		cfg.MCU = mcu.DefaultSTM32L151()
	}
	if cfg.Body.BloodResistivity == 0 {
		cfg.Body = hemo.DefaultBody()
	}
	if cfg.OutlierK == 0 {
		cfg.OutlierK = 4
	}
	d := &Device{cfg: cfg, touch: bioimp.TouchInstrument()}
	gcfg := cfg.Gate
	gcfg.FS = cfg.FS
	d.gate = quality.NewBeatGate(gcfg)
	d.cfg.Gate = d.gate.Config()
	d.gateStreams.New = func() any { return d.gate.NewBatchStream() }
	var err error
	if d.bank, err = designBank(cfg, cfg.FS); err != nil {
		return nil, err
	}
	return d, nil
}

// Gate returns the device's per-beat quality gate.
func (d *Device) Gate() *quality.BeatGate { return d.gate }

// getGateStream checks a reset gate stream out of the device pool.
func (d *Device) getGateStream() *quality.GateStream {
	gs := d.gateStreams.Get().(*quality.GateStream)
	gs.Reset()
	return gs
}

// Config returns the resolved configuration.
func (d *Device) Config() Config { return d.cfg }

// Acquisition bundles the sampled channels of one touch session.
type Acquisition struct {
	FS   float64
	ECG  []float64 // quantized ECG (mV)
	Z    []float64 // quantized impedance (Ohm)
	IMU  []imu.Sample
	Meas *bioimp.Measurement
	// Rec is the generating ground truth; evaluation-only, never used by
	// Process.
	Rec *physio.Recording
}

// VerifyPosition classifies the arm position from the acquisition's IMU
// window (the accelerometer/gyroscope of Section III-A "distinguish
// different positions") and reports whether it matches the configured
// position. ok is false when the classifier is not confident.
func (d *Device) VerifyPosition(acq *Acquisition) (detected bioimp.Position, match, ok bool) {
	detected, ok = imu.Classify(acq.IMU)
	return detected, ok && detected == d.cfg.Position, ok
}

// Acquire simulates a touch measurement of the given duration: the subject
// model produces the physiology, the body model turns it into a measured
// impedance and touch-lead ECG at the configured injection frequency and
// position, and the front ends sample and quantize both channels.
func (d *Device) Acquire(sub *physio.Subject, duration float64) (*Acquisition, error) {
	gen := physio.DefaultGenConfig()
	gen.Duration = duration
	gen.FS = d.cfg.FS
	rec := sub.Generate(gen)
	meas := bioimp.MeasureDevice(sub, rec, d.touch, d.cfg.InjectionFreq, d.cfg.Position)
	rng := physio.NewRNG(sub.Seed*31 + int64(d.cfg.Position))
	ecgQ := d.cfg.ECGFrontEnd.Acquire(meas.ECG, rng)
	zQ := d.cfg.ICGFrontEnd.Acquire(meas.Z, rng)
	// Two seconds of IMU data for position verification, with the
	// subject's position-dependent motion level.
	imuCfg := imu.DefaultConfig()
	pi := int(d.cfg.Position) - 1
	if pi >= 0 && pi < 3 {
		imuCfg.MotionLevel = sub.PosMotion[pi] - 1
	}
	samples := imu.Synthesize(rng, imuCfg, d.cfg.Position, int(2*imuCfg.FS))
	return &Acquisition{FS: d.cfg.FS, ECG: ecgQ, Z: zQ, IMU: samples, Meas: meas, Rec: rec}, nil
}

// AcquireReference simulates the traditional thoracic-electrode
// acquisition used as the study's gold standard.
func (d *Device) AcquireReference(sub *physio.Subject, duration float64) (*Acquisition, error) {
	gen := physio.DefaultGenConfig()
	gen.Duration = duration
	gen.FS = d.cfg.FS
	rec := sub.Generate(gen)
	ins := bioimp.TraditionalInstrument()
	meas := bioimp.MeasureReference(sub, rec, ins, d.cfg.InjectionFreq)
	rng := physio.NewRNG(sub.Seed * 17)
	ecgQ := d.cfg.ECGFrontEnd.Acquire(meas.ECG, rng)
	zQ := d.cfg.ICGFrontEnd.Acquire(meas.Z, rng)
	return &Acquisition{FS: d.cfg.FS, ECG: ecgQ, Z: zQ, Meas: meas, Rec: rec}, nil
}

// Output is the result of processing one acquisition. Beats carries
// every analyzable beat with its Quality score and the gate's Accepted
// flag; Summary (and Gated.Gated) aggregate only the accepted beats.
// Accepted is the per-beat signal-quality decision alone: the residual
// k-MAD STI screen inside SummarizeGated narrows the Summary but never
// clears Accepted, because a series-level screen cannot be applied
// beat-by-beat and the batch and streaming flags must agree. Consumers
// filtering on Accepted (radio transmission) therefore match the
// streaming engine's behavior, not the pre-gate RejectOutliers batch
// behavior.
type Output struct {
	RPeaks []int
	TPeaks []int
	Beats  []hemo.BeatParams
	// Summary aggregates the accepted beats (with the residual k-MAD
	// STI screen); Gated pairs it with the ungated Raw view and the
	// quality-weighted means.
	Summary hemo.Summary
	Gated   hemo.GatedSummary
	// AcceptRate is the gate's acceptance over every delineated beat —
	// failed delineations count as rejected, exactly like
	// Streamer.AcceptRate, so both engines feed PMU.DecideGated the
	// same number. Gated.AcceptRate is the narrower emitted-beat
	// measure (accepted / analyzable).
	AcceptRate float64
	Yield      float64 // fraction of RR segments successfully analyzed
	Z0         float64 // mean measured base impedance (Ohm)
	Cost       *mcu.Counter
	CondECG    []float64 // conditioned ECG (after the Section IV-A chain)
	ICGTrack   []float64 // filtered ICG (-dZ/dt after 20 Hz low-pass)
}

// DutyCycle prices the processing of this output's window on the device
// MCU, including the calibrated firmware overhead.
func (d *Device) DutyCycle(out *Output, windowSeconds float64) float64 {
	return d.cfg.MCU.DutyCycle(out.Cost.Cycles(mcu.CortexM3SoftFloat()), windowSeconds)
}

// RawDutyCycle is the purely algorithmic duty-cycle lower bound.
func (d *Device) RawDutyCycle(out *Output, windowSeconds float64) float64 {
	return d.cfg.MCU.RawDutyCycle(out.Cost.Cycles(mcu.CortexM3SoftFloat()), windowSeconds)
}

// Run acquires and processes in one call.
func (d *Device) Run(sub *physio.Subject, duration float64) (*Acquisition, *Output, error) {
	acq, err := d.Acquire(sub, duration)
	if err != nil {
		return nil, nil, err
	}
	out, err := d.Process(acq)
	if err != nil {
		return acq, nil, err
	}
	return acq, out, nil
}

// MeanZ returns the average impedance of an acquisition (the Z0 the device
// reports).
func (a *Acquisition) MeanZ() float64 { return dsp.Mean(a.Z) }
