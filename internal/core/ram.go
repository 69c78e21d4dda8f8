package core

// RAM budgeting. The STM32L151 of Table I has 48 KB of RAM; a 30-second
// two-channel acquisition at 250 Hz held as 32-bit samples already needs
// 60 KB, so the firmware cannot process sessions in batch. The
// incremental streaming engine (stream.go), whose history rings are
// bounded by detector horizons rather than a recording length, is what
// actually fits — this file quantifies both, and the tests pin the
// conclusion.

import (
	"repro/internal/icg"
	"repro/internal/quality"
)

// RAMBudget itemizes the working set of a processing mode.
type RAMBudget struct {
	Mode        string
	SampleBytes int // bytes per stored sample (firmware uses float32)
	Items       []RAMItem
}

// RAMItem is one buffer of the working set.
type RAMItem struct {
	Name  string
	Bytes int
}

// Total sums the working set.
func (r RAMBudget) Total() int {
	t := 0
	for _, it := range r.Items {
		t += it.Bytes
	}
	return t
}

// BatchRAM returns the working set of whole-session batch processing:
// both raw channels plus the conditioned ECG and filtered ICG tracks.
func BatchRAM(fs, seconds float64) RAMBudget {
	const sampleBytes = 4 // float32 on the MCU
	n := int(fs * seconds)
	buf := n * sampleBytes
	return RAMBudget{
		Mode:        "batch",
		SampleBytes: sampleBytes,
		Items: []RAMItem{
			{Name: "ecg-raw", Bytes: buf},
			{Name: "z-raw", Bytes: buf},
			{Name: "ecg-conditioned", Bytes: buf},
			{Name: "icg-filtered", Bytes: buf},
			{Name: "detector-state", Bytes: 2 * 1024},
		},
	}
}

// StreamingRAM returns the working set of the incremental streaming
// engine: no rolling windows are re-analyzed, but the detectors keep
// bounded history rings (QRS slope and refinement windows, and the raw
// impedance history that the delineator replays its ICG from and the
// quality gate and the base-impedance estimate share) at firmware
// float32 widths. The ring horizons are read off a streamer built for
// the profile, so they follow stream.go by construction; fs must admit
// the device's filter designs.
//
// The horizons are those of the streamer the server runs, whose ECG
// band-pass uses the block-carried overlap-save engine; its block lag
// lengthens the feed's lead past a closing R, so firmware running the
// direct recurrence needs slightly less. The engine's FFT working set
// (~4 KB of carry block and spectrum per stream, plus the kernel
// spectrum and twiddles every stream shares) is left out: the direct
// recurrence holds only the kernel's delay line.
func StreamingRAM(fs float64, sc StreamConfig) RAMBudget {
	const sampleBytes = 4
	st := profileStreamer(fs, sc)
	samples := func(n int) int { return n * sampleBytes }
	return RAMBudget{
		Mode:        "streaming",
		SampleBytes: sampleBytes,
		Items: []RAMItem{
			// Delay lines, monotonic deques and biquad registers of the
			// conditioning chains and the QRS band-pass, and the
			// delineator's forward-pass checkpoints.
			{Name: "filter-state", Bytes: 2 * 1024},
			// Incremental Pan-Tompkins history (conditioned and
			// band-passed): the refractory period plus the slope and
			// refinement windows each candidate is measured over, plus
			// the sub-chunk Push band-passes ahead, which takes up the
			// rings' power-of-two rounding (History: 256 samples at
			// 250 Hz, so 2 KB of the 28.5 KB total at float32).
			{Name: "qrs-history", Bytes: 2 * samples(st.pt.History())},
			// Per-beat scratch: the longest window the delineator
			// replays -dZ/dt over and refilters.
			{Name: "refilter-scratch", Bytes: samples(st.delin.MaxReplay())},
			// Raw impedance history, read by the delineator (each beat's
			// window back to its forward-pass checkpoint), the quality
			// gate (the beat segment it scores) and the causal Z0
			// estimate (the running sum folded up to each closing R):
			// what the hungrier of the delineator and the gate needs.
			{Name: "raw-z-history", Bytes: samples(st.rawN)},
			// Quality-gate state: the ensemble template plus the running
			// extremes, acceptance tallies and EWMA.
			{Name: "gate-state", Bytes: samples(icg.ShapeBins) + 32},
			{Name: "beat-queue", Bytes: 512},
		},
	}
}

// profileStreamer builds a streamer of the default device, with its
// default quality gate, at rate fs, for reading ring horizons off.
func profileStreamer(fs float64, sc StreamConfig) *Streamer {
	d := &Device{cfg: DefaultConfig()}
	d.cfg.FS = fs
	d.gate = quality.NewBeatGate(quality.DefaultGate(fs))
	bank, err := designBank(d.cfg, fs)
	if err != nil {
		panic("core: StreamingRAM: " + err.Error())
	}
	d.bank = bank
	return d.NewStreamer(sc)
}
