package core

import (
	"repro/internal/bioimp"
	"repro/internal/dsp"
	"repro/internal/ecg"
	"repro/internal/hemo"
	"repro/internal/icg"
	"repro/internal/quality"
)

// Process runs the embedded pipeline of Fig 3 on an acquisition:
//
//	ECG: morphological baseline removal -> 32nd-order FIR band-pass
//	     (zero-phase) -> Pan-Tompkins QRS detection
//	ICG: Z -> -dZ/dt -> 20 Hz Butterworth low-pass (zero-phase) ->
//	     beat segmentation at R peaks -> B/C/X detection
//	->   beat-to-beat hemodynamic parameters (Z0, LVET, PEP, HR, SV, CO)
//
// Every stage also records its operation counts so the MCU duty cycle can
// be priced (experiment E8).
//
// The filters were designed once at NewDevice, and all full-length
// intermediates live in a pooled scratch arena, so the steady-state path
// only heap-allocates what the Output retains. Process is safe for
// concurrent use on one Device.
func (d *Device) Process(acq *Acquisition) (*Output, error) {
	fs := acq.FS
	n := len(acq.ECG)
	cost := newCostEstimator(d.cfg)

	bank, err := d.bankFor(fs)
	if err != nil {
		return nil, err
	}
	ar := d.arenas.Get()
	defer d.arenas.Put(ar)

	// --- ECG conditioning (the shared stage chain: morphological
	// baseline removal then the FIR band-pass).
	condECG := bank.ecgChain.Apply(ar, acq.ECG)
	cost.baseline(n, bank.blCfg)
	if d.cfg.CausalFilters {
		cost.fir(n, len(bank.ecgFIR.Taps), 1)
	} else {
		cost.fir(n, len(bank.ecgFIR.Taps), 2)
	}

	// --- QRS detection.
	ptCfg := ecg.DefaultPT(fs)
	ptCfg.BandSOS = bank.ptSOS
	ptRes, err := ecg.DetectQRSWith(ar, condECG, ptCfg)
	if err != nil {
		return nil, err
	}
	cost.panTompkins(n)
	if len(ptRes.RPeaks) < 2 {
		return nil, ErrNoECG
	}

	// --- ICG derivation and conditioning (the shared stage chain:
	// -dZ/dt then the Butterworth cascade).
	icgF := bank.icgChain.Apply(ar, acq.Z)
	cost.derivative(n)
	if d.cfg.CausalFilters {
		cost.sos(n, 3, 1)
	} else {
		cost.sos(n, 3, 2)
	}

	// --- T peaks (needed by the Carvalho X variant only).
	var tPeaks []int
	if d.cfg.XRule == icg.XCarvalho {
		tPeaks = ecg.TPeaksForBeatsWith(ar, bank.twaveLP, condECG, ptRes.RPeaks, fs)
		cost.sos(n, 2, 2) // the 10 Hz T-wave low-pass
	}

	// --- Beat-to-beat point detection.
	dCfg := icg.DefaultDetect(fs)
	dCfg.XRule = d.cfg.XRule
	dCfg.BRule = d.cfg.BRule
	beats := icg.DetectAllWith(ar, icgF, ptRes.RPeaks, tPeaks, dCfg)
	avgBeat := 0
	if len(ptRes.RPeaks) > 1 {
		avgBeat = (ptRes.RPeaks[len(ptRes.RPeaks)-1] - ptRes.RPeaks[0]) / (len(ptRes.RPeaks) - 1)
	}
	cost.pointDetect(len(beats), avgBeat)

	// --- Per-beat quality gating: the raw impedance channel and the
	// delineated beats run through the device gate in beat order — the
	// same gate chain the incremental Streamer drives, so batch and
	// streaming acceptance decisions share one definition.
	var sqis []quality.BeatSQI
	acceptRate := 1.0
	if gs := d.getGateStream(); gs != nil {
		sqis = gs.Apply(ar, make([]quality.BeatSQI, 0, len(beats)), acq.Z, beats, ptRes.RPeaks)
		// Same definition as Streamer.AcceptRate: failed delineations
		// count as rejected, so both engines feed PMU.DecideGated the
		// same number for the same data.
		acceptRate = gs.AcceptRate()
		cost.gate(len(beats))
		d.gateStreams.Put(gs)
	}

	// --- Hemodynamic parameters. Touch-path acquisitions apply the
	// hand-to-hand -> thoracic calibration before the volume formulas.
	z0 := dsp.Mean(acq.Z)
	cal := hemo.IdentityCal()
	if acq.Meas == nil || acq.Meas.Path == bioimp.PathHandToHand {
		cal = hemo.TouchCal()
	}
	params, err := hemo.SeriesWith(nil, beats, sqis, ptRes.RPeaks, z0, fs, d.cfg.Body, cal)
	if err != nil {
		return nil, err
	}
	gated := hemo.SummarizeGated(params, d.cfg.OutlierK)
	cost.hemo(len(params))
	cost.radio(gated.Gated.Beats)

	out := &Output{
		RPeaks:     ptRes.RPeaks,
		TPeaks:     tPeaks,
		Beats:      params,
		Summary:    gated.Gated,
		Gated:      gated,
		AcceptRate: acceptRate,
		Yield:      icg.YieldRate(beats),
		Z0:         z0,
		Cost:       cost.counter,
		// The conditioned traces are arena-owned; the Output keeps copies.
		CondECG:  dsp.Clone(condECG),
		ICGTrack: dsp.Clone(icgF),
	}

	// --- Optional ensemble-averaged measurement: R-aligned averaging
	// without resampling, so the intervals on the averaged beat keep
	// their absolute time axis.
	if d.cfg.Ensemble {
		meanRR := dsp.Mean(ecg.RRIntervals(ptRes.RPeaks, fs))
		ensLen := int(0.9 * meanRR * fs)
		if maxLen := int(0.9 * fs); ensLen > maxLen {
			ensLen = maxLen
		}
		ens := icg.EnsembleAligned(icgF, ptRes.RPeaks, ensLen)
		cost.ensemble(len(ptRes.RPeaks), ensLen)
		if ens != nil {
			if pts, derr := icg.DetectBeat(ens, 0, len(ens), -1, dCfg); derr == nil {
				bp := hemo.FromPoints(pts, int(meanRR*fs), z0, fs, d.cfg.Body, cal)
				out.Ensemble = &bp
			}
		}
	}
	return out, nil
}
