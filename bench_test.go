package touchicg

// One benchmark per table and figure of the paper's evaluation (DESIGN.md
// experiments E1-E10) plus the design-choice ablations A1-A6. Each bench
// times the code that regenerates the artifact and logs a compact
// paper-vs-measured comparison once; `go test -bench=. -benchmem` with
// -v shows the tables.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bioimp"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/ecg"
	"repro/internal/hw/power"
	"repro/internal/hw/radio"
	"repro/internal/icg"
	"repro/internal/physio"
	"repro/internal/quality"
	"repro/internal/study"
	"repro/internal/wavelet"
)

var (
	studyOnce    sync.Once
	studyResults *study.Results
	studyErr     error
)

func sharedStudy(b *testing.B) *study.Results {
	b.Helper()
	studyOnce.Do(func() {
		studyResults, studyErr = study.Run(study.DefaultConfig())
	})
	if studyErr != nil {
		b.Fatalf("study: %v", studyErr)
	}
	return studyResults
}

// --- E1: Table I and the 106-hour battery-life claim. ---

func BenchmarkTableI_PowerBudget(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		budget := power.PaperScenario()
		avg = budget.AverageCurrentMA()
	}
	b.ReportMetric(avg, "mA-avg")
	b.Logf("Table I budget:\n%s", power.PaperScenario().Report())
}

func BenchmarkBatteryLife106h(b *testing.B) {
	var hours float64
	for i := 0; i < b.N; i++ {
		budget := power.PaperScenario()
		hours = power.DeviceBattery().LifetimeHours(budget.AverageCurrentMA())
	}
	b.ReportMetric(hours, "hours")
	b.Logf("battery life: measured %.1f h, paper 106 h", hours)
}

// --- E2: Fig 5, characteristic points on a beat train. ---

func BenchmarkFig5_CharacteristicPoints(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	cfg := physio.DefaultGenConfig()
	cfg.ICGNoiseStd = 0.005
	rec := sub.Generate(cfg)
	filt, err := icg.DefaultFilter(rec.FS).Apply(rec.ICG)
	if err != nil {
		b.Fatal(err)
	}
	tr := rec.Truth
	var dB, dC, dX float64
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dB, dC, dX = 0, 0, 0
		n = 0
		for k := 0; k+1 < tr.Beats(); k++ {
			pts, err := icg.DetectBeat(filt, tr.RPeaks[k], tr.RPeaks[k+1], -1, icg.DefaultDetect(rec.FS))
			if err != nil {
				continue
			}
			dB += float64(pts.B-tr.BPoints[k]) / rec.FS
			dC += float64(pts.C-tr.CPoints[k]) / rec.FS
			dX += float64(pts.X-tr.XPoints[k]) / rec.FS
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(dC/float64(n)*1000, "ms-C-bias")
		b.Logf("Fig 5 point biases over %d beats: B %+.1f ms, C %+.1f ms, X %+.1f ms",
			n, dB/float64(n)*1000, dC/float64(n)*1000, dX/float64(n)*1000)
	}
}

// --- E3/E4: Figs 6-7, bioimpedance vs frequency. ---

func BenchmarkFig6_ThoracicBioimpedance(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	gen := physio.DefaultGenConfig()
	rec := sub.Generate(gen)
	ins := bioimp.TraditionalInstrument()
	var z [4]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for fi, f := range bioimp.StudyFrequencies() {
			z[fi] = bioimp.MeasureReference(&sub, rec, ins, f).MeanZ()
		}
	}
	b.StopTimer()
	res := sharedStudy(b)
	b.Logf("Fig 6 shape (subject 1): 2k=%.1f 10k=%.1f 50k=%.1f 100k=%.1f Ohm (paper: rise to 10 kHz, then fall)", z[0], z[1], z[2], z[3])
	b.Logf("\n%s", res.Fig6Table())
}

func BenchmarkFig7_DeviceBioimpedance(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	ins := bioimp.TouchInstrument()
	var z float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pos := range bioimp.Positions() {
			for _, f := range bioimp.StudyFrequencies() {
				z = bioimp.MeasureDevice(&sub, rec, ins, f, pos).MeanZ()
			}
		}
	}
	b.StopTimer()
	_ = z
	res := sharedStudy(b)
	b.Logf("\n%s", res.Fig7Table())
}

// --- E5: Tables II-IV, correlations. ---

func BenchmarkTablesII_IV_Correlation(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	ref := bioimp.MeasureReference(&sub, rec, bioimp.TraditionalInstrument(), 50e3)
	var r float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := bioimp.MeasureDevice(&sub, rec, bioimp.TouchInstrument(), 50e3, bioimp.Position1)
		r = dsp.Pearson(ref.Z, dev.Z)
	}
	b.StopTimer()
	b.ReportMetric(r, "pearson-r")
	res := sharedStudy(b)
	for pos := 1; pos <= 3; pos++ {
		b.Logf("\n%s", res.CorrelationTable(pos))
	}
}

// --- E6: Fig 8, relative displacement errors. ---

func BenchmarkFig8_RelativeError(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	ins := bioimp.TouchInstrument()
	var e21 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m1 := bioimp.MeasureDevice(&sub, rec, ins, 50e3, bioimp.Position1).MeanZ()
		m2 := bioimp.MeasureDevice(&sub, rec, ins, 50e3, bioimp.Position2).MeanZ()
		e21 = dsp.RelativeError(m2, m1)
	}
	b.StopTimer()
	b.ReportMetric(e21*100, "%err-e21")
	res := sharedStudy(b)
	b.Logf("\n%s", res.Fig8Table())
}

// --- E7: Fig 9, hemodynamic parameters. ---

func BenchmarkFig9_Hemodynamics(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var out *core.Output
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err = dev.Run(&sub, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(out.Summary.LVET.Mean*1000, "ms-LVET")
	b.ReportMetric(out.Summary.PEP.Mean*1000, "ms-PEP")
	res := sharedStudy(b)
	b.Logf("\n%s", res.Fig9Table())
}

// --- E8: the 40-50% CPU duty-cycle claim. ---

func BenchmarkDutyCycle(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	acq, err := dev.Acquire(&sub, 30)
	if err != nil {
		b.Fatal(err)
	}
	var duty, raw float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := dev.Process(acq)
		if err != nil {
			b.Fatal(err)
		}
		duty = dev.DutyCycle(out, 30)
		raw = dev.RawDutyCycle(out, 30)
	}
	b.ReportMetric(duty*100, "%duty")
	b.Logf("CPU duty cycle: calibrated %.1f%% (paper: 40-50%%), algorithmic floor %.1f%%",
		duty*100, raw*100)
}

// --- E9: radio duty cycle for the beat-record stream. ---

func BenchmarkRadioDutyCycle(b *testing.B) {
	var duty float64
	for i := 0; i < b.N; i++ {
		duty = radio.BeatStreamDuty(72, radio.DefaultLink())
	}
	b.ReportMetric(duty*100, "%duty")
	b.Logf("radio duty at 72 bpm: %.4f%% (paper: ~0.1-1%%)", duty*100)
}

// --- E10: aggregate claims. ---

func BenchmarkOverallClaims(b *testing.B) {
	res := sharedStudy(b)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mean = res.MeanCorrelation()
	}
	b.ReportMetric(mean, "mean-r")
	b.Logf("\n%s", res.ClaimsSummary())
}

// --- A1: B-point rule ablation. ---

func BenchmarkAblationBPoint(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	filt, _ := icg.DefaultFilter(rec.FS).Apply(rec.ICG)
	tr := rec.Truth
	rules := []struct {
		name string
		rule icg.BVariant
	}{{"paper", icg.BPaper}, {"zerocross", icg.BZeroCrossOnly}, {"linefit", icg.BLineFitOnly}}
	report := make([]string, 0, len(rules))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report = report[:0]
		for _, r := range rules {
			cfg := icg.DefaultDetect(rec.FS)
			cfg.BRule = r.rule
			bias, n := 0.0, 0
			for k := 0; k+1 < tr.Beats(); k++ {
				pts, err := icg.DetectBeat(filt, tr.RPeaks[k], tr.RPeaks[k+1], -1, cfg)
				if err != nil {
					continue
				}
				bias += math.Abs(float64(pts.B-tr.BPoints[k])) / rec.FS
				n++
			}
			if n > 0 {
				report = append(report, fmt.Sprintf("%s |B err| = %.1f ms", r.name, bias/float64(n)*1000))
			}
		}
	}
	b.StopTimer()
	for _, line := range report {
		b.Logf("A1 %s", line)
	}
}

// --- A2: X-point window ablation (paper rule vs Carvalho RT window). ---

func BenchmarkAblationXPoint(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	filt, _ := icg.DefaultFilter(rec.FS).Apply(rec.ICG)
	tr := rec.Truth
	tPeaks := make([]int, tr.Beats())
	for i, r := range tr.RPeaks {
		tPeaks[i] = r + int(physio.TPeakOffset(tr.RR[i])*rec.FS)
	}
	var msPaper, msCarv float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msPaper, msCarv = 0, 0
		n := 0
		for k := 0; k+1 < tr.Beats(); k++ {
			cfgP := icg.DefaultDetect(rec.FS)
			p1, err1 := icg.DetectBeat(filt, tr.RPeaks[k], tr.RPeaks[k+1], -1, cfgP)
			cfgC := icg.DefaultDetect(rec.FS)
			cfgC.XRule = icg.XCarvalho
			p2, err2 := icg.DetectBeat(filt, tr.RPeaks[k], tr.RPeaks[k+1], tPeaks[k], cfgC)
			if err1 != nil || err2 != nil {
				continue
			}
			msPaper += math.Abs(float64(p1.X-tr.XPoints[k])) / rec.FS
			msCarv += math.Abs(float64(p2.X-tr.XPoints[k])) / rec.FS
			n++
		}
		if n > 0 {
			msPaper = msPaper / float64(n) * 1000
			msCarv = msCarv / float64(n) * 1000
		}
	}
	b.ReportMetric(msPaper, "ms-Xerr-paper")
	b.Logf("A2 |X err|: paper rule %.1f ms vs Carvalho RT window %.1f ms", msPaper, msCarv)
}

// --- A3: baseline-removal ablation (morphology vs wavelet vs FIR only). ---

func BenchmarkAblationBaseline(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	clean := physio.DefaultGenConfig()
	clean.ECGBaselineDrift = 0
	clean.ECGNoiseStd = 0
	clean.PowerlineAmp = 0
	recClean := sub.Generate(clean)
	drifted := clean
	drifted.ECGBaselineDrift = 0.5
	recDrift := sub.Generate(drifted)

	var rmseMorph, rmseWave, rmseFIR float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ecg.RemoveBaseline(recDrift.ECG, ecg.DefaultBaseline(250))
		rmseMorph = dsp.RMSE(m, recClean.ECG)

		w, err := wavelet.RemoveBaseline(wavelet.Daubechies8(), recDrift.ECG, 8)
		if err != nil {
			b.Fatal(err)
		}
		rmseWave = dsp.RMSE(w, recClean.ECG)

		hp, err := dsp.DesignHighPass(250, 0.5, 250, dsp.WindowHamming)
		if err != nil {
			b.Fatal(err)
		}
		f := dsp.FiltFiltFIR(hp, recDrift.ECG)
		rmseFIR = dsp.RMSE(f, recClean.ECG)
	}
	b.ReportMetric(rmseMorph, "rmse-morph")
	b.Logf("A3 baseline removal RMSE vs clean ECG: morphology %.4f, wavelet %.4f, FIR high-pass %.4f",
		rmseMorph, rmseWave, rmseFIR)
}

// --- A4: morphology engine ablation (naive O(nk) vs O(n); "Deque"
// names the O(n) engine, now dsp.MovExtStream's block kernel). ---

func BenchmarkAblationMorphEngineNaive(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	cfg := ecg.DefaultBaseline(250)
	cfg.Naive = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ecg.RemoveBaseline(rec.ECG, cfg)
	}
}

func BenchmarkAblationMorphEngineDeque(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	cfg := ecg.DefaultBaseline(250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ecg.RemoveBaseline(rec.ECG, cfg)
	}
}

// --- A5: zero-phase vs causal filtering ablation. ---

func BenchmarkAblationZeroPhase(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	mk := func(causal bool) (*core.Device, *core.Output) {
		cfg := core.DefaultConfig()
		cfg.CausalFilters = causal
		dev, err := core.NewDevice(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, out, err := dev.Run(&sub, 30)
		if err != nil {
			b.Fatal(err)
		}
		return dev, out
	}
	var pepZero, pepCausal float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, oz := mk(false)
		_, oc := mk(true)
		pepZero = oz.Summary.PEP.Mean
		pepCausal = oc.Summary.PEP.Mean
	}
	b.ReportMetric((pepCausal-pepZero)*1000, "ms-PEP-shift")
	b.Logf("A5 PEP: zero-phase %.1f ms vs causal %.1f ms (group delay leaks into timing)",
		pepZero*1000, pepCausal*1000)
}

// --- A6: PMU policy ablation. ---

func BenchmarkAblationPMU(b *testing.B) {
	var cont, eco, spot float64
	for i := 0; i < b.N; i++ {
		cont = core.LifetimeHours(core.ModeContinuous, 0.5)
		eco = core.LifetimeHours(core.ModeEco, 0.5)
		spot = core.LifetimeHours(core.ModeSpotCheck, 0.5)
	}
	b.ReportMetric(cont, "hours-continuous")
	b.Logf("A6 lifetimes: continuous %.0f h, eco %.0f h, spot-check %.0f h", cont, eco, spot)
}

// --- Component micro-benchmarks (pipeline hot paths). ---

func BenchmarkPanTompkins30s(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	cond, err := ecg.Clean(rec.ECG, 250)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ecg.DetectQRS(cond, ecg.DefaultPT(250)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECGConditioning30s(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ecg.Clean(rec.ECG, 250); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkICGFilter30s(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := icg.DefaultFilter(250).Apply(rec.ICG); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullPipeline30s(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	acq, err := dev.Acquire(&sub, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Process(acq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullStudy(b *testing.B) {
	if testing.Short() {
		b.Skip("full study in short mode")
	}
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(study.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBeatRecordCodec(b *testing.B) {
	rec := radio.BeatRecord{TimestampMs: 1234, Z0: 481.5, LVET: 0.295, PEP: 0.086, HR: 64.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := rec.Marshal()
		if _, err := radio.UnmarshalBeat(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benches: streaming engine, wavelet baseline, Cole fitting,
// connection-event scheduling. ---

func BenchmarkStreamer30s(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	acq, err := dev.Acquire(&sub, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := dev.NewStreamer(core.DefaultStreamConfig())
		total := 0
		st.Emit(EventFunc(func(e Event) {
			if e.Kind == KindBeat {
				total++
			}
		}), 0)
		for pos := 0; pos < len(acq.ECG); pos += 250 {
			end := min(pos+250, len(acq.ECG))
			st.Push(acq.ECG[pos:end], acq.Z[pos:end])
		}
		st.Flush()
		if total == 0 {
			b.Fatal("no beats streamed")
		}
	}
}

func BenchmarkWaveletDenoise(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	rec := sub.Generate(physio.DefaultGenConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.Denoise(wavelet.Daubechies8(), rec.ICG, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColeFit(b *testing.B) {
	truth := bioimp.Cole{R0: 38, RInf: 21, Tau: 2.2e-6, Alpha: 0.66}
	freqs := bioimp.StudyFrequencies()
	mags := make([]float64, len(freqs))
	for i, f := range freqs {
		mags[i] = truth.Magnitude(f)
	}
	var res bioimp.FitResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bioimp.FitCole(freqs, mags)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Residual, "fit-residual")
}

func BenchmarkConnEventSchedule(b *testing.B) {
	var times []float64
	for i := 0; i < 120; i++ {
		times = append(times, float64(i)*0.937) // beats never on the event grid
	}
	cfg := radio.DefaultConn()
	var res radio.ScheduleResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = radio.Schedule(times, cfg)
	}
	b.ReportMetric(res.MeanLatency*1000, "ms-latency")
}

func BenchmarkQualityAssess(b *testing.B) {
	sub, _ := physio.SubjectByID(1)
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	_, out, err := dev.Run(&sub, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := quality.Assess(out.CondECG, out.ICGTrack, out.RPeaks, 250)
		if !rep.Usable() {
			b.Fatal("session should be usable")
		}
	}
}
