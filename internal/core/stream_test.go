package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/event"
	"repro/internal/hemo"
	"repro/internal/physio"
)

func TestStreamerMatchesBatch(t *testing.T) {
	s, _ := physio.SubjectByID(1)
	d := device(t, nil)
	acq, err := d.Acquire(&s, 30)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := d.Process(acq)
	if err != nil {
		t.Fatal(err)
	}

	// Feed the same samples in randomly sized chunks.
	rng := rand.New(rand.NewSource(42))
	streamed := streamBeats(d.NewStreamer(DefaultStreamConfig()), acq.ECG, acq.Z,
		func() int { return 50 + rng.Intn(400) })

	if len(streamed) == 0 {
		t.Fatal("no streamed beats")
	}
	// Beat count within a few beats of the batch pipeline (window edges
	// may cost a beat or two).
	if math.Abs(float64(len(streamed)-len(batch.Beats))) > 6 {
		t.Errorf("streamed %d beats, batch %d", len(streamed), len(batch.Beats))
	}
	// Beats must be strictly ordered in time, with physiological values.
	for i, b := range streamed {
		if i > 0 && b.TimeS <= streamed[i-1].TimeS {
			t.Fatalf("beats out of order at %d", i)
		}
		if b.HR < 40 || b.HR > 140 {
			t.Errorf("beat %d: HR %g", i, b.HR)
		}
		if b.PEP <= 0 || b.LVET <= 0 {
			t.Errorf("beat %d: non-positive STI", i)
		}
	}
	// Session means close to the batch pipeline.
	var hrS, pepS []float64
	for _, b := range streamed {
		hrS = append(hrS, b.HR)
		pepS = append(pepS, b.PEP)
	}
	if math.Abs(mean(hrS)-batch.Summary.HR.Mean) > 3 {
		t.Errorf("streamed HR %.1f vs batch %.1f", mean(hrS), batch.Summary.HR.Mean)
	}
	if math.Abs(mean(pepS)-batch.Summary.PEP.Mean) > 0.02 {
		t.Errorf("streamed PEP %.4f vs batch %.4f", mean(pepS), batch.Summary.PEP.Mean)
	}
}

func TestStreamerNoDuplicateBeats(t *testing.T) {
	s, _ := physio.SubjectByID(2)
	d := device(t, nil)
	acq, err := d.Acquire(&s, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Small pushes: the hard case for deduplication.
	all := streamBeats(d.NewStreamer(DefaultStreamConfig()), acq.ECG, acq.Z, every(25))
	seen := map[int]bool{}
	for _, b := range all {
		key := int(b.TimeS * 250)
		for k := key - 3; k <= key+3; k++ {
			if seen[k] {
				t.Fatalf("duplicate beat near t=%.2f", b.TimeS)
			}
		}
		seen[key] = true
	}
}

func TestStreamerLatency(t *testing.T) {
	d := device(t, nil)
	st := d.NewStreamer(DefaultStreamConfig())
	if l := st.Latency(); l <= 0 || l > 5 {
		t.Errorf("latency = %g s", l)
	}
}

// TestStreamerDirectFIRParity pins the DirectFIR A/B switch: the direct
// recurrence and the overlap-save engine compute the same conditioning
// to FFT rounding, so the two configurations must deliver the same
// beats; and the overlap-save engine's block-emission lag on the ECG
// side must stay hidden behind the ICG delineation context, leaving the
// reported Latency unchanged.
func TestStreamerDirectFIRParity(t *testing.T) {
	s, _ := physio.SubjectByID(3)
	d := device(t, nil)
	acq, err := d.Acquire(&s, 20)
	if err != nil {
		t.Fatal(err)
	}
	run := func(direct bool) []hemo.BeatParams {
		sc := DefaultStreamConfig()
		sc.DirectFIR = direct
		return streamBeats(d.NewStreamer(sc), acq.ECG, acq.Z, every(200))
	}
	os, direct := run(false), run(true)
	if len(os) == 0 || len(os) != len(direct) {
		t.Fatalf("overlap-save %d beats, direct %d", len(os), len(direct))
	}
	for i := range os {
		if math.Abs(os[i].TimeS-direct[i].TimeS) > 1e-9 ||
			math.Abs(os[i].PEP-direct[i].PEP) > 1e-9 ||
			math.Abs(os[i].LVET-direct[i].LVET) > 1e-9 {
			t.Fatalf("beat %d differs between engines: %+v vs %+v", i, os[i], direct[i])
		}
	}
	scD := DefaultStreamConfig()
	scD.DirectFIR = true
	if lo, ld := d.NewStreamer(DefaultStreamConfig()).Latency(), d.NewStreamer(scD).Latency(); lo != ld {
		t.Errorf("overlap-save changed Latency: %g vs direct %g", lo, ld)
	}
}

func TestStreamerPanicsOnLengthMismatch(t *testing.T) {
	d := device(t, nil)
	st := d.NewStreamer(DefaultStreamConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	st.Push(make([]float64, 3), make([]float64, 4))
}

func TestStreamerFlushShortBuffer(t *testing.T) {
	d := device(t, nil)
	buf := make([]float64, 10)
	if got := streamBeats(d.NewStreamer(DefaultStreamConfig()), buf, buf, every(10)); len(got) != 0 {
		t.Errorf("flush of tiny buffer should emit nothing, got %d beats", len(got))
	}
}

func TestSimulateSessionPMUExtendsLife(t *testing.T) {
	duty := 0.45
	// Continuous-only policy: thresholds that never trigger.
	always := PMU{EcoBelowPct: -1, SpotBelowPct: -2, MinYield: -1}
	cont := SimulateSession(always, duty, nil, 400)
	// Adaptive policy.
	adaptive := DefaultPMU()
	adapt := SimulateSession(adaptive, duty, nil, 400)
	if adapt.TotalHours <= cont.TotalHours {
		t.Errorf("adaptive (%.0f h) should outlast continuous (%.0f h)",
			adapt.TotalHours, cont.TotalHours)
	}
	// Continuous at 45% duty should die near 710/6.15 ~ 115 h.
	if cont.TotalHours < 100 || cont.TotalHours > 135 {
		t.Errorf("continuous lifetime = %.0f h", cont.TotalHours)
	}
	// The adaptive run must actually visit eco and spot-check modes.
	if adapt.ModeHours[ModeEco] == 0 || adapt.ModeHours[ModeSpotCheck] == 0 {
		t.Errorf("mode hours: %v", adapt.ModeHours)
	}
}

func TestSimulateSessionYieldDriven(t *testing.T) {
	// Poor contact in the first 10 hours forces eco mode even on a full
	// battery.
	pmu := DefaultPMU()
	res := SimulateSession(pmu, 0.45, func(h float64) float64 {
		if h < 10 {
			return 0.2
		}
		return 0.95
	}, 24)
	if res.Steps[0].Mode != ModeEco {
		t.Errorf("hour 0 mode = %v, want eco (bad contact)", res.Steps[0].Mode)
	}
	if res.Steps[12].Mode != ModeContinuous {
		t.Errorf("hour 12 mode = %v, want continuous", res.Steps[12].Mode)
	}
}

func TestEnsembleMode(t *testing.T) {
	s, _ := physio.SubjectByID(3)
	d := device(t, func(c *Config) { c.Ensemble = true })
	_, out, err := d.Run(&s, 30)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ensemble == nil {
		t.Fatal("ensemble mode produced no averaged beat")
	}
	// The ensemble measurement should agree with the beat-to-beat means.
	if math.Abs(out.Ensemble.PEP-out.Summary.PEP.Mean) > 0.025 {
		t.Errorf("ensemble PEP %.4f vs mean %.4f", out.Ensemble.PEP, out.Summary.PEP.Mean)
	}
	if math.Abs(out.Ensemble.LVET-out.Summary.LVET.Mean) > 0.04 {
		t.Errorf("ensemble LVET %.4f vs mean %.4f", out.Ensemble.LVET, out.Summary.LVET.Mean)
	}
	// Without the flag there is no ensemble output.
	d2 := device(t, nil)
	_, out2, err := d2.Run(&s, 30)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Ensemble != nil {
		t.Error("ensemble output without the flag")
	}
}

// The zero-beats contract: a streamer that has processed no beats —
// fresh, or fed samples that complete none — reports AcceptRate exactly
// 1 (never 0 or NaN) and an optimistic health snapshot, gated or not.
func TestStreamerAcceptRateZeroBeats(t *testing.T) {
	for _, disable := range []bool{false, true} {
		d := device(t, func(c *Config) { c.DisableGate = disable })
		st := d.NewStreamer(StreamConfig{})
		if r := st.AcceptRate(); r != 1 {
			t.Fatalf("fresh streamer (gate disabled=%v) AcceptRate %g, want exactly 1", disable, r)
		}
		h := st.Health()
		if h.AcceptEWMA != 1 || h.Beats != 0 || h.SignalS != 0 || h.LastBeatS != 0 {
			t.Fatalf("fresh health snapshot not zeroed/optimistic: %+v", h)
		}
		// A short beatless push keeps the contract and advances only the
		// sample clock.
		buf := make([]float64, 100)
		st.Push(buf, buf)
		if r := st.AcceptRate(); r != 1 {
			t.Fatalf("beatless streamer AcceptRate %g, want exactly 1", r)
		}
		h = st.Health()
		if h.Beats != 0 || h.AcceptEWMA != 1 {
			t.Fatalf("beatless health snapshot changed: %+v", h)
		}
		if want := 100 / d.Config().FS; h.SignalS != want {
			t.Fatalf("SignalS %g, want %g", h.SignalS, want)
		}
		st.Reset()
		if h := st.Health(); h.SignalS != 0 || h.AcceptEWMA != 1 {
			t.Fatalf("Reset did not clear health: %+v", h)
		}
	}
}

// TestStreamerLargeChunkParity pins chunk invariance for pushes longer
// than the streamer's history rings: a push of any size runs through
// the pipeline in bounded sub-chunks, so 1000-, 2000- and 5000-sample
// pushes and a single push of the whole minute must emit the 50-sample
// stream's beats bit for bit, and leave the same health state.
func TestStreamerLargeChunkParity(t *testing.T) {
	s, _ := physio.SubjectByID(1)
	d := device(t, nil)
	acq, err := d.Acquire(&s, 60)
	if err != nil {
		t.Fatal(err)
	}
	ref := d.NewStreamer(DefaultStreamConfig())
	want := streamBeats(ref, acq.ECG, acq.Z, every(50))
	if len(want) < 50 {
		t.Fatalf("reference stream emitted only %d beats", len(want))
	}
	for _, chunk := range []int{1000, 2000, 5000, len(acq.ECG)} {
		st := d.NewStreamer(DefaultStreamConfig())
		got := streamBeats(st, acq.ECG, acq.Z, every(chunk))
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d beats, 50-sample stream %d", chunk, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: beat %d differs:\n got %+v\nwant %+v", chunk, i, got[i], want[i])
			}
		}
		if st.Health() != ref.Health() {
			t.Fatalf("chunk %d: health %+v, 50-sample stream %+v", chunk, st.Health(), ref.Health())
		}
	}
}

// zPrefixOracleInputs are the {ecg, z} recordings the z-prefix horizon
// oracle runs on: study subjects, lifted-finger contact, flatlines,
// streams shorter than the QRS detector's 2 s initialization window,
// streams whose first R lands on that window's boundary, and missed
// beats followed by a contact gap, which the detector recovers by
// search-back seconds after they occurred.
func zPrefixOracleInputs(t *testing.T, d *Device) map[string][2][]float64 {
	t.Helper()
	fs := d.cfg.FS
	in := map[string][2][]float64{}
	var ecg1, z1 []float64
	for id := 1; id <= 5; id++ {
		s, _ := physio.SubjectByID(id)
		acq, err := d.Acquire(&s, 30)
		if err != nil {
			t.Fatal(err)
		}
		in[fmt.Sprintf("subject%d", id)] = [2][]float64{acq.ECG, acq.Z}
		if id == 1 {
			ecg1, z1 = acq.ECG, acq.Z
		}
	}
	de, dz := physio.DeadContact(5, int(20*fs))
	in["dead-contact"] = [2][]float64{de, dz}
	flatE, flatZ := make([]float64, int(10*fs)), make([]float64, int(10*fs))
	for i := range flatZ {
		flatZ[i] = 450
	}
	in["flatline"] = [2][]float64{flatE, flatZ}
	for _, sec := range []float64{0.4, 1.5, 1.99} {
		n := int(sec * fs)
		in[fmt.Sprintf("short-%gs", sec)] = [2][]float64{ecg1[:n], z1[:n]}
	}
	out, err := d.Process(&Acquisition{FS: fs, ECG: ecg1, Z: z1})
	if err != nil || len(out.RPeaks) < 12 {
		t.Fatal("subject 1 needs a dozen batch R peaks")
	}
	rs := out.RPeaks
	// prefix prepends n copies of the first samples.
	prefix := func(n int, e, z []float64) [2][]float64 {
		pe, pz := make([]float64, 0, n+len(e)), make([]float64, 0, n+len(z))
		for i := 0; i < n; i++ {
			pe, pz = append(pe, e[0]), append(pz, z[0])
		}
		return [2][]float64{append(pe, e...), append(pz, z...)}
	}
	for _, dd := range []int{-12, 0, 12} {
		in[fmt.Sprintf("init-boundary%+d", dd)] = prefix(int(2*fs)+dd-rs[0], ecg1, z1)
	}
	// The missed beat: R 8 scaled to 40% around its baseline. The gap
	// holds both channels flat after its T wave; a small bump half a
	// second before the gap ends is the first candidate after it, and
	// triggers the search-back.
	r := rs[8]
	base := ecg1[r-int(0.1*fs)]
	amp := ecg1[r] - base
	cut := r + int(0.45*fs)
	for _, gap := range []float64{1.5, 3, 5} {
		e := append([]float64(nil), ecg1[:cut]...)
		z := append([]float64(nil), z1[:cut]...)
		for i := r - int(0.1*fs); i < r+int(0.1*fs); i++ {
			e[i] = base + 0.4*(e[i]-base)
		}
		for i := 0; i < int(gap*fs); i++ {
			e, z = append(e, ecg1[cut]), append(z, z1[cut])
		}
		b := len(e) - int(0.5*fs)
		e[b-1] += 0.1 * amp
		e[b] += 0.2 * amp
		e[b+1] += 0.1 * amp
		in[fmt.Sprintf("missed-then-gap-%gs", gap)] = [2][]float64{append(e, ecg1[cut:]...), append(z, z1[cut:]...)}
	}
	return in
}

// TestStreamerZPrefixHorizon is the oracle for the z-prefix ring's
// derived size: a streamer whose z-prefix ring holds the whole
// recording must emit the same beats as one sized by zHorizon (which
// must round to no more than an 8 s ring) on every oracle input and
// chunking; the oracle must include beats recovered by search-back.
func TestStreamerZPrefixHorizon(t *testing.T) {
	d := device(t, nil)
	fs := d.cfg.FS
	if got, old := d.NewStreamer(DefaultStreamConfig()).zHorizon(), int(8*fs); dsp.NextPow2(got) > dsp.NextPow2(old) {
		t.Fatalf("z-prefix ring %d samples exceeds the 8 s ring %d", dsp.NextPow2(got), dsp.NextPow2(old))
	}
	searchBacks := 0
	for name, x := range zPrefixOracleInputs(t, d) {
		for _, chunk := range []int{50, 1000, len(x[0])} {
			oracle := d.NewStreamer(DefaultStreamConfig())
			oracle.zPrefix = dsp.NewRing(len(x[1]) + 1)
			want := streamBeats(oracle, x[0], x[1], every(chunk))
			st := d.NewStreamer(DefaultStreamConfig())
			got := streamBeats(st, x[0], x[1], every(chunk))
			if !slices.Equal(got, want) {
				t.Fatalf("%s chunk %d: beats differ from the whole-recording z-prefix ring", name, chunk)
			}
			if chunk == 50 && strings.Contains(name, "-then-gap-") {
				searchBacks += st.pt.SearchBack
			}
		}
	}
	if searchBacks == 0 {
		t.Fatal("no oracle input recovered a beat by search-back after a gap")
	}
}

// TestStreamerEmissionDelayBound pins what Latency does and does not
// promise: fed one sample per push, no beat on any z-prefix oracle
// input arrives more than zHorizon samples after its closing R entered
// Push, while the missed-then-gap inputs, whose beats are recovered by
// search-back seconds late, deliver one later than Latency.
func TestStreamerEmissionDelayBound(t *testing.T) {
	d := device(t, nil)
	fs := d.cfg.FS
	gapWorst := 0
	var st *Streamer
	for name, x := range zPrefixOracleInputs(t, d) {
		st = d.NewStreamer(DefaultStreamConfig())
		pushed, worst := 0, 0
		st.Emit(event.Func(func(e event.Event) {
			if e.Kind == event.KindBeat {
				worst = max(worst, pushed-int(math.Round(e.TimeS*fs))-1)
			}
		}), 0)
		for i := range x[0] {
			pushed++
			st.Push(x[0][i:i+1], x[1][i:i+1])
		}
		if worst > st.zHorizon() {
			t.Errorf("%s: a beat arrived %d samples after its closing R, zHorizon %d", name, worst, st.zHorizon())
		}
		if strings.Contains(name, "-then-gap-") {
			gapWorst = max(gapWorst, worst)
		}
	}
	if lat := st.Latency() * fs; float64(gapWorst) <= lat {
		t.Errorf("missed-then-gap worst delay %d samples within Latency (%g samples)", gapWorst, lat)
	} else {
		t.Logf("missed-then-gap worst delay %d samples; Latency %g, zHorizon %d", gapWorst, lat, st.zHorizon())
	}
}
