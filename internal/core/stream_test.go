package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/ecg"
	"repro/internal/event"
	"repro/internal/hemo"
	"repro/internal/icg"
	"repro/internal/physio"
	"repro/internal/wal"
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

// The ICG side's settling context sets Latency: the ECG side's lag,
// overlap-save block lag included, stays hidden behind it, so the
// default streamer reports 626 samples at 250 Hz.
func TestStreamerLatency(t *testing.T) {
	d := device(t, nil)
	st := d.NewStreamer(DefaultStreamConfig())
	if l := st.Latency(); l <= 0 || l > 5 {
		t.Errorf("latency = %g s", l)
	}
	ecgSide := st.ecgStream.Lookahead() + st.pt.Lookahead()
	if icgSide := icgDelay(st.delin.Lookahead()); ecgSide > icgSide {
		t.Errorf("ECG side lag %d samples exceeds the ICG side's %d", ecgSide, icgSide)
	}
	if n := math.Round(st.Latency() * st.fs); n != 626 {
		t.Errorf("latency = %g samples, want 626", n)
	}
}

// The default streamer's raw-Z ring holds exactly what its hungrier
// reader needs: the gate's longest beat plus the feed's lead past its
// closing R, or the delineator's replay horizon (3742 samples at
// 250 Hz), with no rounding.
//
// The raw-Z and ECG baseline rings store ADC codes (packed or 16-bit)
// while every sample is on the ADC's grid (and the baseline's block
// buffers float32):
// Acquire's samples keep them narrow for a whole recording,
// DeadContact's dithered samples widen them, and a recording that turns
// dead partway emits the same events whichever push and sub-chunk the
// widening sample lands in.
func TestStreamerRawRingDefault(t *testing.T) {
	d := device(t, nil)
	st := d.NewStreamer(DefaultStreamConfig())
	rawN := max(st.maxBeat+1+st.zHorizon,
		icg.RawHistory(defaultDetectFor(d.cfg, d.cfg.FS), false, icgCtxSeconds, DefaultStreamConfig().WindowSeconds, st.zHorizon))
	if c := st.raw.Cap(); c != rawN || c != 3742 {
		t.Fatalf("raw ring holds %d samples, want rawN = %d (3742 at 250 Hz)", c, rawN)
	}

	fs := d.cfg.FS
	narrow := func(st *Streamer) (z, ecgRaw bool) {
		z, ecgRaw = st.raw.Narrow(), st.ecgStream.stages[0].(*ecg.BaselineStream).Narrow()
		if st.Narrow() != (z && ecgRaw) {
			t.Fatalf("Streamer.Narrow() = %v with raw-Z narrow %v, baseline narrow %v", st.Narrow(), z, ecgRaw)
		}
		return z, ecgRaw
	}
	for id := 1; id <= 5; id++ {
		sub, _ := physio.SubjectByID(id)
		acq, err := d.Acquire(&sub, 30)
		if err != nil {
			t.Fatal(err)
		}
		st := d.NewStreamer(DefaultStreamConfig())
		for pos := 0; pos < len(acq.Z); pos += 50 {
			end := min(pos+50, len(acq.Z))
			st.Push(acq.ECG[pos:end], acq.Z[pos:end])
			if z, e := narrow(st); !z || !e {
				t.Fatalf("subject %d: rings widened by sample %d (raw-Z narrow %v, baseline narrow %v)", id, end, z, e)
			}
		}
	}
	de, dz := physio.DeadContact(5, int(10*fs))
	st = d.NewStreamer(DefaultStreamConfig())
	pushChunks(st, de, dz, every(50))
	if z, e := narrow(st); z || e {
		t.Fatalf("dead contact left a ring narrow (raw-Z %v, baseline %v)", z, e)
	}

	// Subject 1, dead contact from a sample that falls inside a push
	// and a sub-chunk for every push size below, then subject 1 again:
	// the beats after the dead span read samples from both widths.
	sub, _ := physio.SubjectByID(1)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	cut, dead := int(10*fs)+3, int(2*fs)
	e := append(append(append([]float64(nil), acq.ECG[:cut]...), de[:dead]...), acq.ECG[cut:]...)
	z := append(append(append([]float64(nil), acq.Z[:cut]...), dz[:dead]...), acq.Z[cut:]...)
	var want [sha256.Size]byte
	for _, chunk := range []int{1, 50, 97, 128} {
		st := d.NewStreamer(DefaultStreamConfig())
		h := sha256.New()
		var buf []byte
		beats := 0
		st.Emit(event.Func(func(ev event.Event) {
			buf = wal.EncodeEvent(buf[:0], &ev)
			h.Write(buf)
			if ev.Kind == event.KindBeat {
				beats++
			}
		}), 1)
		pushChunks(st, e, z, every(chunk))
		if zn, en := narrow(st); zn || en {
			t.Fatalf("chunk %d: a ring is still narrow after the dead span (raw-Z %v, baseline %v)", chunk, zn, en)
		}
		var got [sha256.Size]byte
		h.Sum(got[:0])
		if chunk == 1 {
			if beats < 20 {
				t.Fatalf("only %d beats around the dead span", beats)
			}
			want = got
		} else if got != want {
			t.Fatalf("chunk %d: event hash %x, 1-sample pushes %x", chunk, got, want)
		}
	}
}

// The raw-Z ring keeps its packed form (dsp.NewNarrowRing) through
// 120 s of every study subject: each sample's code differs from its
// predecessor's by what a byte holds, but for a few escapes far short
// of the count that would step it down to 16-bit codes. A dead
// contact's dithered samples still widen it to float64.
func TestRawZRingStaysPacked(t *testing.T) {
	d := device(t, nil)
	for _, sub := range physio.Subjects() {
		acq, err := d.Acquire(&sub, 120)
		if err != nil {
			t.Fatal(err)
		}
		st := d.NewStreamer(DefaultStreamConfig())
		fresh := st.raw.HeldBytes()
		pushChunks(st, acq.ECG, acq.Z, every(50))
		if !st.raw.Packed() {
			t.Fatalf("subject %d: the raw-Z ring left the packed form (narrow %v)", sub.ID, st.raw.Narrow())
		}
		// The escape list, empty in the ring StreamingRAM prices, stays
		// within 32 entries of 8 B.
		if grown := st.raw.HeldBytes() - fresh; grown > 256 {
			t.Errorf("subject %d: the raw-Z ring's escapes hold %d B", sub.ID, grown)
		}
		t.Logf("subject %d: raw-Z ring holds %d B, %d B of them escapes", sub.ID, st.raw.HeldBytes(), st.raw.HeldBytes()-fresh)
	}
	de, dz := physio.DeadContact(5, int(10*d.cfg.FS))
	st := d.NewStreamer(DefaultStreamConfig())
	pushChunks(st, de, dz, every(50))
	if st.raw.Narrow() || st.raw.Packed() {
		t.Fatalf("dead contact left the raw-Z ring coded (packed %v)", st.raw.Packed())
	}
}

// A pooled streamer carries its narrow rings from session to session:
// Reset drops the code grid's base, so two sessions with different base
// impedances (subjects 1 and 4) through one streamer both stay narrow —
// the raw-Z and baseline rings and the ECG band-pass's carry alike —
// the raw-Z ring reads back what a float64 ring fed the same samples
// holds, bit for bit, and the second session emits what a fresh
// streamer does. A carry that widens alone makes the streamer wide.
func TestStreamerPooledRingsRebase(t *testing.T) {
	d := device(t, nil)
	hashOf := func(st *Streamer, acq *Acquisition) [sha256.Size]byte {
		h := sha256.New()
		var buf []byte
		st.Emit(event.Func(func(ev event.Event) {
			buf = wal.EncodeEvent(buf[:0], &ev)
			h.Write(buf)
		}), 1)
		pushChunks(st, acq.ECG, acq.Z, every(50))
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		return sum
	}
	pooled := d.NewStreamer(DefaultStreamConfig())
	var z0 []float64
	for _, id := range []int{1, 4} {
		sub, _ := physio.SubjectByID(id)
		acq, err := d.Acquire(&sub, 20)
		if err != nil {
			t.Fatal(err)
		}
		z0 = append(z0, acq.Z[0])
		pooled.Reset()
		got := hashOf(pooled, acq)
		if !pooled.Narrow() || !bandPass(pooled).Narrow() {
			t.Fatalf("subject %d: the pooled streamer widened (band-pass carry narrow %v)", id, bandPass(pooled).Narrow())
		}
		ref := dsp.NewRing(pooled.raw.Cap())
		ref.Append(acq.Z)
		for i := pooled.raw.Start(); i < pooled.raw.N(); i++ {
			if math.Float64bits(pooled.raw.At(i)) != math.Float64bits(ref.At(i)) {
				t.Fatalf("subject %d: raw-Z sample %d reads %v, want %v", id, i, pooled.raw.At(i), ref.At(i))
			}
		}
		if want := hashOf(d.NewStreamer(DefaultStreamConfig()), acq); got != want {
			t.Fatalf("subject %d: pooled streamer's events differ from a fresh one's", id)
		}
	}
	if z0[0] == z0[1] {
		t.Fatalf("subjects 1 and 4 start at the same impedance %v: the test needs two bases", z0[0])
	}
	bandPass(pooled).Push(nil, nil, []float64{0.1}) // off the ECG grid
	if bandPass(pooled).Narrow() || pooled.Narrow() {
		t.Fatalf("an off-grid band-pass input left the carry narrow %v, the streamer narrow %v",
			bandPass(pooled).Narrow(), pooled.Narrow())
	}
}

// bandPass returns the streamer's zero-phase ECG band-pass stream.
func bandPass(st *Streamer) *dsp.FIRStream { return st.ecgStream.stages[1].(*dsp.FIRStream) }

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

// The zero-beats contract: a streamer that has processed no beats —
// fresh, or fed samples that complete none — reports AcceptRate exactly
// 1 (never 0 or NaN) and an optimistic health snapshot.
func TestStreamerAcceptRateZeroBeats(t *testing.T) {
	d := device(t, nil)
	st := d.NewStreamer(StreamConfig{})
	if r := st.AcceptRate(); r != 1 {
		t.Fatalf("fresh streamer AcceptRate %g, want exactly 1", r)
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

// z0OracleInputs are the {ecg, z} recordings the base-impedance
// and emission-delay oracles run on: study subjects, lifted-finger contact, flatlines,
// streams shorter than the QRS detector's 2 s initialization window,
// streams whose first R lands on that window's boundary, and missed
// beats followed by a contact gap, which the detector recovers by
// search-back seconds after they occurred.
func z0OracleInputs(t *testing.T, d *Device) map[string][2][]float64 {
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

// TestStreamerZ0Oracle pins the causal base-impedance estimate to a
// whole-recording oracle: every emitted beat's Z0 is the sequential
// prefix sum of the raw Z channel up to its closing R divided by that
// R's index, bit for bit, and the beats' Z0, SV, CO and TFC do not
// depend on the chunking. The inputs add a beat-less span longer than
// the raw ring (20 s of lost contact, both channels held, then
// subject 1), so the first beat's sum is mostly folded as samples are
// about to leave the ring.
func TestStreamerZ0Oracle(t *testing.T) {
	d := device(t, nil)
	fs := d.cfg.FS
	in := z0OracleInputs(t, d)
	s1 := in["subject1"]
	dead := int(20 * fs)
	de, dz := make([]float64, dead, dead+len(s1[0])), make([]float64, dead, dead+len(s1[1]))
	for i := range de {
		de[i], dz[i] = s1[0][0], s1[1][0]
	}
	in["dead-then-subject1"] = [2][]float64{append(de, s1[0]...), append(dz, s1[1]...)}
	for name, x := range in {
		prefix := make([]float64, len(x[1])+1)
		for i, v := range x[1] {
			prefix[i+1] = prefix[i] + v
		}
		var ref []hemo.BeatParams
		for _, chunk := range []int{1, 50, 1000, len(x[0])} {
			st := d.NewStreamer(DefaultStreamConfig())
			got := streamBeats(st, x[0], x[1], every(chunk))
			for i, b := range got {
				rHi := int(math.Round((b.TimeS + b.RR) * fs)) // the closing R
				if want := prefix[rHi] / float64(rHi); b.Z0 != want {
					t.Fatalf("%s chunk %d beat %d: Z0 %v, oracle %v", name, chunk, i, b.Z0, want)
				}
				if name == "dead-then-subject1" && i == 0 && rHi <= st.raw.Cap() {
					t.Fatalf("first beat at %d lies inside the %d-sample raw ring", rHi, st.raw.Cap())
				}
			}
			if ref == nil {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("%s chunk %d: %d beats, 1-sample pushes %d", name, chunk, len(got), len(ref))
			}
			for i := range ref {
				g, w := got[i], ref[i]
				if g.Z0 != w.Z0 || g.SVKub != w.SVKub || g.SVSram != w.SVSram || g.CO != w.CO || g.TFC != w.TFC {
					t.Fatalf("%s chunk %d beat %d: %+v, 1-sample pushes %+v", name, chunk, i, g, w)
				}
			}
		}
	}
}

// TestStreamerEmissionDelayBound pins what Latency does and does not
// promise: fed one sample per push, no beat on any Z0 oracle
// input arrives more than zHorizon samples after its closing R entered
// Push, while the missed-then-gap inputs, whose beats are recovered by
// search-back seconds late, deliver one later than Latency.
func TestStreamerEmissionDelayBound(t *testing.T) {
	d := device(t, nil)
	fs := d.cfg.FS
	gapWorst := 0
	var st *Streamer
	for name, x := range z0OracleInputs(t, d) {
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
		if worst > st.zHorizon {
			t.Errorf("%s: a beat arrived %d samples after its closing R, zHorizon %d", name, worst, st.zHorizon)
		}
		if strings.Contains(name, "-then-gap-") {
			gapWorst = max(gapWorst, worst)
		}
	}
	if lat := st.Latency() * fs; float64(gapWorst) <= lat {
		t.Errorf("missed-then-gap worst delay %d samples within Latency (%g samples)", gapWorst, lat)
	} else {
		t.Logf("missed-then-gap worst delay %d samples; Latency %g, zHorizon %d", gapWorst, lat, st.zHorizon)
	}
}

// withContactGap returns copies of ecg and z with n samples of lost
// contact inserted at cut: both channels held at their value there.
func withContactGap(ecg, z []float64, cut, n int) (ge, gz []float64) {
	ge = append(make([]float64, 0, len(ecg)+n), ecg[:cut]...)
	gz = append(make([]float64, 0, len(z)+n), z[:cut]...)
	for i := 0; i < n; i++ {
		ge, gz = append(ge, ecg[cut]), append(gz, z[cut])
	}
	return append(ge, ecg[cut:]...), append(gz, z[cut:]...)
}

// TestStreamerLongBeatChunkInvariant pins the long-beat rule to the beat
// itself: a beat longer than WindowSeconds fails whatever the chunking,
// and one within it is analyzed, because whether its history is still
// held must never depend on where the sub-chunk boundaries fell. The
// inputs span a contact gap of 12.2-12.6 s inserted into subject 1, so
// the beat around it sits at the edge of the 16 s rings.
func TestStreamerLongBeatChunkInvariant(t *testing.T) {
	d := device(t, nil)
	sub, _ := physio.SubjectByID(1)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Process(acq)
	if err != nil || len(out.RPeaks) < 10 {
		t.Fatal("subject 1 needs ten batch R peaks")
	}
	cut := out.RPeaks[8] + 60
	step := 1
	if testing.Short() {
		step = 7
	}
	for gap := 3062; gap <= 3160; gap += step {
		e, z := withContactGap(acq.ECG, acq.Z, cut, gap)
		var ref []event.Event
		for _, chunk := range []int{1, 50, 97, 128} {
			var got []event.Event
			st := d.NewStreamer(DefaultStreamConfig())
			st.Emit(event.Func(func(e event.Event) { got = append(got, e) }), 0)
			pushChunks(st, e, z, every(chunk))
			if chunk == 1 {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("gap %d chunk %d: %d events, 1-sample pushes %d", gap, chunk, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("gap %d chunk %d: event %d %+v, 1-sample pushes %+v", gap, chunk, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestStreamerRHistBounded pins the R-peak list to the beats the
// delineator still has queued: a 300 s session of subject 1 in 50-sample
// pushes never grows it past 16 peaks of capacity, so a pooled streamer
// that served a long session does not carry a long list to the next.
func TestStreamerRHistBounded(t *testing.T) {
	d := device(t, nil)
	sub, _ := physio.SubjectByID(1)
	acq, err := d.Acquire(&sub, 300)
	if err != nil {
		t.Fatal(err)
	}
	st := d.NewStreamer(DefaultStreamConfig())
	beats := 0
	st.Emit(event.Func(func(e event.Event) {
		if e.Kind == event.KindBeat {
			beats++
		}
	}), 0)
	for pos := 0; pos < len(acq.Z); pos += 50 {
		end := min(pos+50, len(acq.Z))
		st.Push(acq.ECG[pos:end], acq.Z[pos:end])
		if c := cap(st.rHist); c > 16 {
			t.Fatalf("sample %d, %d beats: the R-peak list holds capacity for %d peaks", end, beats, c)
		}
	}
	if beats < 260 {
		t.Fatalf("only %d beats in 300 s", beats)
	}
}

// TestStreamerRailsAfterLongGap pins the gate's rails to the beat: a
// beat scored after a failed span longer than the raw ring sees the
// extremes of every sample before its closing R, whatever the chunking
// (and so whatever the ring's capacity). Subject 1's ECG loses contact
// (held, so no R peaks) for 14 s while Z keeps moving, and a Z
// excursion past the session's rails sweeps across the 128 samples at
// the ring's start edge as the first beat after the gap is scored —
// where rails restarted at the ring's start would take the excursion in
// under some chunkings and not others, since the feed's position at
// that beat depends on where the sub-chunk boundaries fell.
func TestStreamerRailsAfterLongGap(t *testing.T) {
	d := device(t, nil)
	fs := d.cfg.FS
	sub, _ := physio.SubjectByID(1)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	cut, gap := int(8*fs), int(14*fs)
	e := append([]float64(nil), acq.ECG...)
	for i := cut; i < cut+gap; i++ {
		e[i] = e[cut]
	}
	// The ring's start edge: the feed's position, minus the ring's
	// capacity, when the first beat after the gap is scored under
	// 1-sample pushes. It must lie past the last beat scored before the
	// gap, or the rails would have no unscored samples to lose.
	st := d.NewStreamer(DefaultStreamConfig())
	pushed, lastBefore, edge := 0, -1, -1
	st.Emit(event.Func(func(ev event.Event) {
		switch rHi := int(math.Round(ev.TimeS * fs)); {
		case ev.Kind != event.KindBeat:
		case rHi < cut+gap:
			lastBefore = rHi
		case edge < 0:
			edge = pushed - st.raw.Cap()
		}
	}), 0)
	for i := range e {
		pushed++
		st.Push(e[i:i+1], acq.Z[i:i+1])
	}
	st.Flush()
	if lastBefore < 0 || edge <= lastBefore || edge+128 > cut+gap {
		t.Fatalf("the ring's start edge %d does not lie in the gap [%d, %d) past the last beat before it (%d)",
			edge, cut, cut+gap, lastBefore)
	}
	step := 1
	if testing.Short() {
		step = 9
	}
	for off := 0; off < 128; off += step {
		// A 50 Ω rise for 16 samples, past the rails (and past the
		// 16-bit codes' reach, so the raw-Z ring widens there).
		z := append([]float64(nil), acq.Z...)
		for i := edge + off; i < edge+off+16; i++ {
			z[i] += 50
		}
		var ref []event.Event
		for _, chunk := range []int{1, 50, 97, 128, 1000} {
			var got []event.Event
			st := d.NewStreamer(DefaultStreamConfig())
			st.Emit(event.Func(func(e event.Event) { got = append(got, e) }), 0)
			pushChunks(st, e, z, every(chunk))
			if chunk == 1 {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("offset %d chunk %d: %d events, 1-sample pushes %d", off, chunk, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("offset %d chunk %d: event %d %+v, 1-sample pushes %+v", off, chunk, i, got[i], ref[i])
				}
			}
		}
	}
}
