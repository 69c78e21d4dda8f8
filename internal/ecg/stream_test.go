package ecg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/physio"
)

func synthECG(n int, fs float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	// Spiky quasi-periodic train over a wandering baseline: enough QRS
	// structure for the detector without pulling in the physio package.
	period := int(0.8 * fs)
	for i := range x {
		ph := i % period
		v := 0.05 * math.Sin(2*math.Pi*float64(i)/fs*0.3) // drift
		if ph == period/2 {
			v += 1.0 // R spike
		}
		if d := ph - period/2; d == -1 || d == 1 {
			v += 0.4
		}
		v += 0.15 * math.Sin(2*math.Pi*float64(ph)/float64(period)) // P/T-ish
		v += 0.02 * rng.NormFloat64()
		x[i] = v
	}
	return x
}

// sweepChunks are the chunkings every ECG stream test drives: 1-sample
// pushes, chunks around the derived sub-chunks (130 and 144 samples at
// 250 Hz) and core.Streamer's 128-sample feed, and larger ones.
var sweepChunks = []int{1, 13, 129, 130, 131, 143, 144, 145, 250, 997, 3000}

// The streaming baseline remover matches RemoveBaseline bit for bit on
// every chunking, on off-grid input (float64 from the first sample) and
// on ADC-grid input, where its ring and deques stay float32.
func TestBaselineStreamMatchesBatch(t *testing.T) {
	fs := 250.0
	cfg := DefaultBaseline(fs)
	off := synthECG(3000, fs, 7)
	grid := make([]float64, len(off))
	for i, v := range off {
		grid[i] = float64(int64(v*4096)) / 4096
	}
	for _, in := range []struct {
		name   string
		x      []float64
		narrow bool
	}{{"off-grid", off, false}, {"on-grid", grid, true}} {
		x := in.x
		want := RemoveBaseline(x, cfg)
		for _, chunk := range sweepChunks {
			s := NewBaselineStream(cfg)
			var a dsp.Arena
			var got []float64
			for pos := 0; pos < len(x); pos += chunk {
				a.Reset()
				got = s.Push(&a, got, x[pos:min(pos+chunk, len(x))])
			}
			got = s.Flush(nil, got)
			if len(got) != len(want) {
				t.Fatalf("%s chunk %d: %d outputs, want %d", in.name, chunk, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s chunk %d: sample %d differs: %g vs %g", in.name, chunk, i, got[i], want[i])
				}
			}
			narrow := s.Narrow()
			for _, st := range s.stages {
				narrow = narrow && st.Narrow()
			}
			if narrow != in.narrow {
				t.Fatalf("%s chunk %d: ring and deques narrow = %v", in.name, chunk, narrow)
			}
		}
	}
}

func TestBaselineStreamReset(t *testing.T) {
	fs := 250.0
	cfg := DefaultBaseline(fs)
	x := synthECG(1500, fs, 8)
	s := NewBaselineStream(cfg)
	first := s.Flush(nil, s.Push(nil, nil, x))
	s.Reset()
	second := s.Flush(nil, s.Push(nil, nil, x))
	if len(first) != len(second) {
		t.Fatalf("lengths differ after Reset: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("sample %d differs after Reset", i)
		}
	}
}

// streamRPeaks runs the incremental detector over x in the given chunk
// size and returns all confirmed R peaks.
func streamRPeaks(t *testing.T, cfg PTConfig, x []float64, chunk int) []int {
	t.Helper()
	s, err := NewPTStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a dsp.Arena
	var rs []int
	for pos := 0; pos < len(x); pos += chunk {
		end := pos + chunk
		if end > len(x) {
			end = len(x)
		}
		a.Reset()
		rs = s.Push(&a, rs, x[pos:end])
	}
	return s.Flush(rs)
}

func TestPTStreamMatchesBatch(t *testing.T) {
	fs := 250.0
	x := synthECG(int(40*fs), fs, 9)
	cfg := DefaultPT(fs)
	batch, err := DetectQRS(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.RPeaks) < 30 {
		t.Fatalf("batch found only %d peaks", len(batch.RPeaks))
	}
	ref := streamRPeaks(t, cfg, x, 1)
	for _, chunk := range append(sweepChunks, 50, 1024, len(x)) {
		rs := streamRPeaks(t, cfg, x, chunk)
		if len(rs) != len(batch.RPeaks) {
			t.Fatalf("chunk %d: %d peaks, batch %d", chunk, len(rs), len(batch.RPeaks))
		}
		for i := range rs {
			if d := rs[i] - batch.RPeaks[i]; d < -1 || d > 1 {
				t.Errorf("chunk %d: peak %d at %d, batch %d", chunk, i, rs[i], batch.RPeaks[i])
			}
		}
		// The sub-chunk never reaches the output: every chunking
		// detects the 1-sample stream's peaks exactly.
		if !slices.Equal(rs, ref) {
			t.Fatalf("chunk %d: R peaks %v, 1-sample pushes %v", chunk, rs, ref)
		}
	}
}

func TestPTStreamOrderingAndUniqueness(t *testing.T) {
	fs := 250.0
	x := synthECG(int(30*fs), fs, 10)
	rs := streamRPeaks(t, DefaultPT(fs), x, 37)
	for i := 1; i < len(rs); i++ {
		if rs[i] <= rs[i-1] {
			t.Fatalf("peaks not strictly increasing at %d: %d after %d", i, rs[i], rs[i-1])
		}
	}
}

func TestPTStreamUsesCachedBandSOS(t *testing.T) {
	fs := 250.0
	cfg := DefaultPT(fs)
	sos, err := DesignPTBandPass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BandSOS = sos
	x := synthECG(int(20*fs), fs, 11)
	with := streamRPeaks(t, cfg, x, 100)
	cfg.BandSOS = nil
	without := streamRPeaks(t, cfg, x, 100)
	if len(with) != len(without) {
		t.Fatalf("cached band SOS changes detection: %d vs %d", len(with), len(without))
	}
}

func TestPTStreamReset(t *testing.T) {
	fs := 250.0
	x := synthECG(int(15*fs), fs, 12)
	s, err := NewPTStream(DefaultPT(fs))
	if err != nil {
		t.Fatal(err)
	}
	first := s.Flush(s.Push(nil, nil, x))
	s.Reset()
	second := s.Flush(s.Push(nil, nil, x))
	if len(first) != len(second) {
		t.Fatalf("Reset changes peak count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("peak %d differs after Reset", i)
		}
	}
}

// The streaming band-pass must agree with the batch causal filter the
// detector runs on (same cascade, same zero state).
func TestPTBandPassStreamConsistency(t *testing.T) {
	fs := 250.0
	cfg := DefaultPT(fs)
	sos, err := DesignPTBandPass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := synthECG(2000, fs, 13)
	want := sos.Filter(x)
	st := dsp.NewSOSStream(sos, false)
	got := st.Push(nil, nil, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("sample %d differs", i)
		}
	}
}

// ptOracleInputs are the recordings the ring-horizon oracle runs on: the
// study subjects, lifted-finger noise, flatlines, streams shorter than
// the 2 s threshold-initialization window, streams whose first peaks
// land on that window's boundary, and a missed beat followed by a
// contact gap (search-back then recovers a peak several seconds old).
func ptOracleInputs(t *testing.T, fs float64) map[string][]float64 {
	t.Helper()
	in := map[string][]float64{}
	gen := physio.DefaultGenConfig()
	gen.Duration = 40
	gen.FS = fs
	var subj1 []float64
	for _, s := range physio.Subjects() {
		rec := s.Generate(gen)
		x, err := Clean(rec.ECG, fs)
		if err != nil {
			t.Fatal(err)
		}
		in[fmt.Sprintf("subject%d", s.ID)] = x
		if subj1 == nil {
			subj1 = x
		}
	}
	dead, _ := physio.DeadContact(3, int(20*fs))
	in["dead-contact"] = dead
	in["flat-zero"] = make([]float64, int(10*fs))
	flat := make([]float64, int(10*fs))
	for i := range flat {
		flat[i] = 0.7
	}
	in["flat-const"] = flat
	for _, sec := range []float64{0.3, 1.2, 1.99} {
		in[fmt.Sprintf("short-%gs", sec)] = subj1[:int(sec*fs)]
	}

	// Shift subject 1 so its first R lands just before, on and just
	// after the last sample of the initialization window.
	first := -1
	if res, err := DetectQRS(subj1, DefaultPT(fs)); err == nil && len(res.RPeaks) > 0 {
		first = res.RPeaks[0]
	}
	if first < 0 {
		t.Fatal("no R peak in subject 1")
	}
	initN := int(2 * fs)
	for _, d := range []int{-40, -12, -1, 0, 1, 12, 40} {
		pad := initN + d - first
		x := make([]float64, 0, pad+len(subj1))
		for i := 0; i < pad; i++ {
			x = append(x, subj1[0])
		}
		in[fmt.Sprintf("init-boundary%+d", d)] = append(x, subj1...)
	}

	// A missed beat (one R attenuated below the detection threshold but
	// above half of it) followed by a flat contact gap after its T wave:
	// the first candidate after the gap (the next P wave) triggers
	// search-back far behind the sample clock.
	res, err := DetectQRS(subj1, DefaultPT(fs))
	if err != nil || len(res.RPeaks) < 12 {
		t.Fatal("subject 1 needs a dozen beats")
	}
	r := res.RPeaks[8]
	cut := r + int(0.45*fs)
	for _, a := range []float64{0.3, 0.4, 0.5} {
		for _, gap := range []float64{0, 1.5, 3, 5} {
			x := append([]float64(nil), subj1[:cut]...)
			for i := r - int(0.1*fs); i < r+int(0.1*fs); i++ {
				x[i] *= a
			}
			for i := 0; i < int(gap*fs); i++ {
				x = append(x, subj1[cut])
			}
			in[fmt.Sprintf("missed%g-then-gap-%gs", a, gap)] = append(x, subj1[cut:]...)
		}
	}

	// The same on a noise-free spike train at 60 bpm, where nothing but
	// a late small bump follows the missed beat: search-back recovers it
	// gap seconds after it occurred, far outside the sample rings.
	for _, gap := range []float64{1.5, 2.5, 4} {
		x := make([]float64, int(30*fs))
		period := int(fs)
		for k := 1; k*period < len(x)-2; k++ {
			amp := 1.0
			switch {
			case k == 9:
				amp = 0.4 // missed
			case k > 9 && float64((k-9)*period) <= gap*fs:
				continue // contact gap
			}
			x[k*period] += amp
			x[k*period-1] += 0.4 * amp
			x[k*period+1] += 0.4 * amp
		}
		bump := 9*period + int(gap*fs) - period/3
		x[bump] += 0.15
		in[fmt.Sprintf("sparse-missed-then-gap-%gs", gap)] = x
	}
	return in
}

// TestPTStreamRingHorizon is the oracle for the detector's sample-ring
// horizon: a detector whose rings hold six seconds plus a sub-chunk
// (the whole search-back horizon) must emit the same R peaks and count
// the same search-backs and T-wave vetoes as the one sized by History,
// on every oracle input and chunking.
func TestPTStreamRingHorizon(t *testing.T) {
	fs := 250.0
	cfg := DefaultPT(fs)
	oldRing := int(6*fs) + minSubChunk
	var searchBacks, vetoes, gapSB int
	for name, x := range ptOracleInputs(t, fs) {
		for _, chunk := range []int{1, 50, 256, 1000, len(x)} {
			if chunk < 1 {
				continue
			}
			run := func(ringN int) ([]int, *PTStream) {
				s, err := newPTStream(cfg, ringN)
				if err != nil {
					t.Fatal(err)
				}
				var rs []int
				for pos := 0; pos < len(x); pos += chunk {
					rs = s.Push(nil, rs, x[pos:min(pos+chunk, len(x))])
				}
				return s.Flush(rs), s
			}
			want, ws := run(oldRing)
			got, gs := run(0)
			if !slices.Equal(got, want) {
				t.Fatalf("%s chunk %d: R peaks %v, six-second rings %v", name, chunk, got, want)
			}
			if gs.SearchBack != ws.SearchBack || gs.TWaveVeto != ws.TWaveVeto {
				t.Fatalf("%s chunk %d: search-back/veto %d/%d, six-second rings %d/%d",
					name, chunk, gs.SearchBack, gs.TWaveVeto, ws.SearchBack, ws.TWaveVeto)
			}
			if chunk == 1 {
				searchBacks += gs.SearchBack
				vetoes += gs.TWaveVeto
				if strings.Contains(name, "-then-gap-") {
					gapSB += gs.SearchBack
				}
			}
		}
	}
	if gs, err := NewPTStream(cfg); err != nil || gs.History() >= oldRing/2 {
		t.Fatalf("History %d is not below half the six-second ring %d", gs.History(), oldRing)
	}
	// The oracle must exercise the paths that read old peaks.
	if searchBacks == 0 || vetoes == 0 || gapSB == 0 {
		t.Fatalf("oracle inputs exercised %d search-backs (%d after a gap) and %d T-wave vetoes; want all > 0",
			searchBacks, gapSB, vetoes)
	}
}

// TestECGStreamRingsHaveNoSlack pins the ring sizing rule: each ring is
// the smallest power of two that holds its read horizon plus
// minSubChunk, and the stream's sub-chunk is the rest of the ring, so
// no power-of-two rounding is left unused.
func TestECGStreamRingsHaveNoSlack(t *testing.T) {
	check := func(name string, capacity, horizon, sub int) {
		t.Helper()
		if sub < minSubChunk || capacity != horizon+sub {
			t.Errorf("%s: ring of %d for horizon %d and sub-chunk %d (want horizon+sub, sub >= %d)",
				name, capacity, horizon, sub, minSubChunk)
		}
		if capacity&(capacity-1) != 0 || capacity/2 >= horizon+minSubChunk {
			t.Errorf("%s: ring of %d is not the smallest power of two holding %d", name, capacity, horizon+minSubChunk)
		}
	}
	for _, fs := range []float64{125, 250, 500, 1000} {
		pt, err := NewPTStream(DefaultPT(fs))
		if err != nil {
			t.Fatal(err)
		}
		if pt.filt.Cap() != pt.History() || pt.raw.Cap() != pt.History() {
			t.Errorf("fs %g: PTStream rings %d/%d, History %d", fs, pt.filt.Cap(), pt.raw.Cap(), pt.History())
		}
		check(fmt.Sprintf("fs %g PTStream", fs), pt.filt.Cap(), pt.horizon(), pt.sub)
		bs := NewBaselineStream(DefaultBaseline(fs))
		check(fmt.Sprintf("fs %g BaselineStream", fs), bs.raw.Cap(), bs.la+2, bs.sub)
		if fs == 250 && (pt.sub != 144 || pt.History() != 256 || bs.sub != 130 || bs.raw.Cap() != 256) {
			t.Errorf("250 Hz: PTStream sub-chunk %d of a %d ring, BaselineStream %d of %d; want 144 of 256 and 130 of 256",
				pt.sub, pt.History(), bs.sub, bs.raw.Cap())
		}
	}
}
