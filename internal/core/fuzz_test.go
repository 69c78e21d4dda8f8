package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bioimp"
	"repro/internal/dsp"
	"repro/internal/ecg"
	"repro/internal/hemo"
	"repro/internal/icg"
	"repro/internal/physio"
)

// fuzzEnv lazily builds the shared device and base acquisitions the
// streamer fuzzer perturbs; acquisition is far too slow to run per
// fuzz iteration.
//
// The streamer's base recordings are fuzzBaseSeconds long, longer than
// every history ring the streamer holds (the 16 s raw-impedance
// ring): a recording that fits every ring cannot catch a
// ring overrun by a large push. One more base recording is subject 1
// with a contact gap of fuzzGapSamples inserted after its ninth beat,
// so the beat spanning the gap sits at the edge of those rings, where a
// rule that asked the ring rather than the beat would depend on the
// chunking. The delineator fuzzer runs on its own delinFuzzSeconds
// acquisitions, plus the first delinFuzzSeconds of subject 1's base
// recording.
var fuzzEnv struct {
	once  sync.Once
	dev   *Device
	base  [][2][]float64 // {ecg, z} per subject, fuzzBaseSeconds long
	delin []delinRec
	err   error
}

// delinRec is one FuzzDelineatorRefilterCache recording: the delineator
// is fed the first n samples of z and the R peaks before n.
type delinRec struct {
	z  []float64
	n  int
	rs []int // R peaks detected on the recording's ECG, all below n
}

// delinFrom builds a delinRec cut to the first n samples of {ecg, z}.
func delinFrom(ecgSig, z []float64, n int, fs float64) (delinRec, error) {
	pt, err := ecg.NewPTStream(ecg.DefaultPT(fs))
	if err != nil {
		return delinRec{}, err
	}
	var rs []int
	for _, r := range pt.Flush(pt.Push(nil, nil, ecgSig)) {
		if r < n {
			rs = append(rs, r)
		}
	}
	return delinRec{z: z, n: n, rs: rs}, nil
}

func fuzzSetup() error {
	fuzzEnv.once.Do(func() {
		dev, err := NewDevice(DefaultConfig())
		if err != nil {
			fuzzEnv.err = err
			return
		}
		fuzzEnv.dev = dev
		for sid := 1; sid <= 3; sid++ {
			sub, _ := physio.SubjectByID(sid)
			acq, err := dev.Acquire(&sub, fuzzBaseSeconds)
			if err != nil {
				fuzzEnv.err = err
				return
			}
			fuzzEnv.base = append(fuzzEnv.base, [2][]float64{acq.ECG, acq.Z})
			short, err := dev.Acquire(&sub, delinFuzzSeconds)
			if err != nil {
				fuzzEnv.err = err
				return
			}
			rec, err := delinFrom(short.ECG, short.Z, len(short.Z), dev.cfg.FS)
			if err != nil {
				fuzzEnv.err = err
				return
			}
			fuzzEnv.delin = append(fuzzEnv.delin, rec)
		}
		base := fuzzEnv.base[0]
		out, err := dev.Process(&Acquisition{FS: dev.cfg.FS, ECG: base[0], Z: base[1]})
		if err != nil {
			fuzzEnv.err = err
			return
		}
		ge, gz := withContactGap(base[0], base[1], out.RPeaks[8]+60, fuzzGapSamples)
		fuzzEnv.base = append(fuzzEnv.base, [2][]float64{ge, gz})
		// Cut mid-recording, the last beat's trailing context is clamped
		// to 33 samples at the stream end: the edge law 2's oracle must
		// treat the way the delineator does.
		rec, err := delinFrom(base[0], base[1], int(delinFuzzSeconds*dev.cfg.FS), dev.cfg.FS)
		if err != nil {
			fuzzEnv.err = err
			return
		}
		fuzzEnv.delin = append(fuzzEnv.delin, rec)
	})
	return fuzzEnv.err
}

// fuzzBaseSeconds is the length of FuzzStreamerPush's base recordings.
const fuzzBaseSeconds = 30

// fuzzGapSamples is the contact gap of the ring-edge base recording
// (12.4 s at 250 Hz).
const fuzzGapSamples = 3100

// fuzzChunk maps one fuzz byte to a push size over an n-sample
// recording: bytes below 128 give fine chunks of 0-254 samples, the rest
// give 1/128ths of the recording, up to the whole of it.
func fuzzChunk(b byte, n int) int {
	if b < 128 {
		return int(b) * 2
	}
	return int(b-127) * n / 128
}

// FuzzStreamerPush pins the streaming engine's chunk invariance under
// fuzzing: for study-subject signals with fuzz-chosen gain/offset
// perturbations, any chunking of the input — including degenerate 1-
// sample and empty pushes, and pushes of up to the whole recording —
// must produce exactly the beat stream of a single whole-recording
// push, never panic, and leave identical health/acceptance state.
func FuzzStreamerPush(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{125})
	f.Add(uint8(1), int64(42), []byte{1, 0, 7, 250})
	f.Add(uint8(2), int64(-3), []byte{40, 3, 90})
	f.Add(uint8(0), int64(5), []byte{200, 25, 160})
	f.Add(uint8(3), int64(7), []byte{64, 25, 1, 48})
	f.Fuzz(func(t *testing.T, subject uint8, perturbSeed int64, chunks []byte) {
		if err := fuzzSetup(); err != nil {
			t.Skip("no device:", err)
		}
		base := fuzzEnv.base[int(subject)%len(fuzzEnv.base)]
		rng := physio.NewRNG(perturbSeed)
		gain := 1 + 0.02*(rng.Float64()-0.5)  // ±1% channel gain
		offset := 0.5 * (rng.Float64() - 0.5) // baseline shift (Ohm)
		n := len(base[0])
		ecg := make([]float64, n)
		z := make([]float64, n)
		for i := 0; i < n; i++ {
			ecg[i] = base[0][i] * gain
			z[i] = base[1][i]*gain + offset
		}

		run := func(next func() int) ([]hemo.BeatParams, StreamHealth, float64) {
			st := fuzzEnv.dev.NewStreamer(StreamConfig{})
			beats := streamBeats(st, ecg, z, next)
			return beats, st.Health(), st.AcceptRate()
		}
		// Fuzz-chosen push sizes; an empty push (always harmless) is
		// followed by a 1-sample push, so the input is still consumed.
		ci, afterEmpty := 0, false
		fuzzed := func() int {
			if len(chunks) == 0 || afterEmpty {
				afterEmpty = false
				return 1
			}
			c := fuzzChunk(chunks[ci%len(chunks)], n)
			ci++
			afterEmpty = c == 0
			return c
		}

		ref, refHealth, refRate := run(every(n))
		got, gotHealth, gotRate := run(fuzzed)
		if len(got) != len(ref) {
			t.Fatalf("chunked run emitted %d beats, whole-push %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("beat %d differs: chunked %+v != whole %+v", i, got[i], ref[i])
			}
		}
		if gotHealth != refHealth {
			t.Fatalf("health differs: chunked %+v != whole %+v", gotHealth, refHealth)
		}
		if gotRate != refRate || math.IsNaN(gotRate) {
			t.Fatalf("accept rate differs: chunked %g != whole %g", gotRate, refRate)
		}
	})
}

// beatDiff reports the first field on which two beat analyses are not
// bit-identical ("" when they match exactly, float bits included).
func beatDiff(a, b icg.BeatAnalysis) string {
	if (a.Err == nil) != (b.Err == nil) {
		return "error presence"
	}
	if a.Err != nil {
		if a.Err.Error() != b.Err.Error() {
			return "error message"
		}
		return ""
	}
	p, q := a.Points, b.Points
	if (p == nil) != (q == nil) {
		return "points presence"
	}
	if p != nil {
		switch {
		case p.R != q.R || p.B != q.B || p.C != q.C || p.X != q.X || p.X0 != q.X0:
			return "R/B/C/X indexes"
		case math.Float64bits(p.B0) != math.Float64bits(q.B0):
			return "B0"
		case math.Float64bits(p.CAmp) != math.Float64bits(q.CAmp):
			return "CAmp"
		case p.Pattern != q.Pattern:
			return "Pattern"
		}
	}
	if math.Float64bits(a.Quality) != math.Float64bits(b.Quality) {
		return "Quality"
	}
	if a.ShapeOK != b.ShapeOK {
		return "ShapeOK"
	}
	for i := range a.Shape {
		if math.Float64bits(a.Shape[i]) != math.Float64bits(b.Shape[i]) {
			return "Shape"
		}
	}
	return ""
}

// windowedRefilter is the law-2 oracle of FuzzDelineatorRefilterCache:
// the delineator's original per-beat refilter, run on the whole -dZ/dt
// recording. Each R pair's window — the segment plus the full settling
// context on both sides, clamped to the recording — gets the high-pass
// filtfilt, then the low-pass filtfilt over the segment plus the 0.3 s
// low-pass guard, before the point detector runs on the segment. Only
// the points (on the ECG clock) and the error are reported.
//
// Where the recording end clamps the trailing context, the high-pass
// backward pass starts the way the delineator's does: zi-primed on
// the last sample, with no reflected tail (clampedFiltFilt).
func windowedRefilter(sig []float64, rs []int, cfg icg.DetectConfig, lp, hp dsp.SOS, ctxN int) []icg.BeatAnalysis {
	guard := int(0.3 * cfg.FS)
	var out []icg.BeatAnalysis
	for k := 1; k < len(rs); k++ {
		rLo, rHi := rs[k-1], rs[k]
		lo, hi := max(rLo-ctxN, 0), min(rHi+ctxN, len(sig))
		segHi := min(rHi, hi)
		if rLo >= segHi {
			out = append(out, icg.BeatAnalysis{Err: icg.ErrBeatTooShort})
			continue
		}
		var buf []float64
		if hi < rHi+ctxN {
			buf = clampedFiltFilt(hp, sig[lo:hi])
		} else {
			buf = hp.FiltFiltWith(nil, sig[lo:hi])
		}
		trim := max(rLo-lo-guard, 0)
		cond := lp.FiltFiltWith(nil, buf[trim:min(segHi-lo+guard, len(buf))])
		relLo := rLo - lo - trim
		pts, err := icg.DetectBeatWith(nil, cond, relLo, segHi-lo-trim, -1, cfg)
		if err != nil {
			out = append(out, icg.BeatAnalysis{Err: err})
			continue
		}
		off := rLo - relLo
		pts.R += off
		pts.B += off
		pts.C += off
		pts.X += off
		pts.X0 += off
		pts.B0 += float64(off)
		out = append(out, icg.BeatAnalysis{Points: pts})
	}
	return out
}

// clampedFiltFilt is SOS.FiltFilt with the right edge clamped: the
// forward pass runs over the odd-reflected head and x, the backward pass
// starts at x's last sample, zi-primed, with no reflected tail.
func clampedFiltFilt(s dsp.SOS, x []float64) []float64 {
	pad := min(3*(2*len(s)+1), len(x)-1)
	ext := make([]float64, 0, pad+len(x))
	for i := pad; i >= 1; i-- {
		ext = append(ext, 2*x[0]-x[i])
	}
	ext = append(ext, x...)
	s.FilterZiInPlace(ext)
	y := ext[pad:]
	dsp.Reverse(y)
	s.FilterZiInPlace(y)
	dsp.Reverse(y)
	return y
}

// FuzzDelineatorRefilterCache pins the checkpointed forward pass's laws
// under fuzzing, on study-subject impedance streams with fuzz-chosen
// gain/offset perturbations and chunkings:
//
//  1. Bit identity for every chunking: appending the stream to the raw
//     ring in any chunking — 1-sample, empty and fuzz-chosen pushes
//     included, and pushes that end on either side of a checkpoint —
//     yields a beat stream bit-identical (every int and every float
//     bit) to the whole-push run of the same stream.
//  2. Replay vs the windowed full refilter (windowedRefilter): the two
//     share the detected beat count and success pattern, and every
//     characteristic point agrees within the detector's decision
//     tolerance (±2 samples) — the residual being the windowed
//     refilter's re-grown edge transients, which the context absorbs
//     below decision level.
func FuzzDelineatorRefilterCache(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{125})
	f.Add(uint8(1), int64(7), []byte{1})
	f.Add(uint8(2), int64(-9), []byte{3, 0, 40, 250})
	f.Add(uint8(3), int64(0), []byte{125})
	f.Add(uint8(0), int64(2), []byte{127})
	f.Add(uint8(1), int64(3), []byte{128})
	f.Add(uint8(3), int64(4), []byte{129})
	f.Fuzz(func(t *testing.T, subject uint8, perturbSeed int64, chunks []byte) {
		if err := fuzzSetup(); err != nil {
			t.Skip("no device:", err)
		}
		rec := fuzzEnv.delin[int(subject)%len(fuzzEnv.delin)]
		fs := fuzzEnv.dev.cfg.FS
		rng := physio.NewRNG(perturbSeed)
		gain := 1 + 0.02*(rng.Float64()-0.5)
		offset := 0.5 * (rng.Float64() - 0.5)
		z := make([]float64, rec.n)
		for i := range z {
			z[i] = rec.z[i]*gain + offset
		}

		dCfg := defaultDetectFor(fuzzEnv.dev.cfg, fs)
		lp, hp := fuzzEnv.dev.bank.icgLP, fuzzEnv.dev.bank.icgHP
		run := func(chunked bool) []icg.BeatAnalysis {
			// The whole run appends the 8 s acquisition before any R:
			// that is the lead its raw ring must cover.
			raw := dsp.NewNarrowRing(icg.RawHistory(dCfg, false, icgCtxSeconds, 6, len(z)), fuzzEnv.dev.cfg.ICGFrontEnd.ACADC.LSB())
			d := icg.NewDelineator(dCfg, lp, hp, false, icgCtxSeconds, 6, raw, &fuzzEnv.dev.arenas)
			push := func(out []icg.BeatAnalysis, x []float64) []icg.BeatAnalysis {
				raw.Append(x)
				return d.Advance(nil, out)
			}
			var out []icg.BeatAnalysis
			if !chunked {
				out = push(out, z)
				for _, r := range rec.rs {
					out = d.PushR(out, r)
				}
				return d.Flush(nil, out)
			}
			ci, pos, nextR := 0, 0, 0
			for pos < len(z) {
				c := 1
				if len(chunks) > 0 {
					c = int(chunks[ci%len(chunks)])
					ci++
				}
				end := pos + c
				if end > len(z) {
					end = len(z)
				}
				out = push(out, z[pos:end])
				pos = end
				if c == 0 && pos < len(z) {
					out = push(out, z[pos:pos+1])
					pos++
				}
				for nextR < len(rec.rs) && rec.rs[nextR] < pos {
					out = d.PushR(out, rec.rs[nextR])
					nextR++
				}
			}
			for ; nextR < len(rec.rs); nextR++ {
				out = d.PushR(out, rec.rs[nextR])
			}
			return d.Flush(nil, out)
		}

		want := run(false)
		got := run(true)
		if len(got) != len(want) {
			t.Fatalf("chunked run emitted %d beats, whole-push %d", len(got), len(want))
		}
		for i := range want {
			if d := beatDiff(got[i], want[i]); d != "" {
				t.Fatalf("beat %d: chunked differs from whole-push on %s", i, d)
			}
		}
		// Law 2: replay vs the windowed full refilter, decision level.
		// The delineator's -dZ/dt ends one-sided where the stream does.
		sig := bioimp.ICGFromZ(z, fs)
		oracle := windowedRefilter(sig, rec.rs, dCfg, lp, hp, int(icgCtxSeconds*fs))
		if len(oracle) != len(want) {
			t.Fatalf("windowed refilter emitted %d beats, replay %d", len(oracle), len(want))
		}
		for i := range oracle {
			l, r := oracle[i], want[i]
			if (l.Err == nil) != (r.Err == nil) {
				t.Fatalf("beat %d: windowed err %v, replay err %v", i, l.Err, r.Err)
			}
			if l.Err != nil {
				continue
			}
			db, dc, dx := l.Points.B-r.Points.B, l.Points.C-r.Points.C, l.Points.X-r.Points.X
			if db < -2 || db > 2 || dc < -2 || dc > 2 || dx < -2 || dx > 2 {
				t.Fatalf("beat %d: windowed B/C/X %d/%d/%d vs replay %d/%d/%d",
					i, l.Points.B, l.Points.C, l.Points.X, r.Points.B, r.Points.C, r.Points.X)
			}
		}
	})
}

// delinFuzzSeconds is the length of FuzzDelineatorRefilterCache's
// recordings: short enough to fit the 6 s beat ring with its settling
// contexts in one push.
const delinFuzzSeconds = 8
