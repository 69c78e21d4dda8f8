package core

import (
	"math"
	"sync"
	"testing"

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
// every history ring the streamer holds (the 16 s gate and delineator
// rings, the 8 s z-prefix ring): a recording that fits every ring
// cannot catch a ring overrun by a large push. The delineator fuzzer
// runs on its own delinFuzzSeconds acquisitions.
var fuzzEnv struct {
	once  sync.Once
	dev   *Device
	base  [][2][]float64 // {ecg, z} per subject, fuzzBaseSeconds long
	delin [][]float64    // z per subject, delinFuzzSeconds long
	rs    [][]int        // R peaks detected on each delin recording's ECG
	err   error
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
			fuzzEnv.delin = append(fuzzEnv.delin, short.Z)
			pt, err := ecg.NewPTStream(ecg.DefaultPT(dev.cfg.FS))
			if err != nil {
				fuzzEnv.err = err
				return
			}
			fuzzEnv.rs = append(fuzzEnv.rs, pt.Flush(pt.Push(nil, short.ECG)))
		}
	})
	return fuzzEnv.err
}

// fuzzBaseSeconds is the length of FuzzStreamerPush's base recordings.
const fuzzBaseSeconds = 30

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

		run := func(chunked bool) ([]hemo.BeatParams, StreamHealth, float64) {
			st := fuzzEnv.dev.NewStreamer(StreamConfig{})
			var beats []hemo.BeatParams
			if !chunked {
				beats = append(beats, st.Push(ecg, z)...)
			} else {
				ci, pos := 0, 0
				for pos < n {
					c := 0 // empty pushes must be harmless
					if len(chunks) > 0 {
						c = fuzzChunk(chunks[ci%len(chunks)], n)
						ci++
					}
					if c == 0 && len(chunks) == 0 {
						c = 1
					}
					end := pos + c
					if end > n {
						end = n
					}
					beats = append(beats, st.Push(ecg[pos:end], z[pos:end])...)
					pos = end
					if c == 0 {
						// Still consume input eventually: alternate an
						// empty push with a 1-sample push.
						beats = append(beats, st.Push(ecg[pos:pos+min(1, n-pos)], z[pos:pos+min(1, n-pos)])...)
						pos += min(1, n-pos)
					}
				}
			}
			beats = append(beats, st.Flush()...)
			return beats, st.Health(), st.AcceptRate()
		}

		ref, refHealth, refRate := run(false)
		got, gotHealth, gotRate := run(true)
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

// FuzzDelineatorRefilterCache pins the rolling filtfilt cache's laws
// under fuzzing, on study-subject -dZ/dt streams with fuzz-chosen
// gain/offset perturbations and chunkings:
//
//  1. Bit identity for every chunking: in rolling-cache mode, pushing
//     the stream in any chunking — 1-sample, empty and fuzz-chosen
//     pushes included — yields a beat stream bit-identical (every int
//     and every float bit) to the whole-push full refilter of the same
//     stream. The same law is pinned for the legacy windowed engine.
//  2. Cache vs legacy full refilter: the two engines share the detected
//     beat count and success pattern, and every characteristic point
//     agrees within the detector's decision tolerance (±2 samples) —
//     the residual being the windowed engine's re-grown edge
//     transients, which the context absorbs below decision level.
func FuzzDelineatorRefilterCache(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{125})
	f.Add(uint8(1), int64(7), []byte{1})
	f.Add(uint8(2), int64(-9), []byte{3, 0, 40, 250})
	f.Fuzz(func(t *testing.T, subject uint8, perturbSeed int64, chunks []byte) {
		if err := fuzzSetup(); err != nil {
			t.Skip("no device:", err)
		}
		idx := int(subject) % len(fuzzEnv.delin)
		baseZ := fuzzEnv.delin[idx]
		rs := fuzzEnv.rs[idx]
		fs := fuzzEnv.dev.cfg.FS
		rng := physio.NewRNG(perturbSeed)
		gain := 1 + 0.02*(rng.Float64()-0.5)
		offset := 0.5 * (rng.Float64() - 0.5)
		z := make([]float64, len(baseZ))
		for i, v := range baseZ {
			z[i] = v*gain + offset
		}
		// The delineator consumes the derivative stage's output; the
		// chain's own chunk invariance is FuzzStreamerPush's law, so it
		// runs whole here and only the delineator input is re-chunked.
		deriv := Chain{icgDerivStage{fs: fs}}.NewStream()
		sig := deriv.Flush(deriv.Push(nil, z))

		dCfg := defaultDetectFor(fuzzEnv.dev.cfg, fs)
		lp, hp := fuzzEnv.dev.bank.icgLP, fuzzEnv.dev.bank.icgHP
		run := func(legacy, chunked bool) []icg.BeatAnalysis {
			d := icg.NewDelineator(dCfg, lp, hp, 0, icgCtxSeconds, 6, &fuzzEnv.dev.arenas)
			d.SetLegacyRefilter(legacy)
			var out []icg.BeatAnalysis
			if !chunked {
				// The 8 s acquisition fits the history ring whole, so
				// the full refilter can run with everything in view.
				out = d.PushICG(out, sig)
				for _, r := range rs {
					out = d.PushR(out, r)
				}
				return d.Flush(out)
			}
			ci, pos, nextR := 0, 0, 0
			for pos < len(sig) {
				c := 1
				if len(chunks) > 0 {
					c = int(chunks[ci%len(chunks)])
					ci++
				}
				end := pos + c
				if end > len(sig) {
					end = len(sig)
				}
				out = d.PushICG(out, sig[pos:end])
				pos = end
				if c == 0 && pos < len(sig) {
					out = d.PushICG(out, sig[pos:pos+1])
					pos++
				}
				for nextR < len(rs) && rs[nextR] < pos {
					out = d.PushR(out, rs[nextR])
					nextR++
				}
			}
			for ; nextR < len(rs); nextR++ {
				out = d.PushR(out, rs[nextR])
			}
			return d.Flush(out)
		}

		rollWhole := run(false, false)
		for _, mode := range []struct {
			name   string
			legacy bool
		}{{"rolling", false}, {"legacy", true}} {
			want := rollWhole
			if mode.legacy {
				want = run(true, false)
			}
			got := run(mode.legacy, true)
			if len(got) != len(want) {
				t.Fatalf("%s: chunked run emitted %d beats, whole-push %d", mode.name, len(got), len(want))
			}
			for i := range want {
				if d := beatDiff(got[i], want[i]); d != "" {
					t.Fatalf("%s beat %d: chunked differs from whole-push on %s", mode.name, i, d)
				}
			}
			if !mode.legacy {
				continue
			}
			// Law 2: cache vs the legacy full refilter, decision level.
			if len(want) != len(rollWhole) {
				t.Fatalf("legacy emitted %d beats, rolling cache %d", len(want), len(rollWhole))
			}
			for i := range want {
				l, r := want[i], rollWhole[i]
				if (l.Err == nil) != (r.Err == nil) {
					t.Fatalf("beat %d: legacy err %v, rolling err %v", i, l.Err, r.Err)
				}
				if l.Err != nil {
					continue
				}
				db, dc, dx := l.Points.B-r.Points.B, l.Points.C-r.Points.C, l.Points.X-r.Points.X
				if db < -2 || db > 2 || dc < -2 || dc > 2 || dx < -2 || dx > 2 {
					t.Fatalf("beat %d: legacy B/C/X %d/%d/%d vs rolling %d/%d/%d",
						i, l.Points.B, l.Points.C, l.Points.X, r.Points.B, r.Points.C, r.Points.X)
				}
			}
		}
	})
}

// delinFuzzSeconds is the length of FuzzDelineatorRefilterCache's
// recordings: short enough to fit the 6 s beat ring with its settling
// contexts in one push.
const delinFuzzSeconds = 8
