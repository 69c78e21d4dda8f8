package quality

import (
	"math"
	"testing"

	"repro/internal/icg"
	"repro/internal/physio"
)

// fuzzFixture builds a gate scenario from fuzz-chosen seeds: a
// pulsatile raw impedance stream with artifacts (flatline dropouts,
// rail clipping, noise bursts) injected at rng-chosen beats, plus the
// per-beat delineator analyses. Everything derives deterministically
// from the two seeds.
func fuzzFixture(sigSeed, artSeed int64, nBeats int) *gateFixture {
	const fs = 250
	beatLen := 150 + int(uint64(sigSeed)%150) // 0.6-1.2 s beats
	n := beatLen*nBeats + 100
	rng := physio.NewRNG(sigSeed)
	f := &gateFixture{z: make([]float64, n)}
	for i := range f.z {
		tt := float64(i) / fs
		f.z[i] = 250 + 1.5*math.Sin(2*math.Pi*0.25*tt) +
			0.4*math.Sin(2*math.Pi*1.25*tt) + 0.02*rng.NormFloat64()
	}
	// Artifact injection: each beat draws its fate from artSeed.
	art := physio.NewRNG(artSeed)
	fate := make([]int, nBeats)
	for b := range fate {
		switch v := art.Float64(); {
		case v < 0.12:
			fate[b] = 1 // flatline dropout
		case v < 0.22:
			fate[b] = 2 // rail clipping
		case v < 0.30:
			fate[b] = 3 // noise burst
		case v < 0.38:
			fate[b] = 4 // delineation failure
		}
	}
	for b := 0; b < nBeats; b++ {
		lo := b * beatLen
		switch fate[b] {
		case 1:
			for i := lo + 10; i < lo+beatLen-10; i++ {
				f.z[i] = f.z[lo+9]
			}
		case 2:
			for i := lo + 5; i < lo+beatLen-5; i++ {
				if f.z[i] > 250 {
					f.z[i] = 260
				} else {
					f.z[i] = 240
				}
			}
		case 3:
			for i := lo; i < lo+beatLen; i++ {
				f.z[i] += 3 * art.NormFloat64()
			}
		}
	}
	cond := make([]float64, n)
	for i := range cond {
		ph := float64(i%beatLen) / float64(beatLen)
		cond[i] = math.Exp(-40*(ph-0.3)*(ph-0.3)) - 0.4*math.Exp(-60*(ph-0.6)*(ph-0.6)) +
			0.05*rng.NormFloat64()
	}
	for b := 0; b <= nBeats; b++ {
		f.rPeaks = append(f.rPeaks, b*beatLen)
	}
	for b := 0; b+1 <= nBeats; b++ {
		lo, hi := f.rPeaks[b], f.rPeaks[b+1]
		ba := icg.BeatAnalysis{Quality: 0.5 + 0.5*art.Float64()}
		if fate[b] == 4 {
			ba.Err = icg.ErrBeatTooShort
		} else {
			ba.Points = &icg.BeatPoints{R: lo, B: lo + 30, C: lo + 60, X: lo + 110, CAmp: 1}
			ba.Shape, ba.ShapeOK = icg.BeatShapeOf(cond, lo, hi)
		}
		f.beats = append(f.beats, ba)
	}
	return f
}

// FuzzGateStreamChunkInvariance is the gate parity law under fuzzing:
// for random signals, random artifact mixes and random chunk splits —
// with the sample feed running arbitrarily far ahead of beat scoring —
// the chunked GateStream must reproduce the batch Apply bit for bit.
// The seed corpus derives its signal seeds from the study subjects.
func FuzzGateStreamChunkInvariance(f *testing.F) {
	for _, sub := range physio.Subjects() {
		f.Add(sub.Seed, sub.Seed*3+1, uint8(24), []byte{1, 7, 64, 250})
	}
	f.Add(int64(99), int64(7), uint8(30), []byte{0, 255, 3, 17, 5})
	f.Fuzz(func(t *testing.T, sigSeed, artSeed int64, nBeats uint8, chunks []byte) {
		nb := 4 + int(nBeats)%28 // 4-31 beats keeps an iteration cheap
		fx := fuzzFixture(sigSeed, artSeed, nb)
		g := NewBeatGate(DefaultGate(250))
		ref := g.Apply(fx.z, fx.beats, fx.rPeaks)

		gs := newGateStream(g)
		var got []BeatSQI
		next, pushed := 0, 0
		score := func(flush bool) {
			for next < len(fx.beats) {
				b := &fx.beats[next]
				if b.Err != nil || b.Points == nil {
					gs.PushFailed()
					got = append(got, BeatSQI{})
					next++
					continue
				}
				if !flush && fx.rPeaks[next+1] > pushed {
					return
				}
				got = append(got, gs.PushBeat(nil, fx.rPeaks[next], fx.rPeaks[next+1], b))
				next++
			}
		}
		ci := 0
		for pushed < len(fx.z) {
			// Chunk sizes come from the fuzzed byte stream (1-1024).
			c := 1
			if len(chunks) > 0 {
				c = 1 + int(chunks[ci%len(chunks)])*4
				ci++
			}
			end := pushed + c
			if end > len(fx.z) {
				end = len(fx.z)
			}
			gs.ring.Append(fx.z[pushed:end])
			pushed = end
			score(false)
		}
		score(true)

		if len(got) != len(ref) {
			t.Fatalf("streamed %d results, batch %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("beat %d: stream %+v != batch %+v", i, got[i], ref[i])
			}
		}
		if a, tot := gs.Counts(); tot != len(fx.beats) || a < 0 || a > tot {
			t.Fatalf("counts %d/%d inconsistent with %d beats", a, tot, len(fx.beats))
		}
		if e := gs.AcceptEWMA(); math.IsNaN(e) || e < 0 || e > 1 {
			t.Fatalf("AcceptEWMA out of range: %g", e)
		}
	})
}
