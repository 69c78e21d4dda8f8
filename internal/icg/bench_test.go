package icg

import (
	"testing"

	"repro/internal/dsp"
	"repro/internal/physio"
)

// benchBeats prepares a clean recording plus its filtered ICG for the
// per-beat delineation benchmarks.
func benchBeats(b *testing.B) (*physio.Recording, []float64) {
	b.Helper()
	s, ok := physio.SubjectByID(1)
	if !ok {
		b.Fatal("no subject 1")
	}
	rec := s.Generate(physio.DefaultGenConfig())
	filt, err := DefaultFilter(rec.FS).Apply(rec.ICG)
	if err != nil {
		b.Fatal(err)
	}
	return rec, filt
}

// BenchmarkDetectBeat measures one full delineation (detrend, fused
// smooth+derivative kernel, B/C/X rules) per iteration, cycling through
// the recording's beats with a shared warmed arena — the steady state
// of the batch pipeline's beat loop.
func BenchmarkDetectBeat(b *testing.B) {
	rec, filt := benchBeats(b)
	tr := rec.Truth
	a := new(dsp.Arena)
	var bp BeatPoints
	run := func(b *testing.B, cfg DetectConfig) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % (tr.Beats() - 1)
			a.Reset()
			if err := DetectBeatInto(&bp, a, filt, tr.RPeaks[j], tr.RPeaks[j+1], -1, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("movavg", func(b *testing.B) { run(b, DefaultDetect(rec.FS)) })
	b.Run("savgol", func(b *testing.B) {
		cfg := DefaultDetect(rec.FS)
		cfg.UseSavGol = true
		run(b, cfg)
	})
}

// TestDetectBeatAllocBudget pins the per-beat allocation count of the
// warmed steady state at zero: with an arena that has converged to the
// loop's peak footprint and the Savitzky-Golay kernel cache populated,
// a delineation performs no heap allocation in either smoothing mode.
// (PR 8: the fused kernel plus the alloc-free sign-pattern matcher,
// median scratch and line-fit scratch got this from ~8 to 0.)
func TestDetectBeatAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting in -short")
	}
	s, _ := physio.SubjectByID(1)
	rec := s.Generate(physio.DefaultGenConfig())
	filt, err := DefaultFilter(rec.FS).Apply(rec.ICG)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Truth
	a := new(dsp.Arena)
	var bp BeatPoints
	for _, mode := range []struct {
		name   string
		savgol bool
	}{{"movavg", false}, {"savgol", true}} {
		cfg := DefaultDetect(rec.FS)
		cfg.UseSavGol = mode.savgol
		// Warm the arena and kernel cache over every beat first: the
		// budget governs the steady state, not the first pass.
		for j := 0; j+1 < tr.Beats(); j++ {
			a.Reset()
			_ = DetectBeatInto(&bp, a, filt, tr.RPeaks[j], tr.RPeaks[j+1], -1, cfg)
		}
		j := 0
		got := testing.AllocsPerRun(50, func() {
			a.Reset()
			_ = DetectBeatInto(&bp, a, filt, tr.RPeaks[j], tr.RPeaks[j+1], -1, cfg)
			j = (j + 1) % (tr.Beats() - 1)
		})
		if got > 0 {
			t.Errorf("%s: %.1f allocs per warmed DetectBeatInto, budget 0", mode.name, got)
		}
	}
}

// BenchmarkDelineatorBeat measures the streaming delineator's per-beat
// work with a warm arena, cycling through a recording's beats: the
// replay of -dZ/dt and the forward pass from the checkpoint below the
// window, the backward and low-pass refilter, and point detection —
// everything drain does for a beat once its samples have arrived.
func BenchmarkDelineatorBeat(b *testing.B) {
	rec, _ := benchBeats(b)
	fs := rec.FS
	// Float32-exact impedance, like the front end's ADC codes, keeps
	// the raw ring narrow as it is in service.
	z := make([]float64, len(rec.DZ))
	for i := range z {
		z[i] = float64(float32(30 + rec.DZ[i] + rec.Resp[i]))
	}
	lp, hp, err := DefaultFilter(fs).Design()
	if err != nil {
		b.Fatal(err)
	}
	const ctxSeconds = 2.5
	raw := dsp.NewNarrowRing(len(z))
	d := NewDelineator(DefaultDetect(fs), lp, hp, false, ctxSeconds, 3, raw, new(dsp.ArenaPool))
	raw.Append(z)
	d.Advance(nil, nil)
	tr := rec.Truth
	var beats [][4]int // lo, hi, segLo, segHi of every beat with its full context
	for j := 0; j+1 < tr.Beats(); j++ {
		segLo, segHi := tr.RPeaks[j], tr.RPeaks[j+1]
		if hi := segHi + d.ctxN; hi <= d.n {
			beats = append(beats, [4]int{max(segLo-d.back, 0), hi, segLo, segHi})
		}
	}
	a := new(dsp.Arena)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := beats[i%len(beats)]
		a.Reset()
		d.analyze(a, w[0], w[1], w[2], w[3])
	}
}
