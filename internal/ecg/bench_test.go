package ecg

import (
	"testing"

	"repro/internal/dsp"
)

// Benchmarks of the streamer's ECG-side streams over the paper's 30 s
// protocol window at 250 Hz, pushed in the 128-sample sub-chunks
// core.Streamer feeds them, with a reused arena as the streamer does.

// onGrid rounds x to a 2⁻¹² grid, as the front end's ADC codes are: every
// sample is float32-exact, so narrow storage stays narrow.
func onGrid(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = float64(int64(v*4096)) / 4096
	}
	return y
}

// BenchmarkBaselineStream30s runs the morphological baseline remover:
// "narrow" on ADC-grid input (float32 ring and deques), "wide" on
// off-grid input (float64 from the first sample).
func BenchmarkBaselineStream30s(b *testing.B) {
	fs := 250.0
	wide := synthECG(int(30*fs), fs, 21)
	for _, c := range []struct {
		name string
		x    []float64
	}{{"narrow", onGrid(wide)}, {"wide", wide}} {
		b.Run(c.name, func(b *testing.B) {
			s := NewBaselineStream(DefaultBaseline(fs))
			var a dsp.Arena
			out := make([]float64, 0, len(c.x))
			b.ReportAllocs()
			for b.Loop() {
				s.Reset()
				out = out[:0]
				for pos := 0; pos < len(c.x); pos += 128 {
					a.Reset()
					out = s.Push(&a, out, c.x[pos:min(pos+128, len(c.x))])
				}
				out = s.Flush(&a, out)
			}
			if len(out) != len(c.x) {
				b.Fatalf("%d outputs, want %d", len(out), len(c.x))
			}
		})
	}
}

// BenchmarkPTStream30s runs the incremental Pan-Tompkins detector on
// conditioned ECG.
func BenchmarkPTStream30s(b *testing.B) {
	fs := 250.0
	x, err := Clean(synthECG(int(30*fs), fs, 22), fs)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewPTStream(DefaultPT(fs))
	if err != nil {
		b.Fatal(err)
	}
	var a dsp.Arena
	rs := make([]int, 0, 64)
	b.ReportAllocs()
	for b.Loop() {
		s.Reset()
		rs = rs[:0]
		for pos := 0; pos < len(x); pos += 128 {
			a.Reset()
			rs = s.Push(&a, rs, x[pos:min(pos+128, len(x))])
		}
		rs = s.Flush(rs)
	}
	if len(rs) < 30 {
		b.Fatalf("%d R peaks in 30 s", len(rs))
	}
}
