package dsp

import (
	"math"
	"testing"
)

// Kernel-level benchmarks for the convolution engines, the biquad
// cascades and the zero-phase wrappers. The 30 s / 250 Hz working size
// (n = 7500) matches the paper's protocol window; 251 taps is the wide
// baseline-removal FIR that exercises the FFT overlap-save path, 33
// taps the paper's ECG band-pass that stays on the direct path.

func benchSignal(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		t := float64(i) / 250
		x[i] = math.Sin(2*math.Pi*1.1*t) + 0.4*math.Sin(2*math.Pi*17*t) + 0.1*math.Sin(2*math.Pi*49*t)
	}
	return x
}

func benchFIR(b *testing.B, taps int) *FIR {
	b.Helper()
	f, err := DesignLowPass(taps-1, 30, 250, WindowHamming)
	if err != nil {
		b.Fatal(err)
	}
	f.Prepare()
	return f
}

// BenchmarkConvWide251 is the wide-filter convolution headliner: a
// 251-tap FIR over a 30 s window on the FFT overlap-save engine.
func BenchmarkConvWide251(b *testing.B) {
	f := benchFIR(b, 251)
	x := benchSignal(7500)
	dst := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.plan().convFFTInto(dst, x, 125)
	}
}

// BenchmarkConvECG33 pins the paper's 33-tap band-pass on the direct
// three-region engine (the cost model's choice at this width).
func BenchmarkConvECG33(b *testing.B) {
	f := benchFIR(b, 33)
	x := benchSignal(7500)
	dst := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		convDirectInto(dst, x, f.reversed(), 16)
	}
}

// BenchmarkZeroPhaseFIRStream30s is the streaming zero-phase ECG
// band-pass exactly as the session path runs it: the 33-tap design's
// 65-tap composite kernel, fed in 1 s hops, on input quantized to the
// ECG ADC's grid (5·2⁻¹⁵) — "narrow" with the overlap-save carry stored
// as ADC codes, as the streamer builds it, "wide" with a float64 carry.
func BenchmarkZeroPhaseFIRStream30s(b *testing.B) {
	const lsb = 5 * 0x1p-15
	f := benchFIR(b, 33)
	x := benchSignal(7500)
	for i, v := range x {
		x[i] = math.Round(v/lsb)*lsb + 0 // code 0 is +0, as the ADC's
	}
	for _, c := range []struct {
		name string
		s    *FIRStream
	}{{"narrow", NewNarrowZeroPhaseFIRStream(f, lsb)}, {"wide", NewZeroPhaseFIRStream(f)}} {
		b.Run(c.name, func(b *testing.B) {
			s := c.s
			var a Arena
			dst := make([]float64, 0, len(x))
			b.ReportAllocs()
			for b.Loop() {
				s.Reset()
				dst = dst[:0]
				for pos := 0; pos < len(x); pos += 250 {
					a.Reset()
					dst = s.Push(&a, dst, x[pos:pos+250])
				}
				dst = s.Flush(&a, dst)
			}
			if s.Narrow() != (c.name == "narrow") {
				b.Fatalf("carry narrow = %v", s.Narrow())
			}
		})
	}
}

// BenchmarkZeroPhaseFIRStream30sDirect is the same path pinned to the
// direct per-sample recurrence: the A/B baseline for the streaming
// overlap-save crossover.
func BenchmarkZeroPhaseFIRStream30sDirect(b *testing.B) {
	f := benchFIR(b, 33)
	x := benchSignal(7500)
	s := newZeroPhaseFIRStream(f.zeroPhase())
	var a Arena
	dst := make([]float64, 0, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		dst = dst[:0]
		for pos := 0; pos < len(x); pos += 250 {
			a.Reset()
			dst = s.Push(&a, dst, x[pos:pos+250])
		}
		dst = s.Flush(&a, dst)
	}
}

// BenchmarkFiltFiltWide251 is the zero-phase double pass over the wide
// filter — two overlap-save convolutions plus the reflection padding.
func BenchmarkFiltFiltWide251(b *testing.B) {
	f := benchFIR(b, 251)
	x := benchSignal(7500)
	var a Arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		FiltFiltFIRWith(&a, f, x)
	}
}

func benchSOS(b *testing.B) SOS {
	b.Helper()
	s, err := DesignButterLowPass(4, 20, 250)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSOSFilterTo is the causal order-4 (two-section) Butterworth
// cascade over a 30 s window.
func BenchmarkSOSFilterTo(b *testing.B) {
	s := benchSOS(b)
	x := benchSignal(7500)
	dst := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FilterTo(dst, x)
	}
}

// BenchmarkSOSFilterTo4 is the four-section cascade (the band-noise
// band-pass shape) — the deepest pipeline the designs produce.
func BenchmarkSOSFilterTo4(b *testing.B) {
	s, err := DesignButterBandPass(4, 0.5, 30, 250)
	if err != nil {
		b.Fatal(err)
	}
	x := benchSignal(7500)
	dst := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FilterTo(dst, x)
	}
}

// BenchmarkSOSFiltFilt is the zero-phase forward-backward cascade (the
// ICG conditioning shape) over a 30 s window.
func BenchmarkSOSFiltFilt(b *testing.B) {
	s := benchSOS(b)
	x := benchSignal(7500)
	var a Arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		s.FiltFiltWith(&a, x)
	}
}

// BenchmarkSOSStream30s streams the order-4 cascade in 250-sample
// chunks — the per-hop shape of the incremental engine.
func BenchmarkSOSStream30s(b *testing.B) {
	s := benchSOS(b)
	x := benchSignal(7500)
	st := NewSOSStream(s, true)
	dst := make([]float64, 0, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset()
		out := dst
		for lo := 0; lo < len(x); lo += 250 {
			out = st.Push(nil, out[:0], x[lo:lo+250])
		}
	}
}
