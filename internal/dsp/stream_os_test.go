package dsp

import (
	"math"
	"slices"
	"testing"
)

// The streaming overlap-save engine must (1) engage for the paper's
// 65-tap zero-phase ECG composite, (2) stay BIT-identical across every
// chunking of the same stream — the absolute block grid makes the block
// that computes a given output a pure function of the cumulative sample
// count — and (3) agree with both the direct streaming engine and the
// batch forward-backward filter to FFT rounding (~1e-12), the same
// relationship FIR.ApplyFFT has to ApplyDirect.

func TestZeroPhaseFIRStreamOverlapSaveEngages(t *testing.T) {
	f, err := DesignBandPass(32, 0.05, 40, 250, WindowHamming)
	if err != nil {
		t.Fatal(err)
	}
	if s := NewZeroPhaseFIRStream(f); s.os == nil {
		t.Fatalf("65-tap composite kernel did not engage overlap-save")
	}
	// The direct engine is the reference the parity test and the
	// benchmark compare against: it must stay direct at any width.
	if s := newZeroPhaseFIRStream(f.zeroPhase()); s.os != nil {
		t.Fatalf("direct reference engaged overlap-save")
	}
	// Narrow kernels stay on the direct engine: the 9-tap design's
	// 17-tap composite is far below the crossover.
	nf, err := DesignLowPass(8, 30, 250, WindowHamming)
	if err != nil {
		t.Fatal(err)
	}
	if s := NewZeroPhaseFIRStream(nf); s.os != nil {
		t.Fatalf("17-tap composite kernel engaged overlap-save")
	}
}

func TestZeroPhaseFIRStreamOverlapSaveChunkInvariantBitwise(t *testing.T) {
	f, err := DesignBandPass(32, 0.05, 40, 250, WindowHamming)
	if err != nil {
		t.Fatal(err)
	}
	// Lengths chosen to leave every flavor of final partial block: less
	// than one block, exactly block-aligned, one sample past a block
	// boundary, and a long stream; 33 is the priming threshold itself.
	for _, n := range []int{33, 40, 192, 255, 256, 257, 448, 449, 1500, 7500} {
		x := randSignal(n, int64(n))
		s := NewZeroPhaseFIRStream(f)
		if s.os == nil {
			t.Fatal("overlap-save not engaged")
		}
		ref := pushChunked(t, n, n, s, x)
		if len(ref) != n {
			t.Fatalf("n=%d: %d outputs from whole-stream push", n, len(ref))
		}
		for _, chunk := range chunkSizes {
			s.Reset()
			got := pushChunked(t, n, chunk, s, x)
			if len(got) != n {
				t.Fatalf("n=%d chunk %d: %d outputs", n, chunk, len(got))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("n=%d chunk %d: output %d differs: %g vs %g", n, chunk, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestZeroPhaseFIRStreamOverlapSaveMatchesDirect(t *testing.T) {
	f, err := DesignBandPass(32, 0.05, 40, 250, WindowHamming)
	if err != nil {
		t.Fatal(err)
	}
	x := randSignal(3000, 11)
	sd := newZeroPhaseFIRStream(f.zeroPhase())
	want := pushChunked(t, len(x), 250, sd, x)
	so := NewZeroPhaseFIRStream(f)
	got := pushChunked(t, len(x), 250, so, x)
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("overlap-save vs direct: max diff %g", d)
	}
	// Both engines must also report a Lookahead that bounds their true
	// worst-case emission lag over a 1-sample-push stream.
	for _, s := range []*FIRStream{NewZeroPhaseFIRStream(f), newZeroPhaseFIRStream(f.zeroPhase())} {
		la := s.Lookahead()
		emitted := 0
		for i := 0; i < 1200; i++ {
			out := s.Push(nil, nil, x[i:i+1])
			emitted += len(out)
			if need := i + 1 - la; emitted < need {
				t.Fatalf("after input %d only %d outputs emitted; Lookahead %d promises >= %d", i, emitted, la, need)
			}
		}
	}
}

// A narrow zero-phase stream stores its overlap-save carry as 16-bit
// codes of the ECG ADC's LSB while its input is on that grid, and
// widens at the first sample that is not; its output must not show
// which. On grid input with the first off-grid sample at widenAt (or
// none), every chunking matches a stream that is float64 from the
// start bit for bit and reports Narrow() by the samples alone. Against
// FiltFiltFIR the output agrees to rounding once the stream is primed
// (one pass of the composite kernel against two of the design), and
// bit for bit on a stream shorter than the preamble, whose Flush runs
// FiltFiltFIR itself. Reset keeps the width.
func TestNarrowZeroPhaseFIRStreamMatchesFiltFilt(t *testing.T) {
	const lsb = 5 * 0x1p-15 // the ECG ADC's LSB
	f, err := DesignBandPass(32, 0.05, 40, 250, WindowHamming)
	if err != nil {
		t.Fatal(err)
	}
	preNeed := len(f.Taps) // the preamble's k-1 samples plus x[0]
	for _, n := range []int{1, 5, preNeed - 1, preNeed, 200, 1500} {
		grid := randSignal(n, int64(n))
		for i, v := range grid {
			grid[i] = math.Round(v*0.5/lsb)*lsb + 0 // code 0 is +0, as the ADC's
		}
		for _, widenAt := range []int{n, 0, n / 2, n - 1} {
			x := slices.Clone(grid)
			if widenAt < n {
				x[widenAt] = math.Nextafter(x[widenAt], 2)
			}
			// The second pass, after Reset, pushes the on-grid signal.
			var want [2][]float64
			for pass, in := range [][]float64{x, grid} {
				want[pass] = pushChunked(t, n, n, NewZeroPhaseFIRStream(f), in)
				batch := FiltFiltFIR(f, in)
				if d := maxAbsDiff(want[pass], batch); n < preNeed && d != 0 || d > 1e-12 {
					t.Fatalf("n=%d widenAt %d: the float64 stream differs from FiltFiltFIR by %g", n, widenAt, d)
				}
			}
			for _, chunk := range chunkSizes {
				s := NewNarrowZeroPhaseFIRStream(f, lsb)
				if s.os == nil || !s.Narrow() {
					t.Fatal("the 65-tap composite's stream is not a narrow overlap-save stream")
				}
				for pass, in := range [][]float64{x, grid} {
					got := pushChunked(t, n, chunk, s, in)
					if len(got) != n {
						t.Fatalf("n=%d chunk %d: %d outputs", n, chunk, len(got))
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[pass][i]) {
							t.Fatalf("n=%d widenAt %d chunk %d pass %d: output %d is %x, the float64 stream's %x",
								n, widenAt, chunk, pass, i, math.Float64bits(got[i]), math.Float64bits(want[pass][i]))
						}
					}
					if s.Narrow() != (widenAt >= n) {
						t.Fatalf("n=%d widenAt %d chunk %d pass %d: Narrow() = %v", n, widenAt, chunk, pass, s.Narrow())
					}
					s.Reset()
				}
			}
		}
	}
	s := NewNarrowZeroPhaseFIRStream(f, lsb)
	if hb, wb := s.HeldBytes(), NewZeroPhaseFIRStream(f).HeldBytes(); hb > 800 || wb-hb != 6*len(s.os.carry.codes) {
		t.Errorf("HeldBytes narrow %d B, wide %d B: want at most 800 B narrow and 6 B less a carry slot", hb, wb)
	}
}
