package dsp

import (
	"math"
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
	if s := NewZeroPhaseFIRStreamDirect(f); s.os != nil {
		t.Fatalf("Direct constructor engaged overlap-save")
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
	sd := NewZeroPhaseFIRStreamDirect(f)
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
	for _, s := range []*FIRStream{NewZeroPhaseFIRStream(f), NewZeroPhaseFIRStreamDirect(f)} {
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
