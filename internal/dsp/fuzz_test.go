package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzDSPStreamChunkInvariance pins the streaming kernels' chunk
// invariance under fuzzing: for fuzz-chosen filter designs, signals and
// chunkings — including degenerate 1-sample and empty pushes — the
// batched fast paths must be bit-identical to their per-sample / whole-
// push references. This covers the three kernels with dedicated batch
// engines: SOSStream.Push (the 4-lane software-pipelined sosPipeRun vs
// the scalar PushSample recurrence), FIRStream (the blocked convSeqInto
// group kernel across arbitrary chunk boundaries, via the zero-phase
// composite), and MovExtStream (chunked vs whole push, and, on input on
// the float32 grid with its first off-grid sample at widenAt, the
// narrow deque that widens there vs one that is wide from the start;
// widenAt past the signal never widens).
func FuzzDSPStreamChunkInvariance(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(20), true, []byte{7, 1, 250}, uint16(0))
	f.Add(int64(-42), uint8(2), uint8(3), false, []byte{1}, uint16(65535))
	f.Add(int64(9), uint8(8), uint8(77), true, []byte{0, 64, 3}, uint16(40))
	// The off-grid sample arrives mid-window: inside the first window,
	// inside a chunk, and on a chunk boundary.
	f.Add(int64(3), uint8(5), uint8(21), true, []byte{13}, uint16(17))
	f.Add(int64(4), uint8(17), uint8(9), false, []byte{50, 7}, uint16(321))
	f.Add(int64(5), uint8(29), uint8(29), true, []byte{100}, uint16(500))
	f.Fuzz(func(t *testing.T, seed int64, orderSel, widthSel uint8, prime bool, chunks []byte, widenAt uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 600 + rng.Intn(600)
		x := make([]float64, n)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}

		cmpExact := func(name string, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d samples, want %d", name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: sample %d differs: %x != %x", name,
						i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}

		// chunked drives a stream through the fuzz-chosen chunking. A
		// zero byte becomes an empty push (which must be harmless),
		// followed by a 1-sample push so the loop still consumes input.
		chunked := func(push func(a *Arena, dst, c []float64) []float64) []float64 {
			var a Arena
			var out []float64
			ci, pos := 0, 0
			for pos < n {
				c := 1
				if len(chunks) > 0 {
					c = int(chunks[ci%len(chunks)])
					ci++
				}
				end := pos + c
				if end > n {
					end = n
				}
				a.Reset()
				out = push(&a, out, x[pos:end])
				pos = end
				if c == 0 && pos < n {
					a.Reset()
					out = push(&a, out, x[pos:pos+1])
					pos++
				}
			}
			return out
		}

		// SOS cascade: 1-4 sections at a fuzz-chosen cutoff.
		order := 2 + int(orderSel)%7
		cutoff := 1 + float64(widthSel%100)
		sos, err := DesignButterLowPass(order, cutoff, 250)
		if err != nil {
			t.Fatalf("lowpass design(%d, %g): %v", order, cutoff, err)
		}
		ref := NewSOSStream(sos, prime)
		scalar := make([]float64, n)
		for i, v := range x {
			scalar[i] = ref.PushSample(v)
		}
		whole := NewSOSStream(sos, prime)
		cmpExact("sos whole-push vs per-sample", whole.Push(nil, nil, x), scalar)
		st := NewSOSStream(sos, prime)
		cmpExact("sos chunked vs per-sample", chunked(st.Push), scalar)

		// Zero-phase FIR: odd tap count 9-65, whole-push vs chunked
		// (both finished by Flush, which drains the composite lookahead).
		taps := 9 + 2*(int(orderSel)%29)
		fir, err := DesignLowPass(taps-1, 30, 250, WindowHamming)
		if err != nil {
			t.Fatalf("FIR design(%d): %v", taps, err)
		}
		zw := NewZeroPhaseFIRStream(fir)
		wantFIR := zw.Flush(nil, zw.Push(nil, nil, x))
		zc := NewZeroPhaseFIRStream(fir)
		cmpExact("fir chunked vs whole-push", zc.Flush(nil, chunked(zc.Push)), wantFIR)

		// Moving extremum: fuzz-chosen asymmetric window, both polarities
		// via prime.
		left, right := int(widthSel)%30, int(orderSel)%30
		mw := NewMovExtStream(left, right, prime)
		wantExt := mw.Flush(nil, mw.Push(nil, nil, x))
		mc := NewMovExtStream(left, right, prime)
		cmpExact("movext chunked vs whole-push", mc.Flush(nil, chunked(mc.Push)), wantExt)

		// Narrow deque on float32-grid input whose first off-grid sample
		// (one float64 ulp off the grid) is at widenAt, against the
		// all-float64 oracle; its width must follow the samples alone.
		grid := make([]float64, n)
		for i, v := range x {
			grid[i] = float64(float32(v))
		}
		if p := int(widenAt); p < n {
			grid[p] = math.Nextafter(grid[p], 2)
		}
		wide := NewMovExtStream(left, right, prime)
		wide.widen()
		wantGrid := wide.Flush(nil, wide.Push(nil, nil, grid))
		x = grid // chunked pushes x
		nc := NewMovExtStream(left, right, prime)
		cmpExact("narrow movext chunked vs float64 oracle", nc.Flush(nil, chunked(nc.Push)), wantGrid)
		if nc.Narrow() != (int(widenAt) >= n) {
			t.Fatalf("narrow movext: Narrow() = %v with the first off-grid sample at %d of %d", nc.Narrow(), widenAt, n)
		}
	})
}
