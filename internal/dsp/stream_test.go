package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// chunkings exercised by every streaming-parity test, including the
// worst case of 1-sample pushes.
var chunkSizes = []int{1, 3, 17, 250, 4096}

// kernel is the Push/Flush contract every streaming kernel shares.
type kernel interface {
	Push(a *Arena, dst, x []float64) []float64
	Flush(a *Arena, dst []float64) []float64
}

// pushChunked streams x[:n] through s in chunk-sized pushes, lending
// every push a reset arena the way the streaming engine does, so a
// kernel that kept a reference into its scratch past the push would
// read another push's data.
func pushChunked(t *testing.T, n, chunk int, s kernel, x []float64) []float64 {
	t.Helper()
	var a Arena
	var out []float64
	for pos := 0; pos < n; pos += chunk {
		end := pos + chunk
		if end > n {
			end = n
		}
		a.Reset()
		out = s.Push(&a, out, x[pos:end])
	}
	a.Reset()
	return s.Flush(&a, out)
}

func randSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	phase := 0.0
	for i := range x {
		phase += 0.02 + 0.01*rng.Float64()
		x[i] = math.Sin(phase) + 0.3*rng.NormFloat64() + 0.2
	}
	return x
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestFIRStreamCausalMatchesBatch(t *testing.T) {
	f, err := DesignBandPass(32, 0.05, 40, 250, WindowHamming)
	if err != nil {
		t.Fatal(err)
	}
	x := randSignal(1200, 1)
	want := f.ApplyCausal(x)
	for _, chunk := range chunkSizes {
		s := NewFIRStream(f)
		got := pushChunked(t, len(x), chunk, s, x)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d outputs, want %d", chunk, len(got), len(want))
		}
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("chunk %d: max diff %g", chunk, d)
		}
	}
}

func TestFIRStreamSameMatchesBatch(t *testing.T) {
	f, err := DesignLowPass(24, 20, 250, WindowHamming)
	if err != nil {
		t.Fatal(err)
	}
	x := randSignal(900, 2)
	want := f.Apply(x)
	for _, chunk := range chunkSizes {
		s := NewFIRSameStream(f)
		got := pushChunked(t, len(x), chunk, s, x)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d outputs, want %d", chunk, len(got), len(want))
		}
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("chunk %d: max diff %g", chunk, d)
		}
	}
}

func TestZeroPhaseFIRStreamMatchesFiltFilt(t *testing.T) {
	f, err := DesignBandPass(32, 0.05, 40, 250, WindowHamming)
	if err != nil {
		t.Fatal(err)
	}
	x := randSignal(1500, 3)
	want := FiltFiltFIR(f, x)
	for _, chunk := range chunkSizes {
		s := NewZeroPhaseFIRStream(f)
		got := pushChunked(t, len(x), chunk, s, x)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d outputs, want %d", chunk, len(got), len(want))
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("chunk %d: max diff %g", chunk, d)
		}
	}
	// Reset reuses the stream for a second identical pass.
	s := NewZeroPhaseFIRStream(f)
	_ = pushChunked(t, len(x), 7, s, x)
	s.Reset()
	got := pushChunked(t, len(x), 7, s, x)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("after Reset: max diff %g", d)
	}
}

func TestSOSStreamMatchesFilter(t *testing.T) {
	sos, err := DesignButterLowPass(4, 20, 250)
	if err != nil {
		t.Fatal(err)
	}
	x := randSignal(1000, 4)
	want := sos.Filter(x)
	for _, chunk := range chunkSizes {
		s := NewSOSStream(sos, false)
		got := pushChunked(t, len(x), chunk, s, x)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d outputs, want %d", chunk, len(got), len(want))
		}
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("chunk %d: max diff %g", chunk, d)
		}
	}
}

func TestSOSStreamPrimeSuppressesTransient(t *testing.T) {
	sos, err := DesignButterLowPass(4, 20, 250)
	if err != nil {
		t.Fatal(err)
	}
	// A constant input must pass through a primed DC-unity low-pass
	// exactly from the very first sample.
	s := NewSOSStream(sos, true)
	x := make([]float64, 50)
	for i := range x {
		x[i] = 3.7
	}
	got := s.Push(nil, nil, x)
	for i, v := range got {
		if math.Abs(v-3.7) > 1e-9 {
			t.Fatalf("sample %d: %g, want 3.7", i, v)
		}
	}
}

func TestDerivStreamMatchesBatch(t *testing.T) {
	x := randSignal(700, 5)
	fs := 250.0
	want := Derivative(x, fs)
	for i := range want {
		want[i] = -want[i]
	}
	for _, chunk := range chunkSizes {
		s := NewDerivStream(fs, -1)
		got := pushChunked(t, len(x), chunk, s, x)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d outputs, want %d", chunk, len(got), len(want))
		}
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("chunk %d: max diff %g", chunk, d)
		}
	}
}

func TestMovExtStreamMatchesDeque(t *testing.T) {
	x := randSignal(800, 6)
	for _, k := range []int{3, 25, 51, 76} {
		left, right := (k-1)/2, k/2
		wantMin := dequeExt(x, left, right, true)
		wantMax := dequeExt(x, left, right, false)
		if !equalBits(Erode(x, k), wantMin) || !equalBits(Dilate(x, k), wantMax) {
			t.Fatalf("k=%d: batch Erode/Dilate differ from the deque", k)
		}
		for _, chunk := range chunkSizes {
			smin := NewMovExtStream(left, right, true)
			if got := pushChunked(t, len(x), chunk, smin, x); !equalBits(got, wantMin) {
				t.Errorf("k=%d chunk %d erode: outputs differ from the deque", k, chunk)
			}
			smax := NewMovExtStream(left, right, false)
			if got := pushChunked(t, len(x), chunk, smax, x); !equalBits(got, wantMax) {
				t.Errorf("k=%d chunk %d dilate: outputs differ from the deque", k, chunk)
			}
		}
	}
}

func TestRingBasics(t *testing.T) {
	narrow := func(n int) *Ring { return NewNarrowRing(n, 1) }
	for _, mk := range []func(int) *Ring{NewRing, narrow} {
		r := mk(8)
		for i := 0; i < 20; i++ {
			r.Push(float64(i))
		}
		if r.N() != 20 {
			t.Fatalf("N=%d", r.N())
		}
		if r.Start() > 12 {
			t.Fatalf("Start=%d retains too little", r.Start())
		}
		for i := r.Start(); i < r.N(); i++ {
			if r.At(i) != float64(i) {
				t.Fatalf("At(%d)=%g", i, r.At(i))
			}
		}
		got := r.CopyTo(nil, 15, 19)
		if len(got) != 4 || got[0] != 15 || got[3] != 18 {
			t.Fatalf("CopyTo: %v", got)
		}
		if m := r.ArgMax(13, 20); m != 19 {
			t.Fatalf("ArgMax=%d", m)
		}
	}
}

// dequeExt is the monotonic-deque sliding min/max over windows
// [i-left, i+right] clamped to x: the engine MovExtStream's block kernel
// replaced, kept as its oracle. Among equal values the deque keeps the
// newest (a newer equal evicts the older), so that is the one it emits.
func dequeExt(x []float64, left, right int, min bool) []float64 {
	n := len(x)
	dst := make([]float64, n)
	dq := make([]int, 0, n)
	j := 0 // next signal index to admit
	for i := range n {
		hi := i + right
		if hi > n-1 {
			hi = n - 1
		}
		for ; j <= hi; j++ {
			for len(dq) > 0 && (min && x[j] <= x[dq[len(dq)-1]] || !min && x[j] >= x[dq[len(dq)-1]]) {
				dq = dq[:len(dq)-1]
			}
			dq = append(dq, j)
		}
		for dq[0] < i-left {
			dq = dq[1:]
		}
		dst[i] = x[dq[0]]
	}
	return dst
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// onGridSignal is randSignal rounded to float32: every sample is
// float32-exact, so a narrow deque stays narrow.
func onGridSignal(n int, seed int64) []float64 {
	x := randSignal(n, seed)
	for i, v := range x {
		x[i] = float64(float32(v))
	}
	return x
}

// TestMovExtStreamBlockPhase sweeps the block kernel's phase against
// the chunking: windows from a single sample to asymmetric ones (the
// last with a right extent past Flush's 64-sample pad), chunks of one
// sample, one short of the block, one block, one past it and a size
// prime to every block, on float32-exact input (the stream stays
// narrow) and off it (it widens at the first sample). Every output,
// the edge clamping at both ends included, must equal the deque's bit
// for bit.
func TestMovExtStreamBlockPhase(t *testing.T) {
	for _, grid := range []bool{true, false} {
		x := randSignal(1200, 12)
		if grid {
			x = onGridSignal(1200, 12)
		}
		for _, win := range [][2]int{{0, 0}, {3, 7}, {25, 25}, {37, 37}, {10, 40}, {2, 70}} {
			w := win[0] + win[1] + 1
			for _, min := range []bool{true, false} {
				want := dequeExt(x, win[0], win[1], min)
				for _, chunk := range []int{1, w - 1, w, w + 1, 997} {
					if chunk < 1 {
						continue
					}
					s := NewMovExtStream(win[0], win[1], min)
					if got := pushChunked(t, len(x), chunk, s, x); !equalBits(got, want) {
						t.Fatalf("grid %v window %v min %v chunk %d: outputs differ from the deque",
							grid, win, min, chunk)
					}
					if s.Narrow() != grid {
						t.Fatalf("grid %v window %v: narrow %v", grid, win, s.Narrow())
					}
				}
			}
		}
	}
}

// TestMovExtStreamTies pins the tie rule on input drawn from {-0, +0,
// -1, +1}, where most windows hold equal extrema: -0 and +0 compare
// equal but differ in their bits, so only the deque's rule, the newest
// of equal values, reproduces its outputs. Stream and batch kernel
// alike.
func TestMovExtStreamTies(t *testing.T) {
	vals := []float64{math.Copysign(0, -1), 0, -1, 1}
	rng := rand.New(rand.NewSource(14))
	x := make([]float64, 900)
	for i := range x {
		x[i] = vals[rng.Intn(len(vals))]
	}
	for _, win := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {2, 3}, {25, 25}, {37, 37}} {
		for _, min := range []bool{true, false} {
			want := dequeExt(x, win[0], win[1], min)
			for _, chunk := range []int{1, 7, 64, 997} {
				s := NewMovExtStream(win[0], win[1], min)
				if got := pushChunked(t, len(x), chunk, s, x); !equalBits(got, want) {
					t.Fatalf("window %v min %v chunk %d: outputs differ from the deque", win, min, chunk)
				}
			}
			if got := slideWith(nil, x, win[0], win[1], min); !equalBits(got, want) {
				t.Fatalf("window %v min %v: batch kernel differs from the deque", win, min)
			}
		}
	}
}

// TestMovExtStreamResetKeepsWidth pins the width across Reset, as for
// Ring: a widened stream stays wide, a narrow one stays narrow, and both
// replay their stream bit for bit.
func TestMovExtStreamResetKeepsWidth(t *testing.T) {
	onGrid := onGridSignal(700, 13)
	offGrid := randSignal(700, 13)
	s := NewMovExtStream(12, 9, true)
	first := s.Flush(nil, s.Push(nil, nil, onGrid))
	if !s.Narrow() {
		t.Fatal("stream widened on float32-exact input")
	}
	s.Reset()
	if again := s.Flush(nil, s.Push(nil, nil, onGrid)); !s.Narrow() || !equalBits(again, first) {
		t.Fatal("narrow stream changed width or output across Reset")
	}
	s.Push(nil, nil, offGrid[:1])
	if s.Narrow() {
		t.Fatal("stream stayed narrow on an off-grid sample")
	}
	s.Reset()
	if s.Narrow() {
		t.Fatal("Reset narrowed a widened stream")
	}
	if again := s.Flush(nil, s.Push(nil, nil, onGrid)); !equalBits(again, first) {
		t.Fatal("widened stream's output differs after Reset")
	}
	if s.Narrow() || len(s.v64) != 12+9+1 || s.v32 != nil {
		t.Fatal("widened stream does not hold exactly one window-length float64 buffer")
	}
}
