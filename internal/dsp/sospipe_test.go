package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// scalarCascade is the pre-pipeline section-major reference: one section
// over all samples, then the next. The pipelined kernels must match it
// bit for bit.
func scalarCascade(x []float64, s SOS, z1, z2 []float64, prime bool) []float64 {
	y := append([]float64(nil), x...)
	for si, bq := range s {
		var a, b float64
		if z1 != nil {
			a, b = z1[si], z2[si]
		}
		if prime {
			zi1, zi2 := biquadZi(bq)
			u := 0.0
			if len(y) > 0 {
				u = y[0]
			}
			a, b = zi1*u, zi2*u
		}
		for i, v := range y {
			out := bq.B0*v + a
			a = bq.B1*v - bq.A1*out + b
			b = bq.B2*v - bq.A2*out
			y[i] = out
		}
		if z1 != nil {
			z1[si], z2[si] = a, b
		}
	}
	return y
}

// testCascades returns stable cascades of 1..6 sections built from the
// repo's own designs, exercising every kernel width plus the >4 grouping.
func testCascades(t *testing.T) []SOS {
	t.Helper()
	lp2, err := DesignButterLowPass(2, 20, 250) // 1 section
	if err != nil {
		t.Fatal(err)
	}
	lp4, err := DesignButterLowPass(4, 20, 250) // 2 sections
	if err != nil {
		t.Fatal(err)
	}
	bp3, err := DesignButterBandPass(3, 0.5, 30, 250) // 3 sections
	if err != nil {
		t.Fatal(err)
	}
	bp4, err := DesignButterBandPass(4, 0.5, 30, 250) // 4 sections
	if err != nil {
		t.Fatal(err)
	}
	five := append(append(SOS{}, bp4...), lp2...) // 5 sections
	six := append(append(SOS{}, bp3...), bp3...)  // 6 sections
	return []SOS{lp2, lp4, bp3, bp4, five, six}
}

// TestSOSPipelineBitIdentical pins FilterTo and filterZiInPlace against
// the section-major scalar reference, bit for bit, across cascade depths
// 1..6 and lengths from empty through pipeline-fill edge cases to long.
func TestSOSPipelineBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 17, 100, 1001}
	for ci, s := range testCascades(t) {
		for _, n := range lengths {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			// FilterTo (zero state).
			want := scalarCascade(x, s, nil, nil, false)
			got := s.FilterTo(make([]float64, n), x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cascade %d n=%d FilterTo sample %d: %g != %g",
						ci, n, i, got[i], want[i])
				}
			}
			// In-place aliasing must give the same bits.
			inPlace := append([]float64(nil), x...)
			s.FilterTo(inPlace, inPlace)
			for i := range want {
				if inPlace[i] != want[i] {
					t.Fatalf("cascade %d n=%d in-place sample %d: %g != %g",
						ci, n, i, inPlace[i], want[i])
				}
			}
			// filterZiInPlace (primed state).
			wantZi := scalarCascade(x, s, nil, nil, true)
			gotZi := append([]float64(nil), x...)
			s.filterZiInPlace(gotZi)
			for i := range wantZi {
				if gotZi[i] != wantZi[i] {
					t.Fatalf("cascade %d n=%d zi sample %d: %g != %g",
						ci, n, i, gotZi[i], wantZi[i])
				}
			}
		}
	}
}

// TestSOSStreamPushBitIdentical pins the pipelined chunk path against the
// per-sample PushSample loop for every chunking, including 1-sample
// chunks, with and without zi priming, carrying state across chunks.
func TestSOSStreamPushBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 257
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for ci, s := range testCascades(t) {
		for _, prime := range []bool{false, true} {
			ref := NewSOSStream(s, prime)
			var want []float64
			for _, v := range x {
				want = append(want, ref.PushSample(v))
			}
			for _, chunk := range []int{1, 2, 3, 4, 5, 7, 16, 64, 250, n} {
				st := NewSOSStream(s, prime)
				var got []float64
				for lo := 0; lo < n; lo += chunk {
					hi := lo + chunk
					if hi > n {
						hi = n
					}
					got = st.Push(nil, got, x[lo:hi])
				}
				if len(got) != n {
					t.Fatalf("cascade %d chunk %d: %d outputs, want %d", ci, chunk, len(got), n)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("cascade %d prime=%v chunk %d sample %d: %g != %g",
							ci, prime, chunk, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSOSFilterSpansResumesStream pins the checkpoint contract: given a
// stream's State at the start of every span, SOS.FilterSpans
// reproduces the stream bit for bit, primed or not, for span counts
// that fill the lanes unevenly and a short last span.
func TestSOSFilterSpansResumesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n = 403
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for ci, s := range testCascades(t) {
		for _, prime := range []bool{false, true} {
			for _, span := range []int{1, 7, 32, 50, 101, 128, n} {
				for _, from := range []int{0, 3, 2 * span} {
					// A primed stream sets its registers at its first
					// sample, so its State before that is not the one
					// it runs from.
					if from >= n || prime && from == 0 {
						continue
					}
					// The stream's registers at every span start from
					// sample from on.
					st := NewSOSStream(s, prime)
					want := st.Push(nil, nil, x[:from])
					var states []float64
					for lo := from; lo < n; lo += span {
						z1, z2 := st.State()
						states = append(append(states, z1...), z2...)
						want = st.Push(nil, want, x[lo:min(lo+span, n)])
					}
					got := append([]float64(nil), x[from:]...)
					s.FilterSpans(got, span, states)
					for i, v := range got {
						if v != want[from+i] {
							t.Fatalf("cascade %d prime=%v span %d from %d sample %d: %g != %g",
								ci, prime, span, from, from+i, v, want[from+i])
						}
					}
				}
			}
		}
	}
}

// TestSOSPipelineStateCarry pins the persistent-register contract: after
// any split of the input, the carried z1/z2 must put the second half on
// exactly the same trajectory as one uninterrupted run.
func TestSOSPipelineStateCarry(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 101
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for ci, s := range testCascades(t) {
		z1 := make([]float64, len(s))
		z2 := make([]float64, len(s))
		whole := make([]float64, n)
		sosPipeRun(whole, x, s, z1, z2, false)
		endZ1 := append([]float64(nil), z1...)
		endZ2 := append([]float64(nil), z2...)
		for _, cut := range []int{1, 3, 4, 50, n - 1} {
			for i := range z1 {
				z1[i], z2[i] = 0, 0
			}
			out := make([]float64, n)
			sosPipeRun(out[:cut], x[:cut], s, z1, z2, false)
			sosPipeRun(out[cut:], x[cut:], s, z1, z2, false)
			for i := range whole {
				if out[i] != whole[i] {
					t.Fatalf("cascade %d cut %d sample %d: %g != %g", ci, cut, i, out[i], whole[i])
				}
			}
			for i := range z1 {
				if z1[i] != endZ1[i] || z2[i] != endZ2[i] {
					t.Fatalf("cascade %d cut %d: final state drifted", ci, cut)
				}
			}
		}
	}
}

// TestSOSFilterToStillFinite guards the kernels against NaN leaks from
// uninitialized lanes on degenerate inputs.
func TestSOSFilterToStillFinite(t *testing.T) {
	s, err := DesignButterBandPass(4, 0.5, 30, 250)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3} {
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		y := s.Filter(x)
		for i, v := range y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("n=%d sample %d not finite: %g", n, i, v)
			}
		}
	}
}
