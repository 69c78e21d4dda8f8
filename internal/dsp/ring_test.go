package dsp

import (
	"encoding/binary"
	"math"
	"testing"
)

// wideRing is the plain float64 ring every Ring must be bit-identical
// to, whatever its storage width: the oracle of FuzzRingStorage. It
// holds exactly its capacity (at least one sample), sample i in slot
// i mod capacity.
type wideRing struct {
	buf []float64
	n   int
}

func newWideRing(capacity int) *wideRing {
	return &wideRing{buf: make([]float64, max(capacity, 1))}
}

func (r *wideRing) push(v float64) {
	r.buf[r.n%len(r.buf)] = v
	r.n++
}

func (r *wideRing) start() int { return max(r.n-len(r.buf), 0) }

func (r *wideRing) at(i int) float64 { return r.buf[i%len(r.buf)] }

func (r *wideRing) argMax(lo, hi int) int {
	lo = ClampInt(lo, r.start(), r.n)
	hi = ClampInt(hi, r.start(), r.n)
	if lo >= hi {
		return -1
	}
	best := lo
	for i := lo + 1; i < hi; i++ {
		if r.at(i) > r.at(best) {
			best = i
		}
	}
	return best
}

// onCodeGrid is the narrow-storage law written out: v is stored as a
// 16-bit code relative to base when (v-base)/step rounded to the
// nearest integer, ties to even, lies in the int16 range and base plus
// that many steps reproduces v's float64 bits.
func onCodeGrid(v, base, step float64) bool {
	q := math.RoundToEven((v - base) / step)
	if math.IsNaN(q) || q < math.MinInt16 || q > math.MaxInt16 {
		return false
	}
	return math.Float64bits(base+float64(q*step)) == math.Float64bits(v)
}

// ringSteps are the grids FuzzRingStorage draws from: the impedance
// AC-path LSB (2⁻¹²), the ECG LSB (5·2⁻¹⁵, not a power of two), the
// impedance DC-path LSB, unit and decimal steps.
var ringSteps = []float64{0x1p-12, 5 * 0x1p-15, 1.0 / 16, 1, 0.1, 3}

// ringSamples decodes fuzz bytes into samples: a tag byte, then two
// bytes of an int16 code k standing for origin + k*step (tag even) or
// eight bytes of float64 bits (tag odd), so inputs mix on-grid and
// off-grid samples.
func ringSamples(data []byte, origin, step float64) []float64 {
	var xs []float64
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		if tag&1 == 0 && len(data) >= 2 {
			k := int16(binary.LittleEndian.Uint16(data))
			xs = append(xs, origin+float64(k)*step)
			data = data[2:]
		} else if tag&1 == 1 && len(data) >= 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		} else {
			break
		}
	}
	return xs
}

// encodeRingSamples is ringSamples' inverse for seeds: every sample is
// written as float64 bits.
func encodeRingSamples(xs ...float64) []byte {
	var b []byte
	for _, v := range xs {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// encodeRingCodes writes int16 codes for ringSamples.
func encodeRingCodes(ks ...int16) []byte {
	var b []byte
	for _, k := range ks {
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint16(b, uint16(k))
	}
	return b
}

// ringCaps are the capacities FuzzRingStorage draws from besides 1-40:
// larger ones that are not powers of two, the last the streamer's
// raw-Z ring at 250 Hz.
var ringCaps = []int{100, 3742}

// FuzzRingStorage pins the narrow ring against the plain float64 ring:
// for arbitrary float64 bit patterns and grid codes fed through
// arbitrary Push/Append chunkings (and Resets), on each grid of
// ringSteps and at capacities that are and are not powers of two
// (whose narrow storage is two blocks), At, CopyTo, ArgMax, Start, N
// and Cap must be bit-identical; the ring must store codes exactly
// while every sample so far was on the code grid relative to the first
// sample since the last Reset (onCodeGrid); and it must widen at most
// once, keeping one buffer and never narrowing again.
func FuzzRingStorage(f *testing.F) {
	const zAC, ecg = 0, 1 // ringSteps indices: 2⁻¹² and 5·2⁻¹⁵
	f.Add(uint8(7), uint8(zAC), 400.0, encodeRingSamples(1, 2.5, -3, 4096.000244140625), []byte{0, 3, 9})
	f.Add(uint8(4), uint8(3), 0.0, encodeRingSamples(0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e-40), []byte{2, 0, 1})
	f.Add(uint8(5), uint8(3), 0.0, encodeRingSamples(1, 2, math.NaN(), 3, 4), []byte{5})
	f.Add(uint8(3), uint8(3), 0.0, encodeRingSamples(1, 2, 5e-324, 3), []byte{0, 0, 2})
	f.Add(uint8(9), uint8(3), 0.0, encodeRingSamples(1, math.MaxFloat32*2, -1e300, 2), []byte{4})
	// The widening sample sits in the middle of one Append that also
	// wraps the ring.
	f.Add(uint8(3), uint8(3), 0.0, encodeRingSamples(1, 2, 3, 4, 5, 6, 0.1, 7, 8, 9, 10, 11), []byte{12})
	// A NaN first sample widens at once; so does a -0.0 first sample
	// (base + 0 is +0.0), and a -0.0 after a +0.0 base.
	f.Add(uint8(8), uint8(3), 0.0, encodeRingSamples(math.NaN(), 1, 2), []byte{1})
	f.Add(uint8(8), uint8(3), 0.0, encodeRingSamples(math.Copysign(0, -1), 1, 2), []byte{3})
	f.Add(uint8(8), uint8(3), 0.0, encodeRingSamples(0, 1, math.Copysign(0, -1)), []byte{3})
	// Relative codes at the int16 edges: -32768 from the first sample
	// stays narrow, +32768 and -32769 widen.
	f.Add(uint8(6), uint8(3), 0.0, encodeRingCodes(0, -32768, 32767, 5), []byte{2, 2})
	f.Add(uint8(6), uint8(3), 0.0, encodeRingCodes(-1, 32767, 0), []byte{1})
	f.Add(uint8(6), uint8(zAC), 400.0, encodeRingCodes(1, -32768, 0), []byte{3})
	// The ECG grid, 5·2⁻¹⁵, is not a power of two: ADC codes across its
	// span stay narrow; a sample half a step off widens.
	f.Add(uint8(30), uint8(ecg), 0.0, encodeRingCodes(-1225, 4579, 0, -32768+4579, 17), []byte{2, 3})
	f.Add(uint8(30), uint8(ecg), 0.0, append(encodeRingCodes(10, 11, 12), encodeRingSamples(12.5*5*0x1p-15)...), []byte{1})
	// A Reset, then a new base: an impedance session of one Z0 after
	// one of another (the pooled streamer's raw ring), and a base far
	// enough that the old codes would be out of reach.
	f.Add(uint8(16), uint8(zAC), 430.0, append(encodeRingCodes(-5, 100, 2000), encodeRingSamples(612.5, 612.5+0x1p-12, 612)...), []byte{3, 255, 2})
	f.Add(uint8(16), uint8(0), 0.0, append(encodeRingCodes(32767, 32000, 1), encodeRingCodes(-32768, -30000, 100)...), []byte{2, 255, 2})
	// The large capacities, lapped in uneven Appends: 100 slots with a
	// widening sample in the second lap, and the raw-Z ring's 3742
	// slots fed a sweep of codes one and a half times round.
	lap := make([]int16, 5600)
	for i := range lap {
		lap[i] = int16(i%2000 - 1000)
	}
	f.Add(uint8(240), uint8(3), 0.0, append(encodeRingCodes(lap[:130]...), encodeRingSamples(0.5, 1, 2)...), []byte{37, 0, 61})
	f.Add(uint8(241), uint8(zAC), 400.0, encodeRingCodes(lap...), []byte{200, 251, 233})
	f.Fuzz(func(t *testing.T, capSel, stepSel uint8, origin float64, data, ops []byte) {
		step := ringSteps[int(stepSel)%len(ringSteps)]
		xs := ringSamples(data, origin, step)
		capacity := int(capSel%40) + 1
		if capSel >= 240 {
			capacity = ringCaps[int(capSel)%len(ringCaps)]
		}
		r, ref := NewNarrowRing(capacity, step), newWideRing(capacity)
		exact, fresh, widened := true, true, false
		var base float64
		var wide *float64 // the wide storage, once widened
		take := func(v float64) {
			ref.push(v)
			if fresh {
				base, fresh = v, false
			}
			exact = exact && onCodeGrid(v, base, step)
		}
		check := func(op int) {
			t.Helper()
			if r.N() != ref.n || r.Start() != ref.start() || r.Cap() != len(ref.buf) {
				t.Fatalf("op %d: N/Start/Cap %d/%d/%d, want %d/%d/%d",
					op, r.N(), r.Start(), r.Cap(), ref.n, ref.start(), len(ref.buf))
			}
			if r.Narrow() != exact {
				t.Fatalf("op %d: narrow %v, want %v", op, r.Narrow(), exact)
			}
			if r.Narrow() {
				if widened {
					t.Fatalf("op %d: narrow again after widening", op)
				}
			} else {
				if r.codes != nil || r.tail != nil {
					t.Fatalf("op %d: widened ring kept a code block", op)
				}
				if widened && &r.buf[0] != wide {
					t.Fatalf("op %d: widened more than once", op)
				}
				widened, wide = true, &r.buf[0]
			}
			lo, hi := ref.start(), ref.n
			got := r.CopyTo(nil, lo, hi)
			if len(got) != hi-lo {
				t.Fatalf("op %d: CopyTo returned %d samples, want %d", op, len(got), hi-lo)
			}
			for i := lo; i < hi; i++ {
				want := math.Float64bits(ref.at(i))
				if b := math.Float64bits(r.At(i)); b != want {
					t.Fatalf("op %d: At(%d) = %x, want %x", op, i, b, want)
				}
				if b := math.Float64bits(got[i-lo]); b != want {
					t.Fatalf("op %d: CopyTo sample %d = %x, want %x", op, i, b, want)
				}
			}
			for _, span := range [][2]int{{lo, hi}, {lo - 3, hi + 3}, {(lo + hi) / 2, hi}, {lo + 1, hi - 1}} {
				if g, w := r.ArgMax(span[0], span[1]), ref.argMax(span[0], span[1]); g != w {
					t.Fatalf("op %d: ArgMax(%d, %d) = %d, want %d", op, span[0], span[1], g, w)
				}
			}
		}
		check(-1)
		for op := 0; len(xs) > 0; op++ {
			c := 1
			if len(ops) > 0 {
				c = int(ops[op%len(ops)])
			}
			if c == 255 { // Reset, then a 1-sample push so the loop still consumes input
				r.Reset()
				ref.n = 0
				fresh = true
				c = 0
			}
			switch {
			case c == 0:
				r.Push(xs[0])
				take(xs[0])
				xs = xs[1:]
			default:
				chunk := xs[:min(c, len(xs))]
				r.Append(chunk)
				for _, v := range chunk {
					take(v)
				}
				xs = xs[len(chunk):]
			}
			check(op)
		}
	})
}

// BenchmarkRing30s streams 30 s of on-grid impedance (250 Hz, the AC
// path's 2⁻¹² Ω grid) through a ring the way the streamer's raw-Z ring
// is used: 128-sample appends, every sample read back once with At,
// and a one-beat CopyTo per second. "narrow" is the 16-bit code
// storage on that grid, "wide" the float64 storage, both at 4096
// samples, whose appends and copies wrap at lap boundaries only;
// "exact" is the narrow storage at the raw-Z ring's 3742 samples,
// whose appends and copies also wrap inside a chunk.
func BenchmarkRing30s(b *testing.B) {
	x := make([]float64, 7500)
	for i := range x {
		x[i] = 400 + float64(int(4096*math.Sin(float64(i)/40)))/4096
	}
	narrow := func(n int) *Ring { return NewNarrowRing(n, 0x1p-12) }
	for _, c := range []struct {
		name string
		mk   func(int) *Ring
		n    int
	}{{"wide", NewRing, 4096}, {"narrow", narrow, 4096}, {"exact", narrow, 3742}} {
		b.Run(c.name, func(b *testing.B) {
			r := c.mk(c.n)
			seg := make([]float64, 0, 250)
			var sum float64
			for b.Loop() {
				r.Reset()
				next := 0
				for pos := 0; pos < len(x); pos += 128 {
					r.Append(x[pos:min(pos+128, len(x))])
					for ; next < r.N(); next++ {
						sum += r.At(next)
					}
					if r.N() >= 250 && r.N()%250 < 128 {
						seg = r.CopyTo(seg[:0], r.N()-250, r.N())
					}
				}
			}
			if !r.Narrow() && c.name != "wide" || sum == 0 || len(seg) == 0 {
				b.Fatal("ring widened or read nothing")
			}
		})
	}
}
