package dsp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// wideRing is the plain float64 ring every Ring must be bit-identical
// to, whatever its storage form: the oracle of FuzzRingStorage. It
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

// ringSamples decodes fuzz bytes into samples, each led by a tag byte:
// two bytes of an int16 code k standing for origin + k*step (tag 0
// mod 4), eight bytes of float64 bits (tag odd), or a random walk on
// the grid (tag 2 mod 4; ringWalk), so inputs mix on-grid and off-grid
// samples, and differences within and past a byte.
func ringSamples(data []byte, origin, step float64) []float64 {
	var xs []float64
	walk := 0 // the random walk's code, carried from segment to segment
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		switch {
		case tag&3 == 0 && len(data) >= 2:
			k := int16(binary.LittleEndian.Uint16(data))
			xs = append(xs, origin+float64(k)*step)
			data = data[2:]
		case tag&3 == 2 && len(data) >= 4:
			xs, walk = ringWalk(xs, walk, origin, step, data[:4])
			data = data[4:]
		case tag&1 == 1 && len(data) >= 8:
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		default:
			return xs
		}
	}
	return xs
}

// ringWalk appends a random walk of grid samples origin + k*step from
// code k = walk on, and returns the walk's last code: a little-endian
// count (at most 4096 samples), a spread and a seed byte. Its steps are
// Gaussian with the spread as their standard deviation in codes, so a
// spread near 127 puts some steps past what an int8 holds and one near
// 255 puts half of them there, a burst of escapes; the walk reflects
// off ±16000 codes, staying within an int16 of any base it starts
// from.
func ringWalk(xs []float64, walk int, origin, step float64, b []byte) ([]float64, int) {
	n := int(binary.LittleEndian.Uint16(b)) % 4097
	spread := float64(b[2])
	rng := rand.New(rand.NewSource(int64(b[3])<<16 | int64(n)))
	for range n {
		walk += int(math.Round(rng.NormFloat64() * spread))
		if walk > 16000 {
			walk = 32000 - walk
		} else if walk < -16000 {
			walk = -32000 - walk
		}
		xs = append(xs, origin+float64(walk)*step)
	}
	return xs, walk
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

// encodeRingWalk writes a random-walk segment for ringSamples.
func encodeRingWalk(n uint16, spread, seed uint8) []byte {
	return append(binary.LittleEndian.AppendUint16([]byte{2}, n), spread, seed)
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

// ringCaps are the capacities FuzzRingStorage draws from besides 1-40
// (all too small for the packed form to pay, so 16-bit from the
// start): 100, the same; 3742, the streamer's raw-Z ring at 250 Hz; 128,
// packed with room for two escapes; 256, the ECG baseline's ring.
var ringCaps = []int{100, 3742, 128, 256}

// Storage forms of a coded ring, down the ladder.
const (
	formWide   = iota // float64
	formCodes         // 16-bit codes
	formPacked        // a delta plane
)

// ringForm returns r's storage form, checking it holds exactly one.
func ringForm(t *testing.T, r *Ring) int {
	t.Helper()
	switch {
	case r.pk != nil && r.buf == nil && r.codes == nil && r.tail == nil:
		return formPacked
	case r.pk == nil && r.buf == nil && r.codes != nil:
		return formCodes
	case r.pk == nil && r.buf != nil && r.codes == nil && r.tail == nil:
		return formWide
	}
	t.Fatalf("ring holds more than one form (plane %v, codes %v, float64 %v)", r.pk != nil, r.codes != nil, r.buf != nil)
	return -1
}

// formOracle follows the form a coded ring must be in from the samples
// alone: packed from construction when escLimit allows, 16-bit from
// the first sample whose code differs from its predecessor's by more
// than an int8 holds (-128 included, the plane's escape mark) while
// escLimit such samples are already among those the ring retains, and
// float64 from the first sample off the grid.
type formOracle struct {
	form, size, prev int
	esc              []int // absolute indices of the escapes, while packed
}

func newFormOracle(size int) *formOracle {
	o := &formOracle{form: formCodes, size: size}
	if escLimit(size) >= 0 {
		o.form = formPacked
	}
	return o
}

// take follows sample i, whose code relative to base is code, or which
// is off the grid.
func (o *formOracle) take(i, code int, onGrid bool) {
	switch {
	case !onGrid:
		o.form = formWide
	case o.form == formPacked:
		if d := code - o.prev; d < -127 || d > 127 {
			live := 0
			for _, j := range o.esc {
				if j > i-o.size {
					live++
				}
			}
			if live >= escLimit(o.size) {
				o.form = formCodes
			}
			o.esc = append(o.esc, i)
		}
	}
	o.prev = code
}

// reset follows a Reset: the next sample is code 0 again.
func (o *formOracle) reset() { o.prev, o.esc = 0, o.esc[:0] }

// FuzzRingStorage pins the coded ring against the plain float64 ring:
// for arbitrary float64 bit patterns, grid codes and random walks on
// the grid fed through arbitrary Push/Append chunkings (and Resets), on
// each grid of ringSteps and at capacities that are and are not powers
// of two (whose byte and code storage is two blocks), At, CopyTo,
// ArgMax, Start, N and Cap must be bit-identical; the ring must store
// codes exactly while every sample so far was on the code grid
// relative to the first sample since the last Reset (onCodeGrid); its
// form must be the one formOracle derives from the samples, which only
// moves down the ladder packed → 16-bit → float64; a packed ring must
// hold no more bytes than 16-bit codes would; and the ring must widen
// at most once, keeping one buffer.
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
	// Random walks on the impedance grid through the raw-Z ring. Steps
	// around the int8 limit stay packed, through Resets and new bases;
	// a burst of escapes (half the steps past a byte) steps the ring
	// down to 16-bit codes, and a Reset keeps it there; an off-grid
	// sample widens a packed ring at once.
	f.Add(uint8(241), uint8(zAC), 400.0, encodeRingWalk(4096, 50, 8), []byte{200, 255, 77, 97})
	burst := append(append(encodeRingWalk(4096, 40, 1), encodeRingWalk(1200, 255, 2)...), encodeRingWalk(1000, 30, 6)...)
	f.Add(uint8(241), uint8(zAC), 400.0, burst, append(slices.Repeat([]byte{150}, 38), 255))
	f.Add(uint8(241), uint8(zAC), 400.0, append(encodeRingWalk(4096, 60, 3), encodeRingSamples(400.1)...), []byte{250, 1, 128})
	// The ECG baseline's ring on the ECG grid, packed until a burst, and
	// a 128-slot ring with room for two escapes in chunks of one sample
	// and Resets.
	f.Add(uint8(243), uint8(ecg), 0.0, append(encodeRingWalk(1500, 40, 4), encodeRingWalk(500, 200, 7)...), []byte{130, 7, 61})
	f.Add(uint8(242), uint8(3), 0.0, append(encodeRingWalk(300, 60, 5), encodeRingCodes(-128, 0, 127, 0)...), []byte{1, 5, 255, 64})
	// The step down lands on the escape one past escLimit, sample by
	// sample: the 128-slot ring holds two escapes, and the third steps
	// it down.
	f.Add(uint8(242), uint8(3), 0.0, encodeRingCodes(0, 200, 0, 200, 0), []byte{0})
	f.Fuzz(func(t *testing.T, capSel, stepSel uint8, origin float64, data, ops []byte) {
		step := ringSteps[int(stepSel)%len(ringSteps)]
		xs := ringSamples(data, origin, step)
		capacity := int(capSel%40) + 1
		if capSel >= 240 {
			capacity = ringCaps[int(capSel)%len(ringCaps)]
		}
		r, ref, forms := NewNarrowRing(capacity, step), newWideRing(capacity), newFormOracle(capacity)
		exact, fresh := true, true
		var base float64
		var wide *float64 // the wide storage, once widened
		form := ringForm(t, r)
		take := func(v float64) {
			ref.push(v)
			if fresh {
				base, fresh = v, false
			}
			exact = exact && onCodeGrid(v, base, step)
			forms.take(ref.n-1, int(math.RoundToEven((v-base)/step)), exact)
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
			fm := ringForm(t, r)
			if fm > form {
				t.Fatalf("op %d: form %d after %d: the ladder moved up", op, fm, form)
			}
			if fm != forms.form {
				t.Fatalf("op %d: form %d, the samples call for %d", op, fm, forms.form)
			}
			if fm == formPacked && r.pk.heldBytes() > 2*r.Cap() {
				t.Fatalf("op %d: the packed form holds %d B, 16-bit codes %d", op, r.pk.heldBytes(), 2*r.Cap())
			}
			if fm == formWide {
				if wide != nil && &r.buf[0] != wide {
					t.Fatalf("op %d: widened more than once", op)
				}
				wide = &r.buf[0]
			}
			form = fm
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
				forms.reset()
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
