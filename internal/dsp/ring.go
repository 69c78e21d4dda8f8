package dsp

import (
	"math"
	"slices"
)

// Ring retains the most recent samples of a stream, addressed by
// absolute sample index. It backs the history-dependent streaming
// stages (R-peak refinement, beat delineation, the gate's raw
// impedance) with O(1) memory.
//
// Storage form: a ring built by NewRing stores float64. One built by
// NewNarrowRing stores codes on a grid of the given step (the front
// end's ADC LSB), relative to the first sample after construction or
// Reset, while every sample it has taken is on that grid (codeGrid): a
// 16-bit ADC's samples are, while they stay within 32767 codes of the
// first. It holds them in one of two forms:
//
//   - packed (deltaPlane): one signed byte a sample, the code's
//     difference from the previous sample's, with an anchor code every
//     planeBlock samples and the differences beyond a byte in a list
//     beside the bytes. Raw impedance moves slowly against its LSB, so
//     almost every difference fits;
//   - 16-bit codes (codeStore), from the first sample whose difference
//     would leave the packed form holding more bytes than the codes, or
//     from construction for a ring too small for packing to pay and
//     for one built by NewCodeRing.
//
// The first sample off the grid (a dithered or computed value, one
// beyond a code's reach, -0.0, NaN) widens the ring to float64. The
// form only moves down the ladder packed → 16-bit → float64, each step
// once and for good: the samples held are decoded over exactly and the
// old storage is dropped, so a ring never holds two forms. Every reader
// (At, CopyTo, ArgMax, Start, N, Cap) returns bit-identical values in
// every form, so the form is invisible downstream. A packed ring's At
// decodes from the nearest anchor, up to planeBlock samples; sequential
// readers copy their span with one CopyTo.
//
// Capacity: a ring holds exactly the capacity it is built with (at
// least one sample), so a ring sized from its reader's horizon keeps no
// rounding slack; byte and code storage that is not a power of two of
// slots is two blocks, so the heap does not round it up either
// (blocks). Absolute index i lives head-(N-i) slots behind the head
// cursor, wrapped once when that falls below slot 0.
//
// Aliasing invariant: the storage is replaced at most twice in the
// ring's life, down the ladder, and only inside Push/Append; it is
// never resized, so every slot the head cursor wraps into lies inside
// the current storage. No reader keeps a slice into the storage —
// CopyTo copies out — so the replacement cannot leave a stale view.
// Reset rewinds the logical stream without touching the storage's
// form (a ring that stepped down stays down; a coded one takes a new
// base from its next sample), which is what lets pooled engines hand
// rings across sessions while old absolute indices go stale rather
// than dangle.
type Ring struct {
	codeStore              // 16-bit codes or float64; neither while packed
	pk         *deltaPlane // the packed form; nil in the others
	size, head int         // the capacity; the slot of the next sample
	n          int         // total samples pushed
}

// codeGrid maps samples to 16-bit codes c on the grid step relative to
// base: a sample v is stored as c = round((v-base)/step), ties to even,
// when c fits an int16 and base + c*step reproduces v's float64 bits.
// A ring's base is the first sample it takes after construction or
// Reset (NaN until then); an FIR stream's carry fixes it at 0 (see
// NewNarrowZeroPhaseFIRStream). Decoding is monotonic in c and codes
// are computed from the samples alone, so for stored samples c1 < c2
// exactly when v1 < v2: code comparisons order the samples as their
// values do.
type codeGrid struct {
	step, base float64
}

func newCodeGrid(step float64) codeGrid {
	if !(step > 0) || math.IsInf(step, 1) {
		panic("dsp: code grid step must be positive and finite")
	}
	return codeGrid{step: step, base: math.NaN()}
}

// encode returns v's code and whether it is stored exactly. The range
// is checked on the float before converting (an out-of-range float to
// int conversion is implementation-defined), and NaN fails it.
func (g codeGrid) encode(v float64) (int16, bool) {
	q := math.RoundToEven((v - g.base) / g.step)
	if !(q >= math.MinInt16 && q <= math.MaxInt16) {
		return 0, false
	}
	c := int16(q)
	return c, math.Float64bits(g.decode(c)) == math.Float64bits(v)
}

// decode returns the sample code c stands for. The explicit conversion
// rounds the product, so the compiler cannot fuse it with the addition
// into an FMA on one path and not another.
func (g codeGrid) decode(c int16) float64 {
	return g.base + float64(float64(c)*g.step)
}

// blocks splits n slots into the two blocks they are stored in: the
// largest power of two below n, then the rest (n and none when n is a
// power of two). The Go heap serves an object of up to 32 KB from the
// smallest size class that holds it; every power of two of bytes is a
// class, so only the rest is rounded up: the streamer's 3742-slot
// raw-Z ring takes 4,096 + 3,456 B as 16-bit codes, where one block
// would take an 8,192 B class.
func blocks(n int) (int, int) {
	m := n
	if !IsPow2(n) {
		m = NextPow2(n) / 2
	}
	return m, n - m
}

// codeStore is fixed-length sample storage in one of two widths: 16-bit
// codes on a grid (codeGrid) while every sample written is on it, and
// float64 for good from the first that is not. Widening decodes the
// codes over exactly and drops the code blocks, so a widened store
// holds one buffer, never two, and reads back bit-identical values in
// either width. The storage is replaced at most once, narrow to wide,
// and only by put. Codes are two blocks (blocks).
type codeStore struct {
	buf   []float64 // wide storage; nil while narrow
	codes []int16   // narrow slots [0, len(codes)); nil once wide
	tail  []int16   // narrow slots from len(codes) on; nil once wide
	grid  codeGrid
}

func wideStore(n int) codeStore { return codeStore{buf: make([]float64, n)} }

func narrowStore(n int, g codeGrid) codeStore {
	m, rest := blocks(n)
	s := codeStore{codes: make([]int16, m), grid: g}
	if rest > 0 {
		s.tail = make([]int16, rest)
	}
	return s
}

// narrow reports whether the store still holds codes (for a ring: in
// either coded form).
func (s *codeStore) narrow() bool { return s.buf == nil }

// run returns the narrow slots from p on, at most n of them, that lie
// in one block.
func (s *codeStore) run(p, n int) []int16 {
	if p < len(s.codes) {
		return s.codes[p:min(p+n, len(s.codes))]
	}
	p -= len(s.codes)
	return s.tail[p:min(p+n, len(s.tail))]
}

// widen moves a narrow store to float64, decoding every code exactly
// (slots not yet written decode to a value no reader reaches).
func (s *codeStore) widen() {
	s.buf = make([]float64, len(s.codes)+len(s.tail))
	for i, c := range s.codes {
		s.buf[i] = s.grid.decode(c)
	}
	for i, c := range s.tail {
		s.buf[len(s.codes)+i] = s.grid.decode(c)
	}
	s.codes, s.tail = nil, nil
}

// put writes xs to slots [p, p+len(xs)): as codes while the store is
// narrow, widening it at the first sample off the grid.
func (s *codeStore) put(p int, xs []float64) {
	if s.buf != nil {
		copy(s.buf[p:], xs)
		return
	}
	g := s.grid
	for len(xs) > 0 {
		dst := s.run(p, len(xs))
		for i, v := range xs[:len(dst)] {
			c, ok := g.encode(v)
			if !ok {
				s.widen()
				copy(s.buf[p+i:], xs[i:])
				return
			}
			dst[i] = c
		}
		p, xs = p+len(dst), xs[len(dst):]
	}
}

// at returns the sample in slot i.
func (s *codeStore) at(i int) float64 {
	if s.buf != nil {
		return s.buf[i]
	}
	c := s.codes
	if i >= len(c) {
		c, i = s.tail, i-len(c)
	}
	return s.grid.decode(c[i])
}

// read fills out with the samples of slots [p, p+len(out)).
func (s *codeStore) read(out []float64, p int) {
	if s.buf != nil {
		copy(out, s.buf[p:])
		return
	}
	g := s.grid
	for len(out) > 0 {
		src := s.run(p, len(out))
		for i, c := range src {
			out[i] = g.decode(c)
		}
		p, out = p+len(src), out[len(src):]
	}
}

// zero writes the sample 0 to slots [lo, hi); the grid's base must be
// 0 for a narrow store (code 0 then decodes to +0, as a wide one holds),
// and its length a power of two (one block).
func (s *codeStore) zero(lo, hi int) {
	if s.buf == nil {
		clear(s.codes[lo:hi])
		return
	}
	clear(s.buf[lo:hi])
}

// slide copies slots [src, src+n) to [0, n); a narrow store's length
// must be a power of two (one block).
func (s *codeStore) slide(src, n int) {
	if s.buf == nil {
		copy(s.codes[:n], s.codes[src:src+n])
		return
	}
	copy(s.buf[:n], s.buf[src:src+n])
}

// heldBytes reports the bytes of the storage at its current width.
func (s *codeStore) heldBytes() int { return 8*len(s.buf) + 2*(len(s.codes)+len(s.tail)) }

// deltaPlane is a coded ring's packed form. Slot p of the plane holds
// the code of the sample in slot p minus the code of the sample before
// it (the first sample since construction or Reset has code 0 and
// difference 0), as one int8, or escMark when the difference does not
// fit one: those differences are in esc, in index order. A sample's
// code is the sum of the differences up to it from an anchor: the code
// of each absolute index that is a multiple of planeBlock, kept apart
// from the plane so it outlives its slot. A span decodes forward from
// the anchor of its first sample's block; when that block is the
// oldest and its anchor sample has left the ring, backward from the
// next block's anchor (or from the newest sample's code, last, when
// the next block has not begun).
//
// The escape list grows on demand and is compacted as its samples
// leave the ring. Its bound is where the form stops paying: one escape
// more than escLimit and the plane, its anchors and its escapes would
// hold more bytes than 16-bit codes, so the ring steps down to them at
// that sample (Ring.pack). The bound counts only the escapes among the
// samples the ring retains, so the step is decided by the samples
// alone, whatever the chunking.
type deltaPlane struct {
	lo, hi  []int8   // the slot differences, two blocks (blocks)
	anchors []int16  // the code of absolute index k*planeBlock, at k mod len
	esc     []escape // the retained differences beyond an int8, in index order
	last    int16    // the code of the newest sample (0 before the first)
}

// escape is a difference beyond an int8, at absolute index i modulo
// 2³²: every escape the list holds lies within two ring lengths of the
// indices it is compared with, so the wrapped difference orders them.
type escape struct {
	i uint32
	d int32
}

// planeBlock is the anchor stride of the packed form: a packed At, and
// the start of a packed span read, decode at most this many
// differences.
const planeBlock = 64

// escMark marks a plane slot whose difference is in the escape list:
// an int8 holds the differences in [-127, 127] itself.
const escMark = math.MinInt8

// planeAnchors returns how many anchors a packed ring of size slots
// keeps: every block the retained span can touch.
func planeAnchors(size int) int { return (size-1)/planeBlock + 2 }

// escLimit returns how many escapes a packed ring of size slots holds
// before its plane, anchors and escapes would hold more bytes than
// 16-bit codes; negative when even a plane with none would.
func escLimit(size int) int {
	spare := 2*size - (SizeOf[deltaPlane]() + size + 2*planeAnchors(size))
	if spare < 0 {
		return -1
	}
	return spare / SizeOf[escape]()
}

func newDeltaPlane(size int) *deltaPlane {
	m, rest := blocks(size)
	pk := &deltaPlane{lo: make([]int8, m), anchors: make([]int16, planeAnchors(size))}
	if rest > 0 {
		pk.hi = make([]int8, rest)
	}
	return pk
}

// run returns the plane slots from p on, at most n of them, that lie in
// one block.
func (pk *deltaPlane) run(p, n int) []int8 {
	if p < len(pk.lo) {
		return pk.lo[p:min(p+n, len(pk.lo))]
	}
	p -= len(pk.lo)
	return pk.hi[p:min(p+n, len(pk.hi))]
}

// cell returns plane slot p.
func (pk *deltaPlane) cell(p int) *int8 {
	if p < len(pk.lo) {
		return &pk.lo[p]
	}
	return &pk.hi[p-len(pk.lo)]
}

// search returns the position in esc of the first escape at absolute
// index i or later.
func (pk *deltaPlane) search(i int) int {
	lo, hi := 0, len(pk.esc)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int32(pk.esc[m].i-uint32(i)) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// evict drops the escapes below absolute index start, which have left
// the ring.
func (pk *deltaPlane) evict(start int) {
	if k := pk.search(start); k > 0 {
		pk.esc = pk.esc[:copy(pk.esc, pk.esc[k:])]
	}
}

// escape records difference d of the sample at absolute index i in a
// ring of size slots, dropping the escapes that sample's write pushes
// out of the ring. It reports false, changing nothing, when the escape
// would be one more than escLimit among the samples retained with it.
func (pk *deltaPlane) escape(i int, d int32, size int) bool {
	start := i + 1 - size
	limit := escLimit(size)
	if len(pk.esc)-pk.search(start) >= limit {
		return false
	}
	pk.evict(start)
	if len(pk.esc) == cap(pk.esc) {
		grown := make([]escape, len(pk.esc), min(max(2*cap(pk.esc), 4), limit))
		copy(grown, pk.esc)
		pk.esc = grown
	}
	pk.esc = append(pk.esc, escape{uint32(i), d})
	return true
}

// heldBytes reports the bytes of the packed form: the plane itself, its
// blocks, its anchors and its escape list's capacity (0 for nil).
func (pk *deltaPlane) heldBytes() int {
	if pk == nil {
		return 0
	}
	return SizeOf[deltaPlane]() + len(pk.lo) + len(pk.hi) + 2*len(pk.anchors) + SizeOf[escape]()*cap(pk.esc)
}

// NewRing returns a float64 ring that retains exactly capacity
// samples (at least one). Rings of filter outputs use it: their
// samples are not on any ADC grid.
func NewRing(capacity int) *Ring {
	size := max(capacity, 1)
	return &Ring{codeStore: wideStore(size), size: size}
}

// NewNarrowRing returns a ring like NewRing's that stores codes on the
// grid step (positive and finite) until its first sample off that
// grid: packed, or as 16-bit codes when the ring is too small for
// packing to pay. Rings of raw ADC samples use it, with the ADC's LSB.
func NewNarrowRing(capacity int, step float64) *Ring {
	size := max(capacity, 1)
	if escLimit(size) < 0 {
		return NewCodeRing(size, step)
	}
	return &Ring{codeStore: codeStore{grid: newCodeGrid(step)}, pk: newDeltaPlane(size), size: size}
}

// NewCodeRing returns a ring like NewNarrowRing's held as 16-bit codes
// from the start, the form a packed ring steps down to: rings of
// samples whose differences mostly pass a byte of the grid (the ECG's,
// front-end noise included) use it, so no plane is allocated to be
// dropped after a few dozen samples.
func NewCodeRing(capacity int, step float64) *Ring {
	size := max(capacity, 1)
	return &Ring{codeStore: narrowStore(size, newCodeGrid(step)), size: size}
}

// Narrow reports whether the ring still stores codes, packed or 16-bit.
func (r *Ring) Narrow() bool { return r.narrow() }

// Packed reports whether the ring still stores its codes packed.
func (r *Ring) Packed() bool { return r.pk != nil }

// Push appends one sample.
func (r *Ring) Push(v float64) { r.Append([]float64{v}) }

// Append appends a chunk with at most two bulk writes per ring lap
// (per-sample encoding while the ring stores codes).
func (r *Ring) Append(xs []float64) {
	if len(xs) > 0 && r.narrow() && math.IsNaN(r.grid.base) {
		r.grid.base = xs[0] // the first sample since construction or Reset
	}
	for len(xs) > 0 {
		m := min(len(xs), r.size-r.head)
		if r.pk != nil {
			m = r.pack(xs[:m])
		} else {
			r.put(r.head, xs[:m])
			r.advance(m)
		}
		xs = xs[m:]
	}
}

// advance moves the head past m samples just written.
func (r *Ring) advance(m int) {
	r.n += m
	r.head += m
	if r.head == r.size {
		r.head = 0
	}
}

// pack writes xs, which end at or before the wrap, to the plane and
// returns how many it wrote: all of them, or those before the first
// sample the packed form cannot take, having moved the ring down the
// ladder there — to float64 at a sample off the grid, to 16-bit codes
// at one escape past escLimit — for put to write the rest.
func (r *Ring) pack(xs []float64) int {
	pk, g, last := r.pk, r.grid, int32(r.pk.last)
	for k := 0; k < len(xs); {
		run, i := pk.run(r.head+k, len(xs)-k), r.n+k
		for j, v := range xs[k : k+len(run)] {
			c, ok := g.encode(v)
			d := int32(c) - last
			if ok && (d < -127 || d > 127) {
				if ok = pk.escape(i+j, d, r.size); !ok {
					pk.last = int16(last)
					r.advance(k + j)
					r.unpack(narrowStore(r.size, g))
					return k + j
				}
				d = escMark
			}
			if !ok {
				pk.last = int16(last)
				r.advance(k + j)
				r.unpack(wideStore(r.size))
				return k + j
			}
			if (i+j)&(planeBlock-1) == 0 {
				pk.anchors[(i+j)/planeBlock%len(pk.anchors)] = c
			}
			run[j] = int8(d)
			last = int32(c)
		}
		k += len(run)
	}
	pk.last = int16(last)
	r.advance(len(xs))
	pk.evict(r.Start())
	return len(xs)
}

// unpack moves a packed ring to s, fresh 16-bit or float64 storage of
// its size, writing every retained sample to its slot, and drops the
// plane.
func (r *Ring) unpack(s codeStore) {
	s.grid = r.grid
	var buf [256]float64
	p := r.slot(r.Start())
	for i := r.Start(); i < r.n; {
		m := min(r.n-i, len(buf), r.size-p)
		r.readPacked(buf[:m], i)
		s.put(p, buf[:m]) // on the grid: codes encode back exactly
		i, p = i+m, p+m
		if p == r.size {
			p = 0
		}
	}
	r.codeStore, r.pk = s, nil
}

// code returns the code of retained absolute index i in a packed ring,
// summing the differences from the nearest anchor that precedes i and
// is retained, or back from the one after.
func (r *Ring) code(i int) int32 {
	pk := r.pk
	k := i / planeBlock
	if a := k * planeBlock; a >= r.Start() {
		c := int32(pk.anchors[k%len(pk.anchors)])
		e, p := pk.search(a+1), r.slot(a)
		for j := a + 1; j <= i; j++ {
			if p++; p == r.size {
				p = 0
			}
			d := int32(*pk.cell(p))
			if d == escMark {
				d = pk.esc[e].d
				e++
			}
			c += d
		}
		return c
	}
	b, c := (k+1)*planeBlock, int32(0)
	if b < r.n {
		c = int32(pk.anchors[(k+1)%len(pk.anchors)])
	} else {
		b, c = r.n-1, int32(pk.last)
	}
	e, p := pk.search(b+1)-1, r.slot(b)
	for j := b; j > i; j-- {
		d := int32(*pk.cell(p))
		if d == escMark {
			d = pk.esc[e].d
			e--
		}
		c -= d
		if p--; p < 0 {
			p = r.size - 1
		}
	}
	return c
}

// readPacked fills out with the samples of retained absolute indices
// [lo, lo+len(out)) of a packed ring: the first decoded from an anchor
// (code), each next one its predecessor's code plus its difference.
func (r *Ring) readPacked(out []float64, lo int) {
	if len(out) == 0 {
		return
	}
	pk, g := r.pk, r.grid
	c := r.code(lo)
	out[0] = g.decode(int16(c))
	e, p, rest := pk.search(lo+1), r.slot(lo)+1, out[1:]
	for len(rest) > 0 {
		if p == r.size {
			p = 0
		}
		run := pk.run(p, len(rest))
		for k, d := range run {
			if d == escMark {
				c += pk.esc[e].d
				e++
			} else {
				c += int32(d)
			}
			rest[k] = g.decode(int16(c))
		}
		p, rest = p+len(run), rest[len(run):]
	}
}

// slot returns the storage slot of absolute index i, which must be in
// [Start(), N()]: i = N() is the head's slot.
func (r *Ring) slot(i int) int {
	p := r.head - (r.n - i)
	if p < 0 {
		p += r.size
	}
	return p
}

// N returns the total number of samples pushed so far.
func (r *Ring) N() int { return r.n }

// Cap returns how many samples the ring retains: the capacity it was
// built with, the length of its storage in every form.
func (r *Ring) Cap() int { return r.size }

// Start returns the oldest absolute index still retained.
func (r *Ring) Start() int { return max(r.n-r.size, 0) }

// At returns the sample at absolute index i, which must be in
// [Start(), N()).
func (r *Ring) At(i int) float64 {
	if r.pk != nil {
		return r.grid.decode(int16(r.code(i)))
	}
	return r.at(r.slot(i))
}

// CopyTo appends the samples of [lo, hi) to dst with at most two bulk
// reads (per-sample decoding while the ring stores codes). The range
// must be retained.
func (r *Ring) CopyTo(dst []float64, lo, hi int) []float64 {
	if lo >= hi {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, hi-lo)[:n+hi-lo]
	if r.pk != nil {
		r.readPacked(dst[n:], lo)
		return dst
	}
	out, p := dst[n:], r.slot(lo)
	for len(out) > 0 {
		m := min(len(out), r.size-p)
		r.read(out[:m], p)
		out, p = out[m:], 0
	}
	return dst
}

// ArgMax returns the absolute index of the maximum over [lo, hi)
// clamped to the retained window, mirroring dsp.ArgMax's clamp-to-signal
// semantics for a stream whose ring covers the requested range; it
// returns -1 for an empty range. Codes order as their samples do
// (codeGrid), so a 16-bit ring compares its codes directly; a packed
// one compares its decoded samples.
func (r *Ring) ArgMax(lo, hi int) int {
	lo = ClampInt(lo, r.Start(), r.n)
	hi = ClampInt(hi, r.Start(), r.n)
	if lo >= hi {
		return -1
	}
	switch {
	case r.pk != nil:
		var buf [256]float64
		best, bv := -1, 0.0
		for i := lo; i < hi; i += len(buf) {
			s := buf[:min(hi-i, len(buf))]
			r.readPacked(s, i)
			for j, v := range s {
				if best < 0 || v > bv {
					best, bv = i+j, v
				}
			}
		}
		return best
	case r.buf == nil:
		return ringArgMax(r, lo, hi, r.run)
	}
	return ringArgMax(r, lo, hi, func(p, n int) []float64 { return r.buf[p:min(p+n, len(r.buf))] })
}

// ringArgMax returns the absolute index of the first maximum over the
// retained range [lo, hi), scanning the contiguous slot runs run
// returns (each at most n long, within one block and before the wrap).
func ringArgMax[T int16 | float64](r *Ring, lo, hi int, run func(p, n int) []T) int {
	best, p := -1, r.slot(lo)
	var bv T
	for i := lo; i < hi; {
		s := run(p, hi-i)
		for j, v := range s {
			if best < 0 || v > bv {
				best, bv = i+j, v
			}
		}
		i, p = i+len(s), p+len(s)
		if p == r.size {
			p = 0
		}
	}
	return best
}

// Reset forgets all samples, keeping the storage and its form; a coded
// ring takes its next sample as the new base.
func (r *Ring) Reset() {
	r.n, r.head = 0, 0
	r.grid.base = math.NaN()
	if r.pk != nil {
		r.pk.esc = r.pk.esc[:0]
		r.pk.last = 0
	}
}

// HeldBytes reports the bytes the ring holds: itself and its storage
// in its current form.
func (r *Ring) HeldBytes() int { return SizeOf[Ring]() + r.heldBytes() + r.pk.heldBytes() }
