package dsp

import "sync"

// Arena is a checkout-style scratch allocator for the in-place DSP
// variants (the *With functions and the FIR/SOS *To methods). Each call to
// F64/C128/Ints hands out the next buffer in sequence, growing it to the
// requested length; Reset makes every buffer available again without
// freeing it. Because a processing pipeline checks buffers out in the same
// order on every run, the arena converges to the pipeline's peak footprint
// after the first call and steady-state processing allocates nothing.
//
// Buffers returned by an arena are valid only until the next Reset, and
// their contents are uninitialized. An Arena is not safe for concurrent
// use; use one arena per goroutine (core.Device keeps an ArenaPool of
// them).
//
// All arena-taking functions in this package accept a nil *Arena, in which
// case they allocate from the heap exactly like their classic
// counterparts; so do the checkout methods themselves.
type Arena struct {
	f64  [][]float64
	c128 [][]complex128
	ints [][]int
	nf   int
	nc   int
	ni   int
}

// Reset returns every checked-out buffer to the arena. Previously returned
// slices must no longer be used.
func (a *Arena) Reset() {
	a.nf, a.nc, a.ni = 0, 0, 0
}

// F64 checks out a float64 buffer of length n (contents undefined); a
// nil arena allocates it from the heap.
func (a *Arena) F64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.nf == len(a.f64) {
		a.f64 = append(a.f64, make([]float64, n))
	} else if cap(a.f64[a.nf]) < n {
		a.f64[a.nf] = make([]float64, n)
	}
	buf := a.f64[a.nf][:n]
	a.nf++
	return buf
}

// C128 checks out a complex128 buffer of length n (contents undefined);
// a nil arena allocates it from the heap.
func (a *Arena) C128(n int) []complex128 {
	if a == nil {
		return make([]complex128, n)
	}
	if a.nc == len(a.c128) {
		a.c128 = append(a.c128, make([]complex128, n))
	} else if cap(a.c128[a.nc]) < n {
		a.c128[a.nc] = make([]complex128, n)
	}
	buf := a.c128[a.nc][:n]
	a.nc++
	return buf
}

// Ints checks out an int buffer of length n (contents undefined); a nil
// arena allocates it from the heap.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	if a.ni == len(a.ints) {
		a.ints = append(a.ints, make([]int, n))
	} else if cap(a.ints[a.ni]) < n {
		a.ints[a.ni] = make([]int, n)
	}
	buf := a.ints[a.ni][:n]
	a.ni++
	return buf
}

// ArenaPool is a pool of arenas safe for concurrent use: Get hands out
// a reset arena, Put returns it. The zero value is ready to use. It is
// how scratch is shared instead of owned — a batch Process call or a
// streaming beat borrows an arena for the duration of its work and puts
// it back, so long-lived per-session state never pins scratch memory.
type ArenaPool struct{ p sync.Pool }

// Get checks out an arena with every buffer available.
func (p *ArenaPool) Get() *Arena {
	if a, ok := p.p.Get().(*Arena); ok {
		a.Reset()
		return a
	}
	return new(Arena)
}

// Put returns a borrowed arena; buffers checked out of it must no longer
// be used.
func (p *ArenaPool) Put(a *Arena) { p.p.Put(a) }
