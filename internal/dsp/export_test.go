package dsp

// NewCodeRing returns a coded ring held as 16-bit codes from the start,
// the form a NewNarrowRing ring steps down to, for the external
// benchmarks.
func NewCodeRing(capacity int, step float64) *Ring {
	size := max(capacity, 1)
	return &Ring{codeStore: narrowStore(size, newCodeGrid(step)), size: size}
}
