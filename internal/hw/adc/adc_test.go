package adc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := Config{Bits: 12, FullScale: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if err := (Config{Bits: 0, FullScale: 1}).Validate(); err != ErrBadBits {
		t.Errorf("bits=0: %v", err)
	}
	if err := (Config{Bits: 25, FullScale: 1}).Validate(); err != ErrBadBits {
		t.Errorf("bits=25: %v", err)
	}
	if err := (Config{Bits: 12, FullScale: 0}).Validate(); err != ErrBadFullScale {
		t.Errorf("fs=0: %v", err)
	}
}

func TestLevelsAndLSB(t *testing.T) {
	c := Config{Bits: 12, FullScale: 1}
	if c.Levels() != 4096 {
		t.Errorf("levels = %d", c.Levels())
	}
	want := 2.0 / 4096
	if math.Abs(c.LSB()-want) > 1e-15 {
		t.Errorf("LSB = %g, want %g", c.LSB(), want)
	}
}

func TestTheoreticalSNR(t *testing.T) {
	c := Config{Bits: 16, FullScale: 1}
	if got := c.TheoreticalSNR(); math.Abs(got-98.08) > 0.01 {
		t.Errorf("SNR = %g", got)
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	c := Config{Bits: 12, FullScale: 1}
	// Quantization error bounded by LSB/2 in the linear range.
	for _, v := range []float64{0, 0.1, -0.37, 0.9, -0.99} {
		q := c.Quantize(v)
		if math.Abs(q-v) > c.LSB()/2+1e-15 {
			t.Errorf("quantize(%g) = %g, error too large", v, q)
		}
	}
}

// Code 0 has no sign: an input that rounds to it, from either side,
// reconstructs as +0, a value the code-storage rings downstream hold
// exactly (-0.0 would widen them).
func TestQuantizeZeroIsPositive(t *testing.T) {
	c := Config{Bits: 16, FullScale: 5}
	for _, v := range []float64{0, math.Copysign(0, -1), -c.LSB() / 4, c.LSB() / 4, -1e-300} {
		if q := c.Quantize(v); math.Float64bits(q) != 0 {
			t.Errorf("Quantize(%g) = %g (bits %x), want +0", v, q, math.Float64bits(q))
		}
	}
}

func TestQuantizeClips(t *testing.T) {
	c := Config{Bits: 8, FullScale: 1}
	hi := c.Quantize(5)
	lo := c.Quantize(-5)
	if hi > 1 || lo < -1 {
		t.Errorf("clipping out of range: %g, %g", hi, lo)
	}
	if !c.Saturated(5) || !c.Saturated(-5) {
		t.Error("rails should report saturated")
	}
	if c.Saturated(0) {
		t.Error("midscale should not be saturated")
	}
}

func TestQuantizeSliceCountsClipped(t *testing.T) {
	c := Config{Bits: 8, FullScale: 1}
	y, clipped := c.QuantizeSlice([]float64{0, 2, -3, 0.5})
	if clipped != 2 {
		t.Errorf("clipped = %d, want 2", clipped)
	}
	if len(y) != 4 {
		t.Errorf("len = %d", len(y))
	}
}

func TestQuantizeMonotoneProperty(t *testing.T) {
	c := Config{Bits: 10, FullScale: 2}
	f := func(a, b float64) bool {
		a = math.Mod(a, 4)
		b = math.Mod(b, 4)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return c.Quantize(a) <= c.Quantize(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeIdempotentProperty(t *testing.T) {
	c := Config{Bits: 12, FullScale: 1}
	f := func(v float64) bool {
		v = math.Mod(v, 2)
		if math.IsNaN(v) {
			return true
		}
		q := c.Quantize(v)
		return c.Quantize(q) == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
