// Package adc models the analog-to-digital conversion stage of the
// acquisition front ends. The device's ECG AFE (ADS1291-class) offers up
// to 16-bit resolution and the STM32L151's internal ADC offers 12 bits;
// sampling rates are programmable from 125 Hz to 16 kHz (Section III-A).
package adc

import (
	"errors"
	"math"
)

// Config describes a bipolar ADC with full scale +-FullScale.
type Config struct {
	Bits      int     // resolution, 1..24
	FullScale float64 // input full scale (units of the signal, e.g. mV)
}

// Errors returned by Validate.
var (
	ErrBadBits      = errors.New("adc: bits must be in 1..24")
	ErrBadFullScale = errors.New("adc: full scale must be positive")
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Bits < 1 || c.Bits > 24 {
		return ErrBadBits
	}
	if c.FullScale <= 0 {
		return ErrBadFullScale
	}
	return nil
}

// Levels returns the number of quantization levels (2^Bits).
func (c Config) Levels() int {
	return 1 << uint(c.Bits)
}

// LSB returns the quantization step.
func (c Config) LSB() float64 {
	return 2 * c.FullScale / float64(c.Levels())
}

// TheoreticalSNR returns the ideal quantization SNR in dB
// (6.02*bits + 1.76).
func (c Config) TheoreticalSNR() float64 {
	return 6.02*float64(c.Bits) + 1.76
}

// Quantize converts one sample: clamp to full scale, round to the nearest
// code, return the reconstructed value. A code is an integer, so an
// input that rounds to code 0 reconstructs as +0, whatever its sign.
func (c Config) Quantize(v float64) float64 {
	fs := c.FullScale
	if v > fs {
		v = fs
	}
	if v < -fs {
		v = -fs
	}
	lsb := c.LSB()
	code := math.Round(v / lsb)
	max := float64(c.Levels()/2) - 1
	if code > max {
		code = max
	}
	if code < -max-1 {
		code = -max - 1
	}
	if code == 0 {
		code = 0 // math.Round leaves -0 for inputs in (-lsb/2, 0)
	}
	return code * lsb
}

// QuantizeSlice converts a whole signal, returning a new slice and the
// number of clipped samples.
func (c Config) QuantizeSlice(x []float64) ([]float64, int) {
	y := make([]float64, len(x))
	clipped := 0
	for i, v := range x {
		if v > c.FullScale || v < -c.FullScale {
			clipped++
		}
		y[i] = c.Quantize(v)
	}
	return y, clipped
}

// Saturated reports whether the code for v sits at either rail.
func (c Config) Saturated(v float64) bool {
	lsb := c.LSB()
	max := (float64(c.Levels()/2) - 1) * lsb
	min := -float64(c.Levels()/2) * lsb
	q := c.Quantize(v)
	return q >= max || q <= min
}
