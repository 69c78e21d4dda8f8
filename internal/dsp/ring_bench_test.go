package dsp_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/physio"
)

// BenchmarkRing30s streams 30 s of on-grid impedance (250 Hz, the AC
// path's 2⁻¹² Ω grid) through a ring the way the streamer's raw-Z ring
// is used: 128-sample appends, each chunk read back once with CopyTo
// (the Z0 and rail folds and the delineator's forward pass read their
// spans so), and a one-beat CopyTo per second. "wide" is the float64
// storage and "narrow" the 16-bit code storage, both at 4096 samples
// on a synthetic sweep of codes, whose appends and copies wrap at lap
// boundaries only; "exact" is the 16-bit storage at the raw-Z ring's
// 3742 samples, whose appends and copies also wrap inside a chunk;
// "packed" is NewNarrowRing's packed storage at 3742 samples on study
// subject 1's impedance as the device acquires it.
func BenchmarkRing30s(b *testing.B) {
	sweep := make([]float64, 7500)
	for i := range sweep {
		sweep[i] = 400 + float64(int(4096*math.Sin(float64(i)/40)))/4096
	}
	d, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sub, _ := physio.SubjectByID(1)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		b.Fatal(err)
	}
	const lsb = 0x1p-12
	code := func(n int) *dsp.Ring { return dsp.NewCodeRing(n, lsb) }
	packed := func(n int) *dsp.Ring { return dsp.NewNarrowRing(n, lsb) }
	for _, c := range []struct {
		name string
		mk   func(int) *dsp.Ring
		n    int
		x    []float64
	}{{"wide", dsp.NewRing, 4096, sweep}, {"narrow", code, 4096, sweep}, {"exact", code, 3742, sweep}, {"packed", packed, 3742, acq.Z}} {
		b.Run(c.name, func(b *testing.B) {
			x, r := c.x, c.mk(c.n)
			seg := make([]float64, 0, 250)
			var sum float64
			for b.Loop() {
				r.Reset()
				for pos := 0; pos < len(x); pos += 128 {
					end := min(pos+128, len(x))
					r.Append(x[pos:end])
					for _, v := range r.CopyTo(seg[:0], pos, end) {
						sum += v
					}
					if r.N() >= 250 && r.N()%250 < 128 {
						seg = r.CopyTo(seg[:0], r.N()-250, r.N())
					}
				}
			}
			if r.Narrow() != (c.name != "wide") || r.Packed() != (c.name == "packed") || sum == 0 || len(seg) == 0 {
				b.Fatal("ring left its form or read nothing")
			}
		})
	}
}
